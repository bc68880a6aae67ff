import json

import pytest

from navcurate.cli import default_workers, main
from navcurate.geometry import EgoWaypoint
from navcurate.io import (
    PredictionRecord,
    parse_samples,
    write_pose_file,
    write_predictions,
)
from navcurate.losses import loss_arr, loss_ori, loss_reg
from navcurate.synth import SynthSpec, generate


def write_traj(path, spec):
    traj = generate(spec)
    write_pose_file(traj, path)
    return traj


def synth_spec_doc(tmp_path, *, duration=240.0, fps=10.0, crowd_spans=None, landmarks=True):
    doc = {
        "trajectory": {
            "kind": "straight",
            "duration_s": duration,
            "fps": fps,
            "speed_mps": 1.4,
            "traj_id": "walk",
        },
        "detections": {"spans": crowd_spans or []},
    }
    if landmarks:
        doc["landmarks"] = {"per_clip": 3, "seed": 7, "clip_seconds": 60.0}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


class TestSegmentCommand:
    def test_writes_clips_and_manifest(self, tmp_path):
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        out = tmp_path / "clips"
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["clips"]) == 4
        assert manifest["counts"] == {"poses_in": 2400, "clips_out": 4}
        assert (out / "walk_0000.txt").exists()

    def test_short_input_exits_3(self, tmp_path, capsys):
        pose_file = tmp_path / "short.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=10.0, fps=10.0, traj_id="short"))
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60", "--out", str(tmp_path / "c")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "empty"

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        pose_file = tmp_path / "bad.txt"
        pose_file.write_text("0.0 nope 0 0 0 0 0 1\n")
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--out", str(tmp_path / "c")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse"
        assert err["line"] == 1

    def test_missing_input_exits_4(self, tmp_path, capsys):
        rc = main(["segment", "--input", str(tmp_path / "nope.txt"), "--fps", "10", "--out", str(tmp_path / "c")])
        assert rc == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


@pytest.fixture
def pipeline_dir(tmp_path):
    """synth -> segment, ready for filter/samples; detections, landmarks included."""
    spec = synth_spec_doc(tmp_path, crowd_spans=[{"start": 650, "frames": 4, "count": 6}])
    synth_out = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(synth_out)]) == 0
    clips_out = tmp_path / "clips"
    rc = main(
        ["segment", "--input", str(synth_out / "walk.txt"), "--fps", "10", "--clip-seconds", "60", "--out", str(clips_out)]
    )
    assert rc == 0
    return tmp_path


class TestSynthCommand:
    def test_outputs_match_spec(self, tmp_path):
        spec = synth_spec_doc(tmp_path, crowd_spans=[{"start": 10, "frames": 2, "count": 7}])
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["poses"] == 2400
        assert manifest["counts"]["landmarks"] == 12  # 4 clips x 3
        assert (out / "walk.txt").exists()
        assert (out / "detections.jsonl").exists()
        assert (out / "landmarks.jsonl").exists()

    def test_deterministic(self, tmp_path):
        spec = synth_spec_doc(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(out_a)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(out_b)]) == 0
        for name in ("walk.txt", "landmarks.jsonl", "detections.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestFilterCommand:
    def test_report_and_accepted_list(self, pipeline_dir):
        report_path = pipeline_dir / "report.json"
        rc = main(
            [
                "filter",
                "--clips", str(pipeline_dir / "clips"),
                "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                "--report", str(report_path),
                "--world-up=-y",
                "--workers", "1",
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        counts = report["counts"]
        assert counts["clips_in"] == counts["accepted"] + counts["rejected"]
        # The crowd burst lives in clip 1 (frames 650..653 of the source).
        verdicts = {v["clip_id"]: v for v in report["verdicts"]}
        assert verdicts["walk_0001"]["accepted"] is False
        assert verdicts["walk_0001"]["reasons"] == ["crowd_density"]
        assert verdicts["walk_0000"]["accepted"] is True
        accepted = (pipeline_dir / "report.json.accepted").read_text().split()
        assert accepted == ["walk_0000", "walk_0002", "walk_0003"]

    def test_empty_clip_set_reports_zero_counts(self, tmp_path):
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        (clips_dir / "manifest.json").write_text(json.dumps({"clips": []}))
        detections = tmp_path / "d.jsonl"
        detections.write_text("")
        report_path = tmp_path / "report.json"
        rc = main(
            ["filter", "--clips", str(clips_dir), "--detections", str(detections),
             "--report", str(report_path), "--workers", "1"]
        )
        assert rc == 0
        counts = json.loads(report_path.read_text())["counts"]
        assert counts == {"clips_in": 0, "accepted": 0, "rejected": 0, "rejected_by_reason": {}}

    def test_oracle_corpus_through_cli(self, tmp_path):
        # Ten 2-minute parts chained into one trajectory; parts 1, 3, 5
        # break one rule each and part 7 gets a crowd burst, so the filter
        # stage must accept exactly six clips.
        def part(kind, **kw):
            return {"kind": kind, "duration_s": 120.0, "fps": 30.0, **kw}

        spec = {
            "trajectory": {
                "kind": "composite",
                "traj_id": "mix",
                "parts": [
                    part("straight"),
                    part("sinusoid_pitch", amplitude_deg=10.0),
                    part("arc", yaw_rate_dps=2.0),
                    part("head_turn", turn_deg=80.0, turn_start_s=40.0, turn_len_s=4.0),
                    part("straight"),
                    part("sinusoid_pitch", amplitude_deg=9.0),
                    part("arc", yaw_rate_dps=-2.0),
                    part("straight"),
                    part("straight"),
                    part("arc", yaw_rate_dps=1.0),
                ],
            },
            "detections": {"spans": [{"start": 7 * 3600 + 100, "frames": 4, "count": 6}]},
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "synth")]) == 0
        assert (
            main(
                ["segment", "--input", str(tmp_path / "synth" / "mix.txt"), "--fps", "30",
                 "--clip-seconds", "120", "--out", str(tmp_path / "clips")]
            )
            == 0
        )
        report_path = tmp_path / "report.json"
        rc = main(
            ["filter", "--clips", str(tmp_path / "clips"),
             "--detections", str(tmp_path / "synth" / "detections.jsonl"),
             "--report", str(report_path), "--world-up=-y", "--workers", "2"]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["counts"]["clips_in"] == 10
        assert report["counts"]["accepted"] == 6
        failing = {v["clip_id"]: v["reasons"] for v in report["verdicts"] if not v["accepted"]}
        assert failing == {
            "mix_0001": ["pitch_range"],
            "mix_0003": ["view_divergence"],
            "mix_0005": ["pitch_range"],
            "mix_0007": ["crowd_density"],
        }

    def test_flag_overrides_config(self, pipeline_dir):
        report_path = pipeline_dir / "strict.json"
        rc = main(
            [
                "filter",
                "--clips", str(pipeline_dir / "clips"),
                "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                "--report", str(report_path),
                "--world-up=-y",
                "--crowd-frame-threshold", "10",
                "--workers", "1",
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["counts"]["accepted"] == 4
        assert report["config"]["filter"]["crowd_frame_threshold"] == 10


class TestSamplesCommand:
    def _run(self, pipeline_dir, out_name="samples.jsonl", workers="1", seed="3"):
        report_path = pipeline_dir / "report.json"
        if not report_path.exists():
            assert (
                main(
                    [
                        "filter",
                        "--clips", str(pipeline_dir / "clips"),
                        "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                        "--report", str(report_path),
                        "--world-up=-y",
                        "--workers", "1",
                    ]
                )
                == 0
            )
        out = pipeline_dir / out_name
        rc = main(
            [
                "samples",
                "--clips", str(pipeline_dir / "clips"),
                "--landmarks", str(pipeline_dir / "synth" / "landmarks.jsonl"),
                "--accepted", str(pipeline_dir / "report.json.accepted"),
                "--out", str(out),
                "--seed", seed,
                "--world-up=-y",
                "--workers", workers,
            ]
        )
        return rc, out

    def test_builds_samples_with_manifest(self, pipeline_dir):
        rc, out = self._run(pipeline_dir)
        assert rc == 0
        samples = parse_samples(out)
        manifest = json.loads((out.parent / f"{out.name}.manifest.json").read_text())
        counts = manifest["counts"]
        skipped = counts["skipped_landmark_draws"]
        # 3 accepted clips x 3 landmarks x 1 draw; draws too close to the
        # clip end are skipped and accounted for, never silently dropped.
        attempted = 9
        assert counts["samples"] == len(samples)
        assert (
            len(samples) + skipped["infeasible"] + skipped["out_of_bounds"] + skipped["gimbal_degenerate"]
            == attempted
        )
        assert skipped["rejected_clip"] == 3
        assert manifest["config"]["sampler"]["seed"] == 3

    def test_seed_determinism_and_worker_independence(self, pipeline_dir):
        rc1, out1 = self._run(pipeline_dir, "s1.jsonl", workers="1")
        rc2, out2 = self._run(pipeline_dir, "s2.jsonl", workers="4")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_config_reruns_identically(self, pipeline_dir):
        rc, out = self._run(pipeline_dir)
        assert rc == 0
        manifest = json.loads((out.parent / f"{out.name}.manifest.json").read_text())
        cfg = manifest["config"]["sampler"]
        conv = manifest["config"]["convention"]
        rerun_out = pipeline_dir / "rerun.jsonl"
        rc = main(
            [
                "samples",
                "--clips", str(pipeline_dir / "clips"),
                "--landmarks", str(pipeline_dir / "synth" / "landmarks.jsonl"),
                "--accepted", str(pipeline_dir / "report.json.accepted"),
                "--out", str(rerun_out),
                "--seed", str(cfg["seed"]),
                "--history-len", str(cfg["history_len"]),
                "--horizon", str(cfg["horizon"]),
                "--min-offset", str(cfg["min_offset"]),
                "--max-offset", str(cfg["max_offset"]),
                "--arrival-window", str(cfg["arrival_window"]),
                "--arrival-fraction", str(cfg["arrival_fraction"]),
                "--waypoint-stride", str(cfg["waypoint_stride"]),
                "--draws-per-landmark", str(cfg["draws_per_landmark"]),
                f"--camera-forward={conv['camera_forward']}",
                f"--world-up={conv['world_up']}",
                "--workers", "1",
            ]
        )
        assert rc == 0
        assert rerun_out.read_bytes() == out.read_bytes()

    def test_zero_samples_exits_3(self, pipeline_dir, capsys):
        (pipeline_dir / "none.accepted").write_text("")
        out = pipeline_dir / "empty.jsonl"
        rc = main(
            [
                "samples",
                "--clips", str(pipeline_dir / "clips"),
                "--landmarks", str(pipeline_dir / "synth" / "landmarks.jsonl"),
                "--accepted", str(pipeline_dir / "none.accepted"),
                "--out", str(out),
                "--seed", "1",
                "--world-up=-y",
                "--workers", "1",
            ]
        )
        assert rc == 3
        assert out.exists()


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path):
        wps = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        records = [
            PredictionRecord(
                f"s{i}",
                tuple(EgoWaypoint(*w) for w in wps),
                tuple(EgoWaypoint(*w) for w in wps),
                predicted_arrival=0.9,
                arrival_label=True,
            )
            for i in range(4)
        ]
        pred_path = tmp_path / "pred.jsonl"
        write_predictions(records, pred_path)
        out = tmp_path / "metrics.json"
        assert main(["eval", "--pred", str(pred_path), "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["aoe_deg"] == 0.0
        assert metrics["maoe_deg"] == 0.0
        assert metrics["ade_m"] == 0.0
        assert metrics["made_m"] == 0.0
        assert metrics["arrival_accuracy"] == 1.0

    def test_empty_predictions_exit_3(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text("")
        rc = main(["eval", "--pred", str(pred_path), "--out", str(tmp_path / "m.json")])
        assert rc == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("predicted_arrival", "abc"),
            ("predicted_arrival", True),
            ("arrival_label", "no"),
            ("arrival_label", 1),
            ("predicted", [["x", 0]]),
            ("predicted", [[1, 0, 5]]),
            ("ground_truth", [[1, 0, 5]]),
            ("ground_truth", [[True, 0]]),
            ("predicted", [[10**400, 0]]),
            ("sample_id", 7),
        ],
    )
    def test_malformed_record_exits_2(self, tmp_path, capsys, field, value):
        record = {
            "sample_id": "s0",
            "predicted": [[1.0, 0.0]],
            "ground_truth": [[1.0, 0.0]],
            "predicted_arrival": 0.5,
            "arrival_label": True,
        }
        record[field] = value
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text(json.dumps(record) + "\n")
        out = tmp_path / "m.json"
        assert main(["eval", "--pred", str(pred_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "parse"
        assert json.loads(err[0])["line"] == 1
        assert not out.exists()


class TestLossCommand:
    def test_prints_components(self, tmp_path, capsys):
        doc = {
            "pred_waypoints": [[1.0, 0.0], [2.0, 0.0]],
            "gt_waypoints": [[1.0, 0.5], [2.0, 0.5]],
            "arrival_logit": 0.0,
            "arrival_label": 1,
            "pred_features": [[0.5, -0.5]],
            "gt_features": [[0.0, 0.0]],
            "weights": {"lambda_reg": 2.0},
        }
        path = tmp_path / "loss.json"
        path.write_text(json.dumps(doc))
        assert main(["loss", "--input", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        reg, _ = loss_reg(doc["pred_waypoints"], doc["gt_waypoints"])
        ori, _ = loss_ori(doc["pred_waypoints"], doc["gt_waypoints"])
        arr, _ = loss_arr(0.0, 1)
        assert printed["loss_reg"] == pytest.approx(reg)
        assert printed["loss_ori"] == pytest.approx(ori)
        assert printed["loss_arr"] == pytest.approx(arr)
        assert printed["loss_hall"] == pytest.approx(1.0)
        assert printed["loss_total"] == pytest.approx(2.0 * reg + ori + arr + 1.0)

    def test_missing_waypoints_exits_2(self, tmp_path):
        path = tmp_path / "loss.json"
        path.write_text(json.dumps({"gt_waypoints": [[1.0, 0.0]]}))
        assert main(["loss", "--input", str(path)]) == 2


class TestWorkersEnv:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("NAVCURATE_WORKERS", "5")
        assert default_workers() == 5

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv("NAVCURATE_WORKERS", "lots")
        from navcurate.errors import ValidationError

        with pytest.raises(ValidationError):
            default_workers()
