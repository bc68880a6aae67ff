import json

import pytest

from navcurate import cli
from navcurate.cli import default_workers, main
from navcurate.io import (
    PredictionRecord,
    parse_samples,
    write_pose_file,
    write_predictions,
)
from navcurate.losses import loss_arr, loss_ori, loss_reg
from navcurate.synth import SynthSpec, generate

from oracles import EgoWaypoint


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

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("trajectory", "duration_s", "2"),
            ("trajectory", "seed", 1.5),
            (None, "detections", [1]),
            ("landmarks", "per_clip", "x"),
            ("detections", "spans", [{"start": 0, "frames": 3, "count": 2.7}]),
        ],
    )
    def test_mistyped_spec_value_exits_2(self, tmp_path, capsys, block, key, value):
        spec = synth_spec_doc(tmp_path)
        doc = json.loads(spec.read_text())
        (doc if block is None else doc[block])[key] = value
        spec.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert key in json.loads(lines[0])["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("detections", "spans", [{"start": -1, "frames": 3, "count": 2}]),
            ("detections", "spans", [{"start": 0, "frames": 3, "count": -2}]),
            ("landmarks", "per_clip", -1),
            ("landmarks", "seed", -1),
        ],
    )
    def test_negative_spec_value_exits_2(self, tmp_path, capsys, block, key, value):
        spec = synth_spec_doc(tmp_path)
        doc = json.loads(spec.read_text())
        doc[block][key] = value
        spec.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert not out.exists()


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

    def test_empty_clip_set_exits_3(self, tmp_path, capsys):
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
        assert rc == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "empty"
        assert not report_path.exists()

    @pytest.mark.parametrize("field", ["file", "clip_id", "source_id", "fps", "start_frame"])
    def test_manifest_entry_missing_field_exits_2(self, pipeline_dir, capsys, field):
        manifest_path = pipeline_dir / "clips" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["clips"][1][field]
        manifest_path.write_text(json.dumps(manifest))
        rc = main(
            ["filter", "--clips", str(pipeline_dir / "clips"),
             "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
             "--report", str(pipeline_dir / "report.json"), "--workers", "1"]
        )
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validation"
        assert f"clip entry 1 has no {field!r}" in err["detail"]

    @pytest.mark.parametrize("damage", ["cut-mid-row", "missing-rows", "start-frame-beyond-int64"])
    def test_bad_clip_same_error_at_any_worker_count(self, pipeline_dir, capsys, damage):
        clips = pipeline_dir / "clips"
        pose_file = clips / "walk_0002.txt"
        if damage == "cut-mid-row":
            pose_file.write_text(pose_file.read_text().rstrip("\n").rsplit(" ", 1)[0] + "\n")
        elif damage == "missing-rows":
            pose_file.write_text("".join(pose_file.read_text().splitlines(keepends=True)[:-5]))
        else:
            manifest = json.loads((clips / "manifest.json").read_text())
            manifest["clips"][2]["start_frame"] = 2**63 - 100
            (clips / "manifest.json").write_text(json.dumps(manifest))
        errors = []
        for workers in ("1", "2"):
            rc = main(
                ["filter", "--clips", str(clips), "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                 "--report", str(pipeline_dir / "report.json"), "--workers", workers]
            )
            assert rc == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            errors.append(json.loads(lines[0]))
        assert errors[0] == errors[1]
        if damage == "cut-mid-row":
            assert errors[0]["error"] == "parse" and errors[0]["line"] == 602
        assert not (pipeline_dir / "report.json").exists()

    @pytest.mark.parametrize("command", ["filter", "samples"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("clip_id", ""),
            ("source_id", ""),
            ("file", ""),
            ("fps", 0),
            ("fps", -10.0),
            ("n_frames", 0),
            ("start_frame", -1),
            ("start_frame", 2**63 - 600),
        ],
    )
    def test_manifest_rule_fails_before_any_task(self, pipeline_dir, capsys, monkeypatch, command, field, value):
        clips = pipeline_dir / "clips"
        (pipeline_dir / "ok.accepted").write_text("walk_0000\nwalk_0002\n")
        manifest = json.loads((clips / "manifest.json").read_text())
        manifest["clips"][2][field] = value
        (clips / "manifest.json").write_text(json.dumps(manifest))

        def no_tasks(fn, tasks, workers):
            raise AssertionError("a task was dispatched")

        monkeypatch.setattr(cli, "_map_tasks", no_tasks)
        if command == "filter":
            rest = ["--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                    "--report", str(pipeline_dir / "r.json")]
        else:
            rest = ["--landmarks", str(pipeline_dir / "synth" / "landmarks.jsonl"),
                    "--accepted", str(pipeline_dir / "ok.accepted"), "--out", str(pipeline_dir / "s.jsonl")]
        assert main([command, "--clips", str(clips), *rest, "--workers", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert field in json.loads(lines[0])["detail"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame", True),
            ("score", "0.9"),
            ("bbox", ["0", 0, 1, 1]),
            ("label", 7),
        ],
    )
    def test_coerced_detection_value_exits_2(self, pipeline_dir, capsys, field, value):
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 1}
        record = {"frame": 3, "detections": [box]}
        if field == "frame":
            record["frame"] = value
        else:
            box[field] = value
        valid = {"frame": 1, "detections": [{"label": "person", "bbox": [0, 0, 10, 10], "score": 1}]}
        detections = pipeline_dir / "d.jsonl"
        detections.write_text(json.dumps(valid) + "\n" + json.dumps(record) + "\n")
        rc = main(
            ["filter", "--clips", str(pipeline_dir / "clips"), "--detections", str(detections),
             "--report", str(pipeline_dir / "report.json"), "--workers", "1"]
        )
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "parse"
        assert err["line"] == 2

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

    @pytest.mark.parametrize(
        "config",
        [{"crowd_count_threshold": "5"}, {"crowd_count_threshold": 2.5}, {"crowd_count_threshold": True}, [5]],
    )
    def test_mistyped_config_exits_2(self, pipeline_dir, capsys, config):
        config_path = pipeline_dir / "filter.json"
        config_path.write_text(json.dumps(config))
        report_path = pipeline_dir / "report.json"
        rc = main(
            ["filter", "--clips", str(pipeline_dir / "clips"),
             "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
             "--config", str(config_path), "--report", str(report_path), "--workers", "1"]
        )
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert not report_path.exists()
        assert not (pipeline_dir / "report.json.accepted").exists()

    def test_accepted_list_written_before_report(self, pipeline_dir, monkeypatch):
        def fail(report, path):
            raise OSError("disk full")

        monkeypatch.setattr("navcurate.io.write_report", fail)
        report_path = pipeline_dir / "report.json"
        rc = main(
            ["filter", "--clips", str(pipeline_dir / "clips"),
             "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
             "--report", str(report_path), "--world-up=-y", "--workers", "1"]
        )
        assert rc == 4
        assert (pipeline_dir / "report.json.accepted").read_text().split() == ["walk_0000", "walk_0002", "walk_0003"]
        assert not report_path.exists()


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("unused", ["rejected", "accepted-without-landmarks"])
    def test_unused_clip_is_never_read(self, pipeline_dir, workers, unused):
        # Only accepted clips with landmarks are loaded: walk_0001 is rejected for its crowd
        # burst, and walk_0002 is accepted but loses its landmarks here.
        clip_id = "walk_0001" if unused == "rejected" else "walk_0002"
        if unused != "rejected":
            landmarks = pipeline_dir / "synth" / "landmarks.jsonl"
            lines = landmarks.read_text().splitlines(keepends=True)
            landmarks.write_text("".join(line for line in lines if json.loads(line)["clip_id"] != clip_id))
        rc, out = self._run(pipeline_dir, "all.jsonl", workers=workers)
        assert rc == 0
        (pipeline_dir / "clips" / f"{clip_id}.txt").unlink()
        rc, again = self._run(pipeline_dir, "again.jsonl", workers=workers)
        assert rc == 0
        assert again.read_bytes() == out.read_bytes()
        first, second = (json.loads((p.parent / f"{p.name}.manifest.json").read_text()) for p in (out, again))
        del first["outputs"], second["outputs"]
        assert first == second

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

    @pytest.mark.parametrize("config", [{"horizon": 2.5}, {"seed": True}])
    def test_mistyped_config_exits_2(self, pipeline_dir, capsys, config):
        self._run(pipeline_dir, "first.jsonl")
        config_path = pipeline_dir / "sampler.json"
        config_path.write_text(json.dumps(config))
        out = pipeline_dir / "bad.jsonl"
        rc = main(
            ["samples", "--clips", str(pipeline_dir / "clips"),
             "--landmarks", str(pipeline_dir / "synth" / "landmarks.jsonl"),
             "--accepted", str(pipeline_dir / "report.json.accepted"),
             "--config", str(config_path), "--out", str(out), "--world-up=-y", "--workers", "2"]
        )
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert not out.exists()
        assert not (pipeline_dir / "bad.jsonl.manifest.json").exists()


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

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [["a", 0]]},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "arrival_logit": "x", "arrival_label": 1},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "arrival_logit": 0.0, "arrival_label": 2},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "arrival_logit": 0.0, "arrival_label": True},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5], [2.0, 0.5]]},
            {"pred_waypoints": [], "gt_waypoints": []},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "pred_features": [[1]], "gt_features": [[1, 2]]},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "pred_features": [[1], [1, 2]], "gt_features": [[1], [1, 2]]},
            {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "pred_features": [[]], "gt_features": [[]]},
        ],
        ids=[
            "non-object", "string-component", "string-logit", "label-2", "bool-label", "unequal", "empty",
            "feature-shapes", "ragged-features", "zero-width-features",
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "loss.json"
        path.write_text(json.dumps(doc))
        assert main(["loss", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"

    @pytest.mark.parametrize("weight", [True, "1"])
    def test_mistyped_weight_exits_2(self, tmp_path, capsys, weight):
        doc = {"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]], "weights": {"lambda_reg": weight}}
        path = tmp_path / "loss.json"
        path.write_text(json.dumps(doc))
        assert main(["loss", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"


class TestWorkersEnv:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("NAVCURATE_WORKERS", "5")
        assert default_workers() == 5

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv("NAVCURATE_WORKERS", "lots")
        from navcurate.errors import ValidationError

        with pytest.raises(ValidationError):
            default_workers()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_below_one_exits_2(self, tmp_path, capsys, monkeypatch, source, value):
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=60.0, fps=10.0, traj_id="walk"))
        out = tmp_path / "clips"
        argv = ["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "30", "--out", str(out)]
        if source == "flag":
            argv += ["--workers", value]
        else:
            monkeypatch.setenv("NAVCURATE_WORKERS", value)
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert not out.exists()

    def test_pool_capped_at_task_count(self, monkeypatch):
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records max_workers and maps inline."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        assert cli._map_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert cli._map_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert started == [3, 2]
