import bz2
import collections
import concurrent.futures
import contextlib
import functools
import gzip
import hashlib
import json
import lzma
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import navcurate
from navcurate import cli, segmentation
from navcurate.cli import main
from navcurate.io import (
    DetectionTable,
    LandmarkAnnotation,
    PredictionRecord,
    RawTrajectory,
    parse_samples,
    write_pose_file,
    write_predictions,
)
from navcurate.losses import loss_arr, loss_ori, loss_reg
from navcurate.segmentation import ClipEntry
from navcurate.synth import MAX_BOXES, SynthSpec, generate

from oracles import EgoWaypoint


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    """Run the CLI as its own process: stderr then holds everything it printed, warnings included."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "navcurate.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_manifest_pins_each_pose_file(self, tmp_path, workers):
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        out = tmp_path / "clips"
        assert main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60", "--out", str(out),
                     "--workers", workers]) == 0
        clips = json.loads((out / "manifest.json").read_text())["clips"]
        digests = [hashlib.sha256((out / clip["file"]).read_bytes()).hexdigest() for clip in clips]
        assert [clip["sha256"] for clip in clips] == digests

    def test_short_input_exits_3(self, tmp_path, capsys):
        pose_file = tmp_path / "short.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=10.0, fps=10.0, traj_id="short"))
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60", "--out", str(tmp_path / "c")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "empty"

    @pytest.mark.parametrize("fps, rc", [("30", 2), ("10.11", 2), ("9.89", 2), ("10.09", 0), ("9.91", 0), ("10", 0)])
    def test_fps_must_match_the_timestamps(self, tmp_path, capsys, fps, rc):
        # The quick-start stream steps 0.1 s; read at 30 fps, its "60 s" clips spanned 180 s and segment exited 0.
        assert main(["synth", "--spec", str(synth_spec_doc(tmp_path)), "--out", str(tmp_path / "synth")]) == 0
        pose_file = tmp_path / "synth" / "walk.txt"
        argv = ["segment", "--input", str(pose_file), "--fps", fps, "--clip-seconds", "60", "--out", str(tmp_path / "c")]
        capsys.readouterr()
        assert main(argv) == rc
        assert (tmp_path / "c" / "manifest.json").exists() == (rc == 0)
        if rc:
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "validation"
            assert record["detail"].startswith(f"{pose_file}: median timestamp step 0.")
            assert record["detail"].endswith(f" s is not 1/fps = {1.0 / float(fps)!r} s (--fps {float(fps)!r}) within 1%")

    def test_one_pose_has_no_step_to_check(self, tmp_path, capsys):
        pose_file = tmp_path / "one.txt"
        pose_file.write_text("5.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n")
        assert main(["segment", "--input", str(pose_file), "--fps", "30", "--clip-seconds", "1", "--out", str(tmp_path / "c")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "empty"

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

    def test_bad_fps_for_a_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["segment", "--input", str(tmp_path / "absent.txt"), "--fps", "0", "--out", str(tmp_path / "c")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"

    @pytest.mark.parametrize("traj_id", ["a\rb", "a\nb", "a\r\nb", "a\n"], ids=repr)
    def test_traj_id_holding_a_line_break_exits_2(self, tmp_path, capsys, traj_id):
        # The id heads every clip file ("# <id> fps=..."), where a line break would split the header line.
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        out = tmp_path / "clips"
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60", "--out", str(out),
                   "--traj-id", traj_id])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation", "detail": f"trajectory id must not hold a line break, got {traj_id!r}"}
        assert not out.exists()

    @pytest.mark.parametrize("traj_id", ["../esc", "a/b", "{tmp}/esc", "a\x00b", ".", ".."], ids=repr)
    def test_traj_id_that_is_not_one_file_name_writes_nothing(self, tmp_path, capsys, traj_id):
        # Each clip file is <id>_<k>.txt inside --out; an id must not lead it out, nor fail its write.
        traj_id = traj_id.format(tmp=tmp_path)
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60",
                   "--out", str(tmp_path / "clips"), "--traj-id", traj_id])
        assert rc == 2
        detail = f"trajectory id must be one file name, without '/' or NUL and not '.' or '..', got {traj_id!r}"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
        assert list(tmp_path.rglob("*")) == [pose_file]

    def test_empty_traj_id_writes_nothing(self, tmp_path, capsys):
        # An explicit empty id is rejected, not replaced by the file stem.
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        rc = main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60",
                   "--out", str(tmp_path / "clips"), "--traj-id", ""])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": "trajectory id must be non-empty"}
        assert list(tmp_path.rglob("*")) == [pose_file]

    def test_killed_rerun_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        # A re-run that fails after its first pose file must not leave the old manifest over the new files.
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        out = tmp_path / "clips"
        argv = ["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "60", "--out", str(out),
                "--workers", "1"]
        assert main(argv) == 0
        calls = []
        write_clip = segmentation._write_clip

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            write_clip(*args)

        monkeypatch.setattr(segmentation, "_write_clip", failing_second)
        assert main(argv) == 4
        assert len(calls) == 2
        assert not (out / "manifest.json").exists()
        (tmp_path / "d.jsonl").write_text("")
        capsys.readouterr()
        assert main(["filter", "--clips", str(out), "--detections", str(tmp_path / "d.jsonl"),
                     "--report", str(tmp_path / "r.json"), "--workers", "1"]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert not (tmp_path / "r.json").exists()

    def test_tasks_carry_no_poses(self, tmp_path, monkeypatch):
        # A task is one ClipEntry; each worker cuts its clip from the stream bound into the task function.
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=240.0, fps=10.0, traj_id="walk"))
        captured = []
        original = cli._map_tasks

        def recording(fn, tasks, workers):
            captured.append(list(tasks))
            return original(fn, tasks, workers)

        monkeypatch.setattr(cli, "_map_tasks", recording)
        for seconds in ("30", "120"):
            assert main(["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", seconds,
                         "--out", str(tmp_path / seconds), "--workers", "2"]) == 0
        short, long = captured
        assert (len(short), len(long)) == (8, 2)
        assert all(type(task) is ClipEntry for task in short + long)
        assert max(len(pickle.dumps(task)) for task in long) <= max(len(pickle.dumps(task)) for task in short)
        assert (tmp_path / "120" / "walk_0001.txt").read_bytes().count(b"\n") == 2 + 1200


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
            ("trajectory", "seed", 12345678901234567890123),  # no such key: a seed would change nothing
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

    def test_traj_id_holding_a_line_break_exits_2(self, tmp_path, capsys):
        doc = json.loads(synth_spec_doc(tmp_path).read_text())
        doc["trajectory"]["traj_id"] = "walk\n"
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation", "detail": "trajectory id must not hold a line break, got 'walk\\n'"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("traj_id", ["../up", "a/b", "{tmp}/up", "a\x00b", ".", ".."], ids=repr)
    def test_traj_id_that_is_not_one_file_name_writes_nothing(self, tmp_path, capsys, traj_id):
        # The pose file is <traj_id>.txt inside --out; an id must not lead it out, nor fail its write.
        traj_id = traj_id.format(tmp=tmp_path)
        spec = tmp_path / "spec.json"
        doc = json.loads(synth_spec_doc(tmp_path).read_text())
        doc["trajectory"]["traj_id"] = traj_id
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out" / "synth")]) == 2
        detail = f"trajectory id must be one file name, without '/' or NUL and not '.' or '..', got {traj_id!r}"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
        assert list(tmp_path.rglob("*")) == [spec]

    def test_empty_traj_id_writes_nothing(self, tmp_path, capsys):
        # An explicit empty id is rejected, not replaced by synth_<kind>.
        spec = tmp_path / "spec.json"
        doc = json.loads(synth_spec_doc(tmp_path).read_text())
        doc["trajectory"]["traj_id"] = ""
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": "trajectory id must be non-empty"}
        assert list(tmp_path.rglob("*")) == [spec]

    @pytest.mark.parametrize("clip_seconds, rc, error", [(20.0, 3, "empty"), (0.01, 2, "validation")],
                             ids=["longer-than-stream", "no-frames"])
    def test_landmark_plan_fails_before_any_file(self, tmp_path, capsys, clip_seconds, rc, error):
        # A 10 s stream at 10 fps: a 20 s clip does not fit it, and a 0.01 s window holds no frame.
        doc = json.loads(synth_spec_doc(tmp_path, duration=10.0).read_text())
        doc["landmarks"]["clip_seconds"] = clip_seconds
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == rc
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not out.exists()

    def test_landmarks_past_goal_frames_are_capped_silently(self, tmp_path):
        # A 4 s clip at 5 fps has 10 frames in its second half, so 10 goal frames.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "trajectory": {"kind": "straight", "duration_s": 4.0, "fps": 5.0},
            "landmarks": {"clip_seconds": 4.0, "per_clip": 50},
        }))
        proc = run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "synth"))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads((tmp_path / "synth" / "manifest.json").read_text())["counts"]["landmarks"] == 10

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

    @pytest.mark.parametrize(
        "block, key, value, field",
        [
            ("detections", "spans", [{"start": 0, "frames": 3, "count": 10**12}], "detections.spans"),
            ("detections", "spans", [{"start": 5, "frames": 1, "count": 10**400}], "detections.spans"),
            ("detections", "spans", [{"start": 0, "frames": 2400, "count": MAX_BOXES // 2400 + 1}], "detections.spans"),
            ("detections", "schedule", [0, 10**12], "detections.schedule"),
            ("detections", "schedule", [10**400], "detections.schedule"),
            ("detections", "schedule", [1, 2**63], "detections.schedule"),
            ("trajectory", "duration_s", 1e12, "duration_s"),
            ("trajectory", "duration_s", 1e308, "duration_s"),
        ],
        ids=["span-1e12", "span-1e400", "span-total", "schedule-1e12", "schedule-1e400", "schedule-2**63",
             "duration-1e12", "duration-1e308"],
    )
    def test_oversized_spec_exits_2(self, tmp_path, capsys, block, key, value, field):
        spec = synth_spec_doc(tmp_path)
        doc = json.loads(spec.read_text())
        doc[block][key] = value
        spec.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "validation"
        assert field in record["detail"]
        assert not out.exists()


def _chain_argv(root: Path) -> dict:
    """argv of synth, segment, filter and samples by stage, each path named from root."""
    return {
        "synth": ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "synth")],
        "segment": ["segment", "--input", str(root / "synth" / "walk.txt"), "--fps", "10", "--clip-seconds", "60",
                    "--out", str(root / "clips"), "--workers", "1"],
        "filter": ["filter", "--clips", str(root / "clips"), "--detections", str(root / "synth" / "detections.jsonl"),
                   "--report", str(root / "report.json"), "--world-up=-y", "--workers", "1"],
        "samples": ["samples", "--clips", str(root / "clips"), "--landmarks", str(root / "synth" / "landmarks.jsonl"),
                    "--accepted", str(root / "report.json.accepted"), "--out", str(root / "samples.jsonl"),
                    "--world-up=-y", "--workers", "1"],
    }


def _run_chain(root: Path) -> None:
    """synth -> segment -> filter -> samples, then eval, each path named from root."""
    for argv in _chain_argv(root).values():
        assert main(argv) == 0, argv[0]
    write_predictions([PredictionRecord("s0", ((1.0, 0.0),), ((1.0, 0.5),))], root / "pred.jsonl")
    assert main(["eval", "--pred", str(root / "pred.jsonl"), "--out", str(root / "metrics.json")]) == 0


def test_manifests_name_inputs_by_role(tmp_path, monkeypatch):
    # One run names every path relative to the working directory, the other absolutely.
    synth_spec_doc(tmp_path)
    (tmp_path / "abs").mkdir()
    (tmp_path / "abs" / "spec.json").write_bytes((tmp_path / "spec.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    _run_chain(Path("."))
    _run_chain(tmp_path / "abs")
    roles = {
        "synth/manifest.json": ["spec"],
        "clips/manifest.json": ["poses"],
        "report.json": ["clip_manifest", "detections"],
        "samples.jsonl.manifest.json": ["accepted", "clip_manifest", "landmarks"],
        "metrics.json": ["predictions"],
    }
    for name, keys in roles.items():
        manifest = (tmp_path / name).read_bytes()
        assert manifest == (tmp_path / "abs" / name).read_bytes(), name
        assert list(json.loads(manifest)["inputs"]) == keys, name
    assert json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())["outputs"] == {"samples": "samples.jsonl"}


@pytest.mark.parametrize(
    "stage, writer, manifest",
    [
        ("synth", "write_pose_file", "synth/manifest.json"),
        ("filter", "_write_lines", "report.json"),
        ("samples", "write_samples", "samples.jsonl.manifest.json"),
    ],
)
def test_rerun_failing_at_its_first_write_leaves_no_old_manifest(tmp_path, capsys, monkeypatch, stage, writer,
                                                                  manifest):
    # The old manifest would describe outputs that the failed re-run may have replaced in part.
    synth_spec_doc(tmp_path)
    _run_chain(tmp_path)
    assert (tmp_path / manifest).exists()

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(f"navcurate.io.{writer}", fail)
    capsys.readouterr()
    assert main(_chain_argv(tmp_path)[stage]) == 4
    assert json.loads(capsys.readouterr().err) == {"error": "io", "detail": "disk full"}
    assert not (tmp_path / manifest).exists()


def _manifest_reader_argv(root, command: str, workers: str) -> list:
    """argv of filter or samples on a pipeline_dir's clips; samples reads the accepted ids from ok.accepted."""
    if command == "filter":
        rest = ["--detections", str(root / "synth" / "detections.jsonl"), "--report", str(root / "r.json")]
    else:
        rest = ["--landmarks", str(root / "synth" / "landmarks.jsonl"), "--accepted", str(root / "ok.accepted"),
                "--out", str(root / "s.jsonl")]
    return [command, "--clips", str(root / "clips"), *rest, "--workers", workers]


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

    @pytest.mark.parametrize("command", ["filter", "samples"])
    def test_repeated_clip_id_names_both_entries(self, pipeline_dir, capsys, command):
        manifest_path = pipeline_dir / "clips" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["clips"][3]["clip_id"] = manifest["clips"][1]["clip_id"]
        manifest_path.write_text(json.dumps(manifest))
        (pipeline_dir / "ok.accepted").write_text("walk_0001\n")
        assert main(_manifest_reader_argv(pipeline_dir, command, "1")) == 2
        detail = f"{manifest_path}: clip entries 1 and 3 share the clip_id 'walk_0001'"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
        assert not (pipeline_dir / "r.json").exists() and not (pipeline_dir / "s.jsonl").exists()

    @pytest.mark.parametrize("command", ["filter", "samples"])
    def test_repeated_file_names_both_entries(self, pipeline_dir, capsys, command):
        # Two entries of one pose file would score one clip's poses under two ids.
        manifest_path = pipeline_dir / "clips" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["clips"][1]["file"] = manifest["clips"][0]["file"]
        manifest_path.write_text(json.dumps(manifest))
        (pipeline_dir / "ok.accepted").write_text("walk_0000\nwalk_0001\n")
        assert main(_manifest_reader_argv(pipeline_dir, command, "1")) == 2
        detail = f"{manifest_path}: clip entries 0 and 1 share the file 'walk_0000.txt'"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
        assert not (pipeline_dir / "r.json").exists() and not (pipeline_dir / "s.jsonl").exists()

    @pytest.mark.parametrize("command", ["filter", "samples"])
    def test_manifest_without_clips_exits_2(self, pipeline_dir, capsys, command):
        # A manifest that lists no clips is empty (exit 3); one without the list is not a clip manifest.
        manifest_path = pipeline_dir / "clips" / "manifest.json"
        manifest_path.write_text(json.dumps({"stage": "segment"}))
        (pipeline_dir / "ok.accepted").write_text("walk_0001\n")
        assert main(_manifest_reader_argv(pipeline_dir, command, "1")) == 2
        detail = f"{manifest_path}: 'clips' must be a list of clip entries"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
        assert not (pipeline_dir / "r.json").exists() and not (pipeline_dir / "s.jsonl").exists()

    @pytest.mark.parametrize("field", ["file", "clip_id", "source_id", "fps", "start_frame", "sha256"])
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

    @pytest.mark.parametrize("text", ["{", '{"clips": [}', "{}\n{}"], ids=["cut", "bad-value", "two-documents"])
    def test_invalid_manifest_json_is_a_parse_error(self, pipeline_dir, capsys, text):
        manifest_path = pipeline_dir / "clips" / "manifest.json"
        manifest_path.write_text(text)
        capsys.readouterr()
        rc = main(
            ["filter", "--clips", str(pipeline_dir / "clips"),
             "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
             "--report", str(pipeline_dir / "report.json"), "--workers", "1"]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["path"]) == ("parse", str(manifest_path))
        assert err["line"] == text.count("\n") + 1
        assert err["detail"].startswith(f"{manifest_path}:{err['line']}: invalid JSON: ")

    @pytest.mark.parametrize(
        "damage", ["cut-mid-row", "missing-rows", "start-frame-beyond-int64", "pose-0-not-identity", "clip-id-line-break"]
    )
    def test_bad_clip_same_error_at_any_worker_count(self, pipeline_dir, capsys, damage):
        clips = pipeline_dir / "clips"
        pose_file = clips / "walk_0002.txt"
        if damage == "cut-mid-row":
            pose_file.write_text(pose_file.read_text().rstrip("\n").rsplit(" ", 1)[0] + "\n")
        elif damage == "missing-rows":
            pose_file.write_text("".join(pose_file.read_text().splitlines(keepends=True)[:-5]))
        elif damage == "pose-0-not-identity":
            lines = pose_file.read_text().splitlines(keepends=True)
            first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            fields = lines[first].split()
            lines[first] = " ".join([fields[0], "1.0", *fields[2:]]) + "\n"  # 1 m off the clip origin
            pose_file.write_text("".join(lines))
        else:
            manifest = json.loads((clips / "manifest.json").read_text())
            if damage == "clip-id-line-break":
                manifest["clips"][2]["clip_id"] = "walk\r0002"  # the manifest check rejects it
            else:
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
        if damage == "pose-0-not-identity":
            detail = f"{clips / 'manifest.json'}: clip entry 2: pose 0 of walk_0002.txt must sit at the local origin"
            assert errors[0] == {"error": "validation", "detail": detail}
        if damage == "clip-id-line-break":
            detail = "clip_id must not hold a line break, got 'walk\\r0002'"
            assert errors[0] == {"error": "validation", "detail": detail}
        assert not (pipeline_dir / "report.json").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["filter", "samples"])
    def test_pose_file_edited_after_segment_exits_2(self, pipeline_dir, capsys, command, workers):
        # Pose 300 moved by 5 m parses and passes every pose check: only the digest the manifest lists catches it.
        clips = pipeline_dir / "clips"
        pose_file = clips / "walk_0001.txt"
        lines = pose_file.read_text().splitlines(keepends=True)
        row = [i for i, line in enumerate(lines) if not line.startswith("#")][300]
        fields = lines[row].split()
        fields[1] = repr(float(fields[1]) + 5.0)
        lines[row] = " ".join(fields) + "\n"
        pose_file.write_text("".join(lines))
        (pipeline_dir / "ok.accepted").write_text("walk_0000\nwalk_0001\n")
        assert main(_manifest_reader_argv(pipeline_dir, command, workers)) == 2
        listed = json.loads((clips / "manifest.json").read_text())["clips"][1]["sha256"]
        found = hashlib.sha256(pose_file.read_bytes()).hexdigest()
        detail = (f"{clips / 'manifest.json'}: clip entry 1: walk_0001.txt has sha256 {found}, "
                  f"the manifest lists {listed}")
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
        assert not (pipeline_dir / "r.json").exists() and not (pipeline_dir / "s.jsonl").exists()

    @pytest.mark.parametrize("command", ["filter", "samples"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("clip_id", ""),
            ("clip_id", "walk\r0002"),
            ("clip_id", "walk\n0002"),
            ("clip_id", "walk/0002"),
            ("clip_id", "walk\x000002"),
            ("clip_id", "walk_0000"),
            ("source_id", ""),
            ("file", ""),
            ("file", "../walk_0000.txt"),
            ("file", "walk_0000.txt"),
            ("fps", 0),
            ("fps", -10.0),
            ("n_frames", 0),
            ("start_frame", -1),
            ("start_frame", 2**63 - 600),
            ("sha256", None),
            ("sha256", "0" * 63),
            ("sha256", "F" * 64),
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
        assert main(_manifest_reader_argv(pipeline_dir, command, "2")) == 2
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

    def test_task_size_does_not_grow_with_detections(self, tmp_path, monkeypatch):
        # The detection table is bound into the task function once per worker; a task is (manifest index, entry).
        assert main(["synth", "--spec", str(synth_spec_doc(tmp_path, landmarks=False)), "--out", str(tmp_path)]) == 0
        clips = tmp_path / "clips"
        assert main(["segment", "--input", str(tmp_path / "walk.txt"), "--fps", "10", "--clip-seconds", "60",
                     "--out", str(clips)]) == 0
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 0.9}
        for name, frames in [("sparse", 1), ("dense", 2400)]:
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(json.dumps({"frame": i, "detections": [box]}) + "\n" for i in range(frames))
            )
        captured = []
        original = cli._map_tasks

        def recording(fn, tasks, workers):
            captured.append(list(tasks))
            return original(fn, tasks, workers)

        monkeypatch.setattr(cli, "_map_tasks", recording)
        for name in ("sparse", "dense"):
            assert main(["filter", "--clips", str(clips), "--detections", str(tmp_path / f"{name}.jsonl"),
                         "--report", str(tmp_path / f"{name}.json"), "--workers", "2"]) == 0
        sparse, dense = captured
        assert len(dense) == 4
        assert not any(isinstance(part, DetectionTable) for task in sparse + dense for part in task)
        assert [len(pickle.dumps(task)) for task in dense] == [len(pickle.dumps(task)) for task in sparse]


class TestSamplesCommand:
    def _run(self, pipeline_dir, out_name="samples.jsonl", workers="1", seed="3", extra=()):
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
                *extra,
            ]
        )
        return rc, out

    def test_manifest_pins_the_samples_file(self, pipeline_dir):
        rc, out = self._run(pipeline_dir)
        assert rc == 0
        manifest = json.loads((pipeline_dir / "samples.jsonl.manifest.json").read_text())
        assert manifest["sha256"] == {"samples": hashlib.sha256(out.read_bytes()).hexdigest()}

    def test_file_equal_at_one_and_two_workers(self, pipeline_dir):
        extra = ("--draws-per-landmark", "30", "--arrival-fraction", "0.3")
        rc1, out1 = self._run(pipeline_dir, "w1.jsonl", workers="1", extra=extra)
        rc2, out2 = self._run(pipeline_dir, "w2.jsonl", workers="2", extra=extra)
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        samples = parse_samples(out1)
        assert len({s.clip_id for s in samples}) > 1
        assert [s.sample_id for s in samples] == sorted(s.sample_id for s in samples)
        manifests = [json.loads((p.parent / f"{p.name}.manifest.json").read_text()) for p in (out1, out2)]
        assert manifests[0]["counts"] == manifests[1]["counts"]
        assert manifests[0]["counts"]["samples"] == len(samples)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_later_clip_leaves_no_samples_file(self, pipeline_dir, capsys, workers):
        rc, _ = self._run(pipeline_dir, "probe.jsonl")  # writes the filter report the run below reads
        assert rc == 0
        # walk_0003 is the last accepted clip in sorted order: the others build before it fails.
        pose_file = pipeline_dir / "clips" / "walk_0003.txt"
        pose_file.write_text("".join(pose_file.read_text().splitlines(keepends=True)[:-5]))
        capsys.readouterr()
        rc, out = self._run(pipeline_dir, workers=workers)
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"
        assert not out.exists()
        assert not (pipeline_dir / f"{out.name}.manifest.json").exists()
        assert not [p.name for p in pipeline_dir.iterdir() if p.name.endswith(".tmp")]

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

    def test_clip_id_holding_a_unicode_line_break(self, tmp_path):
        # filter writes one accepted id per "\n"; the U+2028 inside each id here is no line end.
        traj_id = "a\u2028b"
        assert main(["synth", "--spec", str(synth_spec_doc(tmp_path)), "--out", str(tmp_path)]) == 0
        clips = tmp_path / "clips"
        assert main(["segment", "--input", str(tmp_path / "walk.txt"), "--fps", "10", "--clip-seconds", "60",
                     "--out", str(clips), "--traj-id", traj_id]) == 0
        records = [json.loads(line) for line in (tmp_path / "landmarks.jsonl").read_text().splitlines()]
        for record in records:
            record["clip_id"] = record["clip_id"].replace("walk", traj_id)
        (tmp_path / "landmarks.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
        assert main(["filter", "--clips", str(clips), "--detections", str(tmp_path / "detections.jsonl"),
                     "--report", str(tmp_path / "report.json"), "--world-up=-y", "--workers", "1"]) == 0
        ids = [f"{traj_id}_{k:04d}" for k in range(4)]
        assert (tmp_path / "report.json.accepted").read_bytes() == "".join(f"{i}\n" for i in ids).encode()
        out = tmp_path / "samples.jsonl"
        assert main(["samples", "--clips", str(clips), "--landmarks", str(tmp_path / "landmarks.jsonl"),
                     "--accepted", str(tmp_path / "report.json.accepted"), "--out", str(out),
                     "--world-up=-y", "--workers", "1"]) == 0
        counts = json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())["counts"]
        assert counts["clips_used"] == 4
        assert counts["skipped_landmark_draws"]["rejected_clip"] == 0
        assert {s.clip_id for s in parse_samples(out)} <= set(ids)

    def test_clip_id_with_leading_whitespace(self, tmp_path):
        # The accepted list is matched line for line, as filter writes it: no id is stripped.
        traj_id = " a"
        assert main(["synth", "--spec", str(synth_spec_doc(tmp_path)), "--out", str(tmp_path)]) == 0
        clips = tmp_path / "clips"
        assert main(["segment", "--input", str(tmp_path / "walk.txt"), "--fps", "10", "--clip-seconds", "60",
                     "--out", str(clips), "--traj-id", traj_id]) == 0
        records = [json.loads(line) for line in (tmp_path / "landmarks.jsonl").read_text().splitlines()]
        for record in records:
            record["clip_id"] = record["clip_id"].replace("walk", traj_id)
        (tmp_path / "landmarks.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
        assert main(["filter", "--clips", str(clips), "--detections", str(tmp_path / "detections.jsonl"),
                     "--report", str(tmp_path / "report.json"), "--world-up=-y", "--workers", "1"]) == 0
        ids = [f"{traj_id}_{k:04d}" for k in range(4)]
        assert (tmp_path / "report.json.accepted").read_text() == "".join(f"{i}\n" for i in ids)
        out = tmp_path / "samples.jsonl"
        assert main(["samples", "--clips", str(clips), "--landmarks", str(tmp_path / "landmarks.jsonl"),
                     "--accepted", str(tmp_path / "report.json.accepted"), "--out", str(out),
                     "--world-up=-y", "--workers", "1"]) == 0
        counts = json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())["counts"]
        assert counts["clips_used"] == 4
        assert counts["skipped_landmark_draws"]["rejected_clip"] == 0
        assert {s.clip_id for s in parse_samples(out)} == set(ids)

    def test_task_size_does_not_grow_with_landmarks(self, tmp_path, monkeypatch):
        # The sorted landmarks are bound into the task function once per worker; a task is (index, entry, lo, hi).
        assert main(["synth", "--spec", str(synth_spec_doc(tmp_path, landmarks=False)), "--out", str(tmp_path)]) == 0
        clips = tmp_path / "clips"
        assert main(["segment", "--input", str(tmp_path / "walk.txt"), "--fps", "10", "--clip-seconds", "60",
                     "--out", str(clips)]) == 0
        ids = [f"walk_{k:04d}" for k in range(4)]
        (tmp_path / "accepted").write_text("".join(f"{cid}\n" for cid in ids))
        for name, per_clip in [("few", 1), ("many", 1000)]:
            (tmp_path / f"{name}.jsonl").write_text("".join(
                json.dumps({"clip_id": cid, "goal_frame": 100 + i % 400, "bbox": [0, 0, 10, 10], "name": "kiosk",
                            "instruction": f"go to kiosk {i}"}) + "\n"
                for cid in ids for i in range(per_clip)
            ))
        captured = []
        original = cli._map_tasks

        def recording(fn, tasks, workers):
            captured.append(list(tasks))
            return original(fn, tasks, workers)

        monkeypatch.setattr(cli, "_map_tasks", recording)
        for name in ("few", "many"):
            assert main(["samples", "--clips", str(clips), "--landmarks", str(tmp_path / f"{name}.jsonl"),
                         "--accepted", str(tmp_path / "accepted"), "--out", str(tmp_path / f"{name}.out.jsonl"),
                         "--world-up=-y", "--workers", "2"]) == 0
        few, many = captured
        assert len(many) == 4
        assert not any(b"LandmarkAnnotation" in pickle.dumps(task) for task in few + many)
        # Equal but for the row bounds lo, hi: a pickled int past 255 takes one more byte.
        assert [len(pickle.dumps(task[:-2])) for task in many] == [len(pickle.dumps(task[:-2])) for task in few]
        assert [task[-2:] for task in many] == [(1000 * k, 1000 * k + 1000) for k in range(4)]
        assert [task[-2:] for task in few] == [(k, k + 1) for k in range(4)]

    def test_interleaved_landmark_file_keeps_each_clips_file_order(self, pipeline_dir):
        # Each clip's landmarks keep their file order, and with it their ordinals, however the clips interleave.
        path = pipeline_dir / "synth" / "landmarks.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records = records[1::2] + records[::2][::-1]
        for i, record in enumerate(records):
            record["instruction"] = f"landmark {i}"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        clip_ids = [record["clip_id"] for record in records]
        assert any(a != b for a, b in zip(clip_ids, sorted(clip_ids)))
        extra = ("--draws-per-landmark", "3")
        rc1, out1 = self._run(pipeline_dir, "w1.jsonl", workers="1", extra=extra)
        rc2, out2 = self._run(pipeline_dir, "w2.jsonl", workers="2", extra=extra)
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        in_file_order = collections.defaultdict(list)
        for record in records:
            in_file_order[record["clip_id"]].append(record)
        samples = parse_samples(out1)
        assert len({s.clip_id for s in samples}) > 1
        for sample in samples:
            record = in_file_order[sample.clip_id][int(sample.sample_id.split(":")[-2])]
            assert (sample.instruction, sample.t_g) == (record["instruction"], record["goal_frame"])

    @pytest.mark.parametrize("text, line", [("walk_0000\r\nwalk_0002\r\n", 1), ("walk_0000\n../x\n", 2)])
    def test_accepted_line_that_is_no_clip_id_exits_2(self, pipeline_dir, capsys, text, line):
        accepted = pipeline_dir / "bad.accepted"
        accepted.write_bytes(text.encode())
        out = pipeline_dir / "bad.jsonl"
        rc = main(["samples", "--clips", str(pipeline_dir / "clips"),
                   "--landmarks", str(pipeline_dir / "synth" / "landmarks.jsonl"),
                   "--accepted", str(accepted), "--out", str(out), "--world-up=-y", "--workers", "1"])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "validation"
        assert error["detail"].startswith(f"{accepted}:{line}: accepted clip id ")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("predicted_arrival", 2, {"error": "validation",
                                      "detail": "/dev/stdin:2: predicted_arrival must be in [0, 1], got 2"}),
            ("predicted", [[math.nan, 0]], {"error": "parse", "path": "/dev/stdin", "line": 2, "detail":
             "/dev/stdin:2: PredictionRecord has 'predicted[0]' = [NaN, 0], expected [number, number]"}),
        ],
        ids=["arrival-out-of-range", "nan-waypoint"],
    )
    def test_range_fault_read_from_stdin(self, tmp_path, field, value, error):
        # stdin is read once, as a file is: the faulty line is decoded as parsed, so the message writes 2 as 2.
        good = {"sample_id": "s0", "predicted": [[1.0, 0.0]], "ground_truth": [[1.0, 0.0]]}
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "navcurate.cli", "eval", "--pred", "/dev/stdin", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            input="".join(json.dumps(obj) + "\n" for obj in [good, {**good, field: value}, good]),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [error]
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines",
        [
            ['{"sample_id": "s1", "predicted": [[1, 0]], "ground_truth": [[1, 0]], "predicted_arrival": 2}'],
            ['{"sample_id": "s1", "predicted": [[1, 0]], "ground_truth": [[1, 0]], "predicted_arrival": 1.5}'],
            ['{"sample_id": "s1", "predicted": [[NaN, 0]], "ground_truth": [[1, 0]]}'],
            ['{"sample_id": "s1", "predicted": [[1, 0]], "ground_truth": [[0, Infinity]]}'],
            ['{"sample_id": "s1", "predicted": [[1, 0], [1e400, 0]], "ground_truth": [[1, 0], [2, 0]]}'],
            ['{"sample_id": "s1", "predicted": [[1, 0]], "ground_truth": [[1, 0]], "predicted_arrival": -1}',
             '{"sample_id": true, "predicted": [[1, 0]], "ground_truth": [[1, 0]]}'],
        ],
        ids=["int-arrival", "float-arrival", "nan-waypoint", "infinite-waypoint", "1e400-waypoint", "type-after-range"],
    )
    def test_path_and_stdin_give_the_same_error(self, tmp_path, lines):
        good = '{"sample_id": "s0", "predicted": [[1.0, 0.0]], "ground_truth": [[1.0, 0.0]]}'
        text = "".join(line + "\n" for line in [good, *lines, good])
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text(text)
        outcomes = []
        for pred in (str(pred_path), "/dev/stdin"):
            proc = subprocess.run(
                [sys.executable, "-m", "navcurate.cli", "eval", "--pred", pred, "--out", str(tmp_path / "m.json")],
                env={**os.environ, "PYTHONPATH": str(SRC)}, input=text, capture_output=True, text=True, timeout=60,
            )
            (line,) = proc.stderr.splitlines()
            outcomes.append((proc.returncode, json.loads(line.replace(pred, "PATH"))))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and outcomes[0][1]["detail"].startswith("PATH:2: ")
        assert not (tmp_path / "m.json").exists()

    def test_record_past_max_horizon_exits_2(self, tmp_path, capsys):
        # A record of 100,000 waypoints made eval allocate 149 GiB, or run its Frechet kernel for hours.
        lines = [
            {"sample_id": "s0", "predicted": [[1.0, 0.0]] * 1000, "ground_truth": [[1.0, 0.5]] * 1000},
            {"sample_id": "s1", "predicted": [[1.0, 0.0]] * 1001, "ground_truth": [[1.0, 0.5]] * 1001},
        ]
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "metrics.json"
        assert main(["eval", "--pred", str(pred_path), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "detail": f"{pred_path}:2: predicted must hold at most 1000 waypoints, got 1001"}
        assert not out.exists()

    def test_non_finite_metric_exits_2(self, tmp_path):
        lines = [
            {"sample_id": "s0", "predicted": [[1.0, 0.0]], "ground_truth": [[1.0, 0.0]]},
            {"sample_id": "s1", "predicted": [[1e200, 0.0]], "ground_truth": [[1.0, 0.0]]},
            {"sample_id": "s2", "predicted": [[1e200, 0.0]], "ground_truth": [[1.0, 0.0]]},
        ]
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "metrics.json"
        proc = run_cli("eval", "--pred", str(pred_path), "--out", str(out))
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "validation"
        assert "'s1'" in json.loads(err[0])["detail"]
        assert not out.exists()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPipeInput:
    """An input read from a pipe is read once: its manifest digest covers the bytes the stage read."""

    def test_eval_digests_the_bytes_written(self, tmp_path):
        text = "".join(
            json.dumps({"sample_id": f"s{i}", "predicted": [[1.0, 0.0]], "ground_truth": [[1.0, 0.5]]}) + "\n"
            for i in range(3)
        )
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "navcurate.cli", "eval", "--pred", "/dev/stdin", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, input=text, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["inputs"] == {"predictions": _sha256(text.encode())}

    def test_segment_from_a_pipe_writes_what_a_file_gives(self, tmp_path):
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=130.0, fps=10.0, traj_id="walk"))
        argv = ["--fps", "10", "--clip-seconds", "60", "--traj-id", "walk", "--workers", "1"]
        assert main(["segment", "--input", str(pose_file), "--out", str(tmp_path / "from_file"), *argv]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "navcurate.cli", "segment", "--input", "/dev/stdin",
             "--out", str(tmp_path / "from_pipe"), *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)}, input=pose_file.read_bytes(), capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "from_pipe" / "manifest.json").read_text())
        assert manifest["inputs"] == {"poses": _sha256(pose_file.read_bytes())}
        for name in ("manifest.json", "walk_0000.txt", "walk_0001.txt"):
            assert (tmp_path / "from_pipe" / name).read_bytes() == (tmp_path / "from_file" / name).read_bytes()

    def test_malformed_pose_pipe_fails_as_the_file_does(self, tmp_path):
        text = "0.0 0 0 0 0 0 0 1\n0.1 nope 0 0 0 0 0 1\n"
        pose_file = tmp_path / "walk.txt"
        pose_file.write_text(text)
        outcomes = []
        for source in (str(pose_file), "/dev/stdin"):
            proc = subprocess.run(
                [sys.executable, "-m", "navcurate.cli", "segment", "--input", source, "--fps", "10",
                 "--out", str(tmp_path / "clips")],
                env={**os.environ, "PYTHONPATH": str(SRC)}, input=text, capture_output=True, text=True, timeout=60,
            )
            (line,) = proc.stderr.splitlines()
            outcomes.append((proc.returncode, json.loads(line.replace(source, "PATH"))))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (2, {"error": "parse", "detail": "PATH:2: non-numeric field in '0.1 nope 0 0 0 0 0 1'",
                                   "path": "PATH", "line": 2})


class TestPoseErrorsNameTheirFile:
    """A pose check that fails on a pose file's values names the file; a fault of the id or fps does not."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_filter_names_the_clip_file(self, pipeline_dir, capsys, workers):
        pose_file = pipeline_dir / "clips" / "walk_0002.txt"
        lines = pose_file.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 8
        lines[row] = " ".join(lines[row].split()[:4] + ["0.0"] * 4) + "\n"
        pose_file.write_text("".join(lines))
        capsys.readouterr()
        rc = main(["filter", "--clips", str(pipeline_dir / "clips"),
                   "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                   "--report", str(pipeline_dir / "report.json"), "--workers", workers])
        assert rc == 2
        detail = f"{pose_file}: near-zero quaternion at index 8"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}

    def test_segment_names_the_stream(self, tmp_path, capsys):
        pose_file = tmp_path / "walk.txt"
        pose_file.write_text("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 1\n0.05 0 0 0 0 0 0 1\n")
        assert main(["segment", "--input", str(pose_file), "--fps", "10", "--out", str(tmp_path / "c")]) == 2
        detail = f"{pose_file}: timestamps must be strictly increasing (violated at index 2)"
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}


class TestSymlinkOutput:
    def test_eval_writes_through_a_link(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"sample_id": "s0", "predicted": [[1.0, 0.0]], "ground_truth": [[1.0, 0.0]]}\n')
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("stale")
        link.symlink_to(real)
        assert main(["eval", "--pred", str(pred), "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == real
        assert json.loads(real.read_text())["stage"] == "eval"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pred.jsonl", "real.json"]

    @pytest.mark.parametrize("stage", ["eval", "filter"])
    def test_stdout_link_redirected_to_a_file(self, pipeline_dir, stage):
        # A link to /proc/self/fd/1, as /dev/stdout is, leads to the open file: the report goes into it, and
        # neither the file nor the link is removed.
        link = pipeline_dir / "stdout"
        link.symlink_to("/proc/self/fd/1")
        pred = pipeline_dir / "pred.jsonl"
        pred.write_text('{"sample_id": "s0", "predicted": [[1.0, 0.0]], "ground_truth": [[1.0, 0.0]]}\n')
        argv = {
            "eval": ["eval", "--pred", str(pred), "--out", str(link)],
            "filter": ["filter", "--clips", str(pipeline_dir / "clips"),
                       "--detections", str(pipeline_dir / "synth" / "detections.jsonl"), "--report", str(link),
                       "--accepted", str(pipeline_dir / "accepted.txt"), "--workers", "1"],
        }[stage]
        out = pipeline_dir / "out.json"
        with open(out, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "navcurate.cli", *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
                                  stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["stage"] == stage
        assert os.readlink(link) == "/proc/self/fd/1"
        assert not list(pipeline_dir.glob("out.json?*")) and not list(pipeline_dir.glob(".*.tmp"))


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

    @pytest.mark.parametrize(
        "doc",
        [
            {"pred_waypoints": [[1e200, 0], [2e200, 0]], "gt_waypoints": [[1, 0], [2, 0]]},
            {"pred_waypoints": [[1, 0]], "gt_waypoints": [[4, 0]], "weights": {"lambda_reg": 1e308}},
        ],
        ids=["overflowing-component", "overflowing-total"],
    )
    def test_non_finite_loss_exits_2(self, tmp_path, doc):
        path = tmp_path / "loss.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("loss", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"


def _spoil_line(path, line: int, byte: bytes = b"\xff") -> None:
    """Put a byte that is not UTF-8 into line (1-based) of a file."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:2] + byte + lines[line - 1][2:]
    path.write_bytes(b"".join(lines))


def _reader_argv(root, kind):
    """(input file, a line of it, argv of the stage that reads it) for one input kind of a pipeline_dir."""
    clips, synth = root / "clips", root / "synth"
    report = ["--report", str(root / "report.json"), "--world-up=-y", "--workers", "1"]
    filter_ = ["filter", "--clips", str(clips), "--detections", str(synth / "detections.jsonl"), *report]
    (root / "accepted.txt").write_text("walk_0000\nwalk_0001\nwalk_0002\n")
    samples = ["samples", "--clips", str(clips), "--landmarks", str(synth / "landmarks.jsonl"),
               "--accepted", str(root / "accepted.txt"), "--out", str(root / "samples.jsonl"),
               "--world-up=-y", "--workers", "1"]
    pairs = [[0.0, 0.0], [1.0, 0.0]]
    record = json.dumps({"sample_id": "a", "predicted": pairs, "ground_truth": pairs})
    (root / "pred.jsonl").write_text(f"{record}\n{record}\n")
    (root / "config.json").write_text('{\n  "crowd_count_threshold": 5\n}\n')
    (root / "loss.json").write_text('{\n  "pred_waypoints": [[1, 0]],\n  "gt_waypoints": [[1, 0]]\n}\n')
    (root / "spec.json").write_text(json.dumps(json.loads((root / "spec.json").read_text()), indent=2))
    return {
        "poses": (synth / "walk.txt", 7, ["segment", "--input", str(synth / "walk.txt"), "--fps", "10",
                                          "--clip-seconds", "60", "--out", str(root / "clips2")]),
        "clip-poses": (clips / "walk_0001.txt", 9, filter_),
        "detections": (synth / "detections.jsonl", 5, filter_),
        "manifest": (clips / "manifest.json", 4, filter_),
        "config": (root / "config.json", 2, [*filter_, "--config", str(root / "config.json")]),
        "landmarks": (synth / "landmarks.jsonl", 3, samples),
        "accepted": (root / "accepted.txt", 2, samples),
        "predictions": (root / "pred.jsonl", 2, ["eval", "--pred", str(root / "pred.jsonl"),
                                                 "--out", str(root / "metrics.json")]),
        "spec": (root / "spec.json", 3, ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "s2")]),
        "loss": (root / "loss.json", 3, ["loss", "--input", str(root / "loss.json")]),
    }[kind]


class TestNotUtf8Input:
    """A byte that is not UTF-8 in any input exits 2 as a parse error naming its file and line."""

    @pytest.mark.parametrize(
        "kind",
        ["poses", "clip-poses", "detections", "manifest", "config", "landmarks", "accepted", "predictions", "spec", "loss"],
    )
    def test_exits_2_naming_path_and_line(self, pipeline_dir, capsys, kind):
        path, line, argv = _reader_argv(pipeline_dir, kind)
        _spoil_line(path, line)
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0]) == {
            "error": "parse",
            "detail": f"{path}:{line}: not UTF-8 text: byte 0xff",
            "path": str(path),
            "line": line,
        }

    @pytest.mark.parametrize("byte", [b"\x80", b"\xc3", b"\xed\xa0\x80"], ids=["continuation", "truncated", "surrogate"])
    def test_every_invalid_sequence_is_named(self, tmp_path, capsys, byte):
        path = tmp_path / "pred.jsonl"
        path.write_bytes(b'{"sample_id": "\xc3\xa9", "predicted": [[0, 0]], "ground_truth": [[0, 0]]}\n' * 3)
        _spoil_line(path, 3, byte)
        assert main(["eval", "--pred", str(path), "--out", str(tmp_path / "m.json")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["line"]) == ("parse", 3)
        assert record["detail"].endswith(f"byte 0x{byte[0]:02x}")

    def test_utf8_text_beyond_ascii_is_read(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"sample_id": "caf\u00e9 \u6f22", "predicted": [[0, 0]], "ground_truth": [[1, 0]]}\n',
                        encoding="utf-8")
        assert main(["eval", "--pred", str(path), "--out", str(tmp_path / "m.json")]) == 0


def _nested(depth: int, inner: str = "1.0") -> str:
    return "[" * depth + inner + "]" * depth


class TestNestedJson:
    """A JSON value nested past the recursion limit exits 2 as a parse error naming its file, and a record's line."""

    @pytest.mark.parametrize("kind", ["detections", "landmarks", "predictions"])
    def test_record_line(self, pipeline_dir, capsys, kind):
        path, line, argv = _reader_argv(pipeline_dir, kind)
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = _nested(2000) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        detail = f"{path}:{line}: JSON value nested too deep"
        assert json.loads(err[0]) == {"error": "parse", "detail": detail, "path": str(path), "line": line}

    @pytest.mark.parametrize("kind", ["detections", "landmarks", "predictions"])
    @pytest.mark.parametrize("depth", [900, 990])
    def test_record_value_near_the_limit(self, pipeline_dir, capsys, kind, depth):
        # Read or not by the decoder, the value is named without recursing into it.
        path, line, argv = _reader_argv(pipeline_dir, kind)
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[line - 1])
        record[next(iter(record))] = "DEEP"
        lines[line - 1] = json.dumps(record).replace('"DEEP"', _nested(depth)) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        record = json.loads(err[0])
        assert (record["error"], record["path"], record["line"]) == ("parse", str(path), line)
        assert record["detail"].startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize("kind", ["manifest", "config", "spec", "loss"])
    def test_document(self, pipeline_dir, capsys, kind):
        path, _, argv = _reader_argv(pipeline_dir, kind)
        path.write_text('{"clips": ' + _nested(5000) + "}")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        detail = f"{path}: JSON value nested too deep"
        assert json.loads(err[0]) == {"error": "parse", "detail": detail, "path": str(path), "line": None}
        assert not (pipeline_dir / "s2").exists()


class TestLiteralInConfigError:
    """A number past the float range in a config-type input or a clip manifest is named as written, not as Infinity."""

    def test_loss_input(self, tmp_path, capsys):
        path = tmp_path / "loss.json"
        path.write_text('{"pred_waypoints": [[1e400, 0]], "gt_waypoints": [[1, 0]]}')
        assert main(["loss", "--input", str(path)]) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail == f"{path}: LossInput has 'pred_waypoints[0]' = [1e400, 0], expected [number, number]"

    def test_synth_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"trajectory": {"kind": "straight", "duration_s": 1e400}}')
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail == f"{path}: SynthFile has 'trajectory.duration_s' = 1e400, expected number"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["1e400", "-1.5e999"])
    def test_config_file(self, pipeline_dir, capsys, literal):
        config = pipeline_dir / "filter.json"
        config.write_text(f'{{"pitch_range_max_deg": {literal}}}')
        argv = ["filter", "--clips", str(pipeline_dir / "clips"),
                "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                "--config", str(config), "--report", str(pipeline_dir / "report.json"), "--workers", "1"]
        capsys.readouterr()
        assert main(argv) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail == f"{config}: FilterConfig has 'pitch_range_max_deg' = {literal}, expected number"

    @pytest.mark.parametrize("literal", ["1e400", "-1.5e999"])
    def test_clip_manifest(self, pipeline_dir, capsys, literal):
        manifest_path = pipeline_dir / "clips" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["clips"][1]["fps"] = "FPS"
        manifest_path.write_text(json.dumps(manifest).replace('"FPS"', literal))
        capsys.readouterr()
        rc = main(
            ["filter", "--clips", str(pipeline_dir / "clips"),
             "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
             "--report", str(pipeline_dir / "report.json"), "--workers", "1"]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation", "detail": f"{manifest_path}: clip entry 1 has 'fps' = {literal}, expected number"}

    def test_flag_value_names_no_file(self, pipeline_dir, capsys):
        # Only a value read from the file names the file; a flag's own value is the flag's fault.
        config = pipeline_dir / "filter.json"
        config.write_text('{"divergence_max_deg": 30}')
        argv = ["filter", "--clips", str(pipeline_dir / "clips"),
                "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                "--config", str(config), "--report", str(pipeline_dir / "report.json"), "--workers", "1",
                "--pitch-range-max-deg", "inf"]
        capsys.readouterr()
        assert main(argv) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail == "FilterConfig has 'pitch_range_max_deg' = Infinity, expected number"

    def test_flag_keeps_its_own_value(self, pipeline_dir, capsys):
        # Only the file is decoded again; a flag's infinity is the flag's, and the file's keys merge as before.
        config = pipeline_dir / "filter.json"
        config.write_text('{"pitch_range_max_deg": 1e400, "divergence_max_deg": 30}')
        argv = ["filter", "--clips", str(pipeline_dir / "clips"),
                "--detections", str(pipeline_dir / "synth" / "detections.jsonl"),
                "--config", str(config), "--report", str(pipeline_dir / "report.json"), "--workers", "1",
                "--pitch-range-max-deg", "20"]
        capsys.readouterr()
        assert main(argv) == 0


def _fail_late_or_now(task: int) -> int:
    """Task 0 fails after 0.2 s and task 1 at once; any other task returns itself."""
    if task == 0:
        time.sleep(0.2)
        raise ValueError("task 0")
    if task == 1:
        raise KeyError("task 1")
    return task


class TestWorkersEnv:
    @pytest.mark.parametrize("value", ["0", "-3"], ids=["flag-0", "flag--3"])
    def test_below_one_exits_2(self, tmp_path, capsys, value):
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=60.0, fps=10.0, traj_id="walk"))
        out = tmp_path / "clips"
        argv = ["segment", "--input", str(pose_file), "--fps", "10", "--clip-seconds", "30", "--out", str(out),
                "--workers", value]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "validation"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_tasks_returns_in_task_order(self, workers):
        tasks = list(range(-20, 0))
        assert cli._map_tasks(functools.partial(divmod, 7), tasks, workers) == [divmod(7, t) for t in tasks]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_tasks_error_in_a_task_leaves_no_worker(self, workers):
        with pytest.raises(ZeroDivisionError):
            cli._map_tasks(functools.partial(divmod, 7), [1, 2, 0, 3, 4, 5, 6, 7, 8, 9], workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_tasks_raises_the_first_failure_in_task_order(self, workers):
        # Task 1 fails first in time, but task 0's error is the one raised, at any worker count.
        with pytest.raises(ValueError, match="task 0"):
            cli._map_tasks(_fail_late_or_now, list(range(6)), workers)
        assert multiprocessing.active_children() == []

    def test_pool_capped_at_task_count(self, monkeypatch):
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records max_workers and runs each call inline."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(cli, "_fn", None)  # the inline initializer sets it in this process
        # _map_tasks imports the pool class from concurrent.futures only when it pools.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert cli._map_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert cli._map_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert started == [3, 2]



class TestExitCodes:
    @pytest.mark.parametrize(
        "error, kind, code",
        [
            (navcurate.ParseError("bad line"), "parse", 2),
            (navcurate.ValidationError("bad value"), "validation", 2),
            (navcurate.SchemaError("bad type"), "validation", 2),
            (navcurate.EmptyResult("no records"), "empty", 3),
            (OSError("no disk"), "io", 4),
        ],
        ids=["ParseError", "ValidationError", "SchemaError", "EmptyResult", "OSError"],
    )
    def test_each_error_class_maps_to_its_kind(self, capsys, monkeypatch, error, kind, code):
        # main catches one class per error kind; SchemaError is the one subclass, a ValidationError.
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_loss", fail)
        assert main(["loss", "--input", "unused.json"]) == code
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["detail"]) == (kind, str(error))


class TestArgumentErrors:
    """A bad or missing argument exits 2 with one JSON line, as every other error does."""

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["filter", "--clips", "c", "--detections", "d.jsonl", "--report", "r.json", "--workers", "abc"],
             "argument --workers: invalid int value: 'abc'"),
            (["segment", "--input", "walk.txt", "--out", "clips"], "the following arguments are required: --fps"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
        ],
        ids=["bad-workers", "missing-flag", "unknown-subcommand"],
    )
    def test_exits_2_with_one_json_line(self, capsys, argv, detail):
        # argparse's message is the detail; how it lists the choices differs across Python versions.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        record = json.loads(line)
        assert list(record) == ["error", "detail"] and record["error"] == "validation"
        assert record["detail"].startswith(detail)

    @pytest.mark.parametrize("argv, start", [(["--help"], "usage: navcurate "), (["--version"], "navcurate ")])
    def test_help_and_version_print_and_exit_0(self, capsys, argv, start):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(start) and captured.err == ""


class TestOneReadPerInput:
    """Each input is opened once, and its manifest digest covers the bytes the stage parsed."""

    @pytest.mark.parametrize("suffix, compress", [(".gz", gzip.compress), (".bz2", bz2.compress),
                                                  (".xz", lzma.compress)])
    def test_compressed_pose_file_is_a_parse_error(self, tmp_path, suffix, compress):
        # np.loadtxt decompresses a path by its suffix; the stage reads the bytes, as it does from a pipe.
        pose_file = tmp_path / "walk.txt"
        write_traj(pose_file, SynthSpec("straight", duration_s=130.0, fps=10.0, traj_id="walk"))
        data = compress(pose_file.read_bytes())
        packed = tmp_path / f"walk.txt{suffix}"
        packed.write_bytes(data)
        outcomes = []
        for source, out in ((str(packed), "from_file"), ("/dev/stdin", "from_pipe")):
            proc = subprocess.run(
                [sys.executable, "-m", "navcurate.cli", "segment", "--input", source, "--fps", "10",
                 "--clip-seconds", "60", "--out", str(tmp_path / out), "--workers", "1"],
                env={**os.environ, "PYTHONPATH": str(SRC)}, input=data, capture_output=True, timeout=60,
            )
            (line,) = proc.stderr.decode().splitlines()
            outcomes.append((proc.returncode, json.loads(line.replace(source, "PATH"))))
            assert not (tmp_path / out / "manifest.json").exists()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and outcomes[0][1]["error"] == "parse"

    @pytest.mark.parametrize(
        "stage, parser, source, role, manifest",
        [("segment", "parse_pose_file", "synth/walk.txt", "poses", "clips/manifest.json"),
         ("filter", "parse_detections", "synth/detections.jsonl", "detections", "report.json")],
    )
    def test_digest_is_of_the_parsed_bytes(self, tmp_path, monkeypatch, stage, parser, source, role, manifest):
        synth_spec_doc(tmp_path)
        argv = _chain_argv(tmp_path)
        for before in ("synth", "segment") if stage == "filter" else ("synth",):
            assert main(argv[before]) == 0
        path = tmp_path / source
        parsed = path.read_bytes()
        original = getattr(navcurate.io, parser)

        def parse_then_replace(*args, **kwargs):
            result = original(*args, **kwargs)
            path.write_bytes(parsed + b"# appended after the parse\n")
            return result

        monkeypatch.setattr(navcurate.io, parser, parse_then_replace)
        assert main(argv[stage]) == 0
        assert path.read_bytes() != parsed
        assert json.loads((tmp_path / manifest).read_text())["inputs"][role] == _sha256(parsed)

    def test_a_stage_keeps_no_digest_of_an_earlier_read(self, tmp_path, capsys):
        path = tmp_path / "ids.txt"
        path.write_text("a\n")
        navcurate.io.read_text(path)
        path.write_text("b\n")
        assert navcurate.io.file_digest(path) == _sha256(b"a\n")  # the digest of the read, not of the file now
        assert main(["filter", "--workers", "abc"]) == 2
        capsys.readouterr()
        assert navcurate.io.file_digest(path) == _sha256(b"b\n")

    def test_each_stage_opens_each_input_once(self, tmp_path):
        synth_spec_doc(tmp_path)
        argv = _chain_argv(tmp_path)
        write_predictions([PredictionRecord("s0", ((1.0, 0.0),), ((1.0, 0.5),))], tmp_path / "pred.jsonl")
        argv["eval"] = ["eval", "--pred", str(tmp_path / "pred.jsonl"), "--out", str(tmp_path / "metrics.json")]
        (tmp_path / "loss.json").write_text('{"pred_waypoints": [[1.0, 0.0]], "gt_waypoints": [[1.0, 0.5]]}')
        argv["loss"] = ["loss", "--input", str(tmp_path / "loss.json")]
        clips = [str(tmp_path / "clips" / f"walk_{k:04d}.txt") for k in range(4)]
        inputs = {
            "synth": [str(tmp_path / "spec.json")],
            "segment": [str(tmp_path / "synth" / "walk.txt")],
            "filter": [str(tmp_path / "clips" / "manifest.json"), str(tmp_path / "synth" / "detections.jsonl"),
                       *clips],
            "samples": [str(tmp_path / "clips" / "manifest.json"), str(tmp_path / "synth" / "landmarks.jsonl"),
                        str(tmp_path / "report.json.accepted")],
            "eval": [str(tmp_path / "pred.jsonl")],
            "loss": [str(tmp_path / "loss.json")],
        }
        for stage, stage_argv in argv.items():
            with _counting_opens() as opened:
                assert main(stage_argv) == 0, stage
            assert {path: opened[path] for path in inputs[stage]} == dict.fromkeys(inputs[stage], 1), stage
            if stage == "samples":  # it reads only the accepted clips that have landmarks, each once too
                assert max(opened[path] for path in clips) == 1


def _write_stream(path, x, fps: float = 10.0) -> None:
    """A pose file of level poses at the positions x along the x axis, one per frame, named for its stem."""
    positions = np.zeros((len(x), 3))
    positions[:, 0] = x
    quaternions = np.tile([0.0, 0.0, 0.0, 1.0], (len(x), 1))
    write_pose_file(RawTrajectory(path.stem, fps, np.arange(len(x)) / fps, positions, quaternions), path)


class TestOverflowingValues:
    """A value whose arithmetic overflows exits with its documented code and one JSON line, no traceback or warning."""

    @staticmethod
    def _check(proc, rc: int, error: str | None = None) -> dict | None:
        assert proc.returncode == rc, proc.stderr
        if rc == 0:
            assert proc.stderr == ""
            return None
        [line] = proc.stderr.splitlines()
        record = json.loads(line)
        assert record["error"] == error
        return record

    @pytest.mark.parametrize("flags", [["--fps", "10", "--clip-seconds", "1e308"], ["--fps", "1e308"]],
                             ids=["clip-seconds", "fps"])
    def test_segment_window_past_any_stream_is_empty(self, tmp_path, flags):
        _write_stream(tmp_path / "walk.txt", np.zeros(20), float(flags[1]))  # timestamps at the --fps given
        proc = run_cli("segment", "--input", str(tmp_path / "walk.txt"), *flags, "--out", str(tmp_path / "c"))
        self._check(proc, 3, "empty")

    @pytest.mark.parametrize(
        "doc, rc, error",
        [
            ({"trajectory": {"kind": "straight", "speed_mps": 1e308}}, 2, "validation"),
            ({"trajectory": {"kind": "arc", "yaw_rate_dps": 1e308}}, 2, "validation"),
            ({"trajectory": {"kind": "head_turn", "turn_deg": 30.0, "turn_len_s": 1e-320}}, 0, None),
            ({"trajectory": {"kind": "straight"}, "landmarks": {"clip_seconds": 1e308}}, 3, "empty"),
        ],
        ids=["speed", "yaw-rate", "subnormal-turn", "landmark-clip-seconds"],
    )
    def test_synth(self, tmp_path, doc, rc, error):
        doc["trajectory"].update(duration_s=2.0, fps=10.0)
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        self._check(run_cli("synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out")), rc, error)

    def test_segment_of_a_stream_whose_clip_positions_overflow(self, tmp_path):
        _write_stream(tmp_path / "walk.txt", [1e308, -1e308] * 10)
        proc = run_cli("segment", "--input", str(tmp_path / "walk.txt"), "--fps", "10", "--clip-seconds", "1",
                       "--out", str(tmp_path / "c"), "--workers", "1")
        self._check(proc, 2, "validation")

    @pytest.fixture
    def clips(self, tmp_path):
        """Two clips of 20 poses at 10 fps whose positions alternate between 1e308 and -1e308 after pose 0."""
        # Each clip's pose 0 is the origin, so segment re-anchors nothing and writes the clips as they are.
        _write_stream(tmp_path / "walk.txt", ([0.0] + [1e308, -1e308] * 9 + [1e308]) * 2)
        assert main(["segment", "--input", str(tmp_path / "walk.txt"), "--fps", "10", "--clip-seconds", "2",
                     "--out", str(tmp_path / "clips")]) == 0
        (tmp_path / "d.jsonl").write_text("")
        return tmp_path

    @pytest.mark.parametrize("world_up", ["-y", "+z"])
    def test_filter_of_clips_whose_window_displacement_overflows(self, clips, world_up):
        proc = run_cli("filter", "--clips", str(clips / "clips"), "--detections", str(clips / "d.jsonl"),
                       "--report", str(clips / "r.json"), f"--world-up={world_up}", "--workers", "1")
        record = self._check(proc, 2, "validation")
        assert record["detail"] == "clip 'walk_0000' has a non-finite window displacement: its positions overflow"
        assert not (clips / "r.json").exists() and not (clips / "r.json.accepted").exists()

    @pytest.mark.parametrize("history_len", ["1" + "0" * 30, "1000000000000", "10001", "10000"])
    def test_samples_history_is_bounded(self, pipeline_dir, history_len):
        # np.arange over the history frames raised "Maximum allowed size exceeded" or a 7 TiB allocation error.
        (pipeline_dir / "ok.accepted").write_text("walk_0000\nwalk_0001\n")
        argv = _manifest_reader_argv(pipeline_dir, "samples", "1")
        proc = run_cli(*argv, "--world-up=-y", "--history-len", history_len)
        if history_len == "10000":
            self._check(proc, 0)
            samples = parse_samples(pipeline_dir / "s.jsonl")
            assert samples and all(len(s.history_frames) == 10000 for s in samples)
        else:
            record = self._check(proc, 2, "validation")
            assert record["detail"] == f"history_len must be at most 10000 frames, got {history_len}"
            assert not (pipeline_dir / "s.jsonl").exists()

    @pytest.mark.parametrize("horizon", ["1001", "1000"])
    def test_samples_horizon_is_bounded(self, pipeline_dir, capsys, horizon):
        # eval's Frechet kernel takes (k + 1)^2 steps per batch: samples wrote records of any horizon for it.
        (pipeline_dir / "ok.accepted").write_text("walk_0000\nwalk_0001\n")
        argv = _manifest_reader_argv(pipeline_dir, "samples", "1")
        rc = main([*argv, "--world-up=-y", "--horizon", horizon])
        err = capsys.readouterr().err
        if horizon == "1000":
            # 1000 passes the bound; a 600-frame clip holds no 1000-waypoint horizon, so no sample is drawn.
            assert (rc, json.loads(err)["error"]) == (3, "empty")
        else:
            assert rc == 2
            assert json.loads(err) == {"error": "validation", "detail": "horizon must be at most 1000 waypoints, got 1001"}
            assert not (pipeline_dir / "s.jsonl").exists() and not (pipeline_dir / "s.jsonl.manifest.json").exists()

    @pytest.mark.parametrize("draws", ["1" + "0" * 20, "10001"])
    def test_samples_draws_are_bounded(self, pipeline_dir, draws):
        # The draw loop ran until the stage was killed, its list of starts growing.
        (pipeline_dir / "ok.accepted").write_text("walk_0000\nwalk_0001\n")
        argv = _manifest_reader_argv(pipeline_dir, "samples", "1")
        record = self._check(run_cli(*argv, "--world-up=-y", "--draws-per-landmark", draws), 2, "validation")
        assert record["detail"] == f"draws_per_landmark must be at most 10000, got {draws}"
        assert not (pipeline_dir / "s.jsonl").exists() and not (pipeline_dir / "s.jsonl.manifest.json").exists()

    def test_filter_window_past_any_clip_fails_divergence(self, pipeline_dir):
        proc = run_cli("filter", "--clips", str(pipeline_dir / "clips"), "--detections",
                       str(pipeline_dir / "synth" / "detections.jsonl"), "--report", str(pipeline_dir / "r.json"),
                       "--world-up=-y", "--window-seconds", "1e308")
        self._check(proc, 0)
        report = json.loads((pipeline_dir / "r.json").read_text())
        verdicts = report["verdicts"]
        assert verdicts and all(v["diagnostics"]["max_divergence_deg"] is None for v in verdicts)
        assert all("view_divergence" in v["reasons"] for v in verdicts)


# The opens of each path seen by the audit hook while a _counting_opens block runs; None outside one.
_opens: "collections.Counter | None" = None


def _audit_open(event, args):
    if event == "open" and _opens is not None and isinstance(args[0], (str, os.PathLike)):
        _opens[os.path.abspath(args[0])] += 1


@contextlib.contextmanager
def _counting_opens():
    """A Counter of the files opened in this process, by absolute path, while the block runs (an audit hook sees every open)."""
    global _opens
    if not getattr(_counting_opens, "hooked", False):
        sys.addaudithook(_audit_open)  # a hook cannot be removed; outside a block it does nothing
        _counting_opens.hooked = True
    _opens = collections.Counter()
    try:
        yield _opens
    finally:
        _opens = None
