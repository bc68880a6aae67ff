"""Fuzzed CLI inputs: every input maps to exit code 0, 2, 3 or 4, with one JSON error line.

Each example takes a valid input of one subcommand (a detection, landmark
or prediction file, a ``loss`` document or a clip-manifest entry), replaces
one JSON value anywhere in it with a value from a small pool of wrong types,
or deletes it, and runs ``cli.main`` in this process on a tiny synthetic
fixture. The ``segment`` pose file gets one broken row instead.
"""

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcurate.cli import main
from navcurate.errors import ValidationError
from navcurate.io import PredictionRecord, TrainingSample

from oracles import EgoWaypoint


class _Missing:
    def __repr__(self):
        return "<missing>"


MISSING = _Missing()
POOL = [True, "5", None, [[1]], 10**400, math.nan, MISSING]


def _sites(value, path=()):
    """The key path of every JSON value inside value, value itself included."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from _sites(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _sites(item, path + (index,))


def _replaced(doc, path, new):
    """doc with the value at path set to new, or removed when new is MISSING; the root cannot be removed."""
    if not path:
        return None if new is MISSING else new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """synth -> segment -> filter on two 100-frame clips, plus a prediction file and a loss document.

    Every unmutated input runs to exit code 0, so a mutation can reach the stage past parsing.
    """
    root = tmp_path_factory.mktemp("fuzz")
    spec = {
        "trajectory": {"kind": "straight", "duration_s": 40.0, "fps": 5.0, "traj_id": "walk"},
        "detections": {"schedule": [1, 0, 2]},
        "landmarks": {"clip_seconds": 20.0, "per_clip": 2, "seed": 3},
    }
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "synth")]) == 0
    segment = ["segment", "--input", str(root / "synth" / "walk.txt"), "--fps", "5", "--clip-seconds", "20"]
    assert main([*segment, "--out", str(root / "clips")]) == 0
    filter_ = ["filter", "--clips", str(root / "clips"), "--detections", str(root / "synth" / "detections.jsonl")]
    assert main([*filter_, "--report", str(root / "report.json"), "--world-up=-y", "--workers", "1"]) == 0
    pairs = [[0.4, 0.0], [0.8, 0.1], [1.2, 0.1]]
    predictions = [
        {"sample_id": "a", "predicted": pairs, "ground_truth": pairs[::-1], "predicted_arrival": 0.7, "arrival_label": True},
        {"sample_id": "b", "predicted": pairs[:1], "ground_truth": [[0.0, 0.0]]},
    ]
    (root / "pred.jsonl").write_text("".join(json.dumps(r) + "\n" for r in predictions))
    loss = {
        "pred_waypoints": pairs,
        "gt_waypoints": pairs[::-1],
        "arrival_logit": 0.5,
        "arrival_label": 1,
        "pred_features": [[0.5, -0.5]],
        "gt_features": [[0.0, 0.0]],
        "weights": {"lambda_reg": 2.0},
    }
    (root / "loss.json").write_text(json.dumps(loss))
    samples = ["samples", "--clips", str(root / "clips"), "--landmarks", str(root / "synth" / "landmarks.jsonl")]
    samples += ["--accepted", str(root / "report.json.accepted"), "--world-up=-y", "--workers", "1"]
    assert _run([*samples, "--out", str(root / "samples.jsonl")]) == (0, "")
    assert _run(["eval", "--pred", str(root / "pred.jsonl"), "--out", str(root / "metrics.json")]) == (0, "")
    assert _run(["loss", "--input", str(root / "loss.json")]) == (0, "")
    return root


def _lines(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def _mutated_run(root, kind, data) -> tuple[int, str]:
    """Mutate one value of the kind's valid input, write it under a fresh directory and run its subcommand."""
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root / "clips", work / "clips")
    clips, report, out = str(work / "clips"), str(work / "report.json"), str(work / "out")
    detections, landmarks = str(root / "synth" / "detections.jsonl"), str(root / "synth" / "landmarks.jsonl")
    if kind == "manifest":
        manifest = json.loads((work / "clips" / "manifest.json").read_text())
        path = data.draw(st.sampled_from([("clips", *p) for p in _sites(manifest["clips"]) if p]))
        mutated = _replaced(manifest, path, data.draw(st.sampled_from(POOL)))
        (work / "clips" / "manifest.json").write_text(json.dumps(mutated))
        return _run(["filter", "--clips", clips, "--detections", detections, "--report", report, "--world-up=-y", "--workers", "1"])
    if kind == "loss":
        doc = json.loads((root / "loss.json").read_text())
        mutated = _replaced(doc, data.draw(st.sampled_from(list(_sites(doc)))), data.draw(st.sampled_from(POOL)))
        (work / "loss.json").write_text(json.dumps(mutated))
        return _run(["loss", "--input", str(work / "loss.json")])
    records = _lines({"detections": detections, "landmarks": landmarks, "predictions": root / "pred.jsonl"}[kind])
    line = data.draw(st.sampled_from(range(len(records))))
    records[line] = _replaced(records[line], data.draw(st.sampled_from(list(_sites(records[line])))), data.draw(st.sampled_from(POOL)))
    mutated = work / "input.jsonl"
    mutated.write_text("".join(json.dumps(r) + "\n" for r in records))
    if kind == "detections":
        return _run(["filter", "--clips", clips, "--detections", str(mutated), "--report", report, "--world-up=-y", "--workers", "1"])
    if kind == "landmarks":
        accepted = str(root / "report.json.accepted")
        return _run(["samples", "--clips", clips, "--landmarks", str(mutated), "--accepted", accepted, "--out", out, "--world-up=-y", "--workers", "1"])
    return _run(["eval", "--pred", str(mutated), "--out", out])


@pytest.mark.parametrize("kind", ["detections", "landmarks", "predictions", "loss", "manifest"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_with_documented_code(fixture, kind, data):
    rc, err = _mutated_run(fixture, kind, data)
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) >= {"error", "detail"}


POSE_MUTATIONS = ["non-numeric", "nan", "seven-fields", "repeated-timestamp", "zero-quaternion"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_broken_pose_row_exits_2(fixture, data):
    lines = (fixture / "synth" / "walk.txt").read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = data.draw(st.sampled_from(rows))
    fields = lines[row].split()
    mutation = data.draw(st.sampled_from(POSE_MUTATIONS))
    if mutation in ("non-numeric", "nan"):
        fields[data.draw(st.integers(0, 7))] = "x1" if mutation == "non-numeric" else "nan"
    elif mutation == "seven-fields":
        del fields[data.draw(st.integers(0, 7))]
    elif mutation == "repeated-timestamp":
        neighbour = rows[1] if row == rows[0] else rows[rows.index(row) - 1]
        fields[0] = lines[neighbour].split()[0]
    else:
        fields[4:8] = ["0", "0", "0", "0"]
    lines[row] = " ".join(fields) + "\n"
    work = fixture / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / "walk.txt").write_text("".join(lines))
    rc, err = _run(["segment", "--input", str(work / "walk.txt"), "--fps", "5", "--clip-seconds", "20",
                    "--out", str(work / "clips"), "--workers", "1"])
    assert rc == 2, (mutation, err)
    err_lines = err.splitlines()
    assert len(err_lines) == 1, err
    assert set(json.loads(err_lines[0])) >= {"error", "detail"}
    assert not (work / "clips" / "manifest.json").exists()


GOOD = ((1.0, 0.0), (2.0, 0.5))


@pytest.mark.parametrize(
    "waypoint",
    [(math.nan, 0.0), EgoWaypoint(0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf), (1.0, 2.0, 3.0), (10**400, 0.0)],
    ids=["nan", "nan-ego-waypoint", "infinity", "minus-infinity", "three-components", "beyond-float"],
)
def test_record_rejects_bad_waypoint(waypoint):
    bad = (GOOD[0], waypoint)
    with pytest.raises(ValidationError, match=r"predicted\[1\]"):
        PredictionRecord("s", bad, GOOD)
    with pytest.raises(ValidationError, match=r"ground_truth\[1\]"):
        PredictionRecord("s", GOOD, bad)
    with pytest.raises(ValidationError, match=r"waypoints\[1\]"):
        TrainingSample("s", "c", "go", 0, 9, (0,), bad, False)
