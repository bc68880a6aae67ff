"""Fuzzed CLI inputs: every input maps to exit code 0, 2, 3 or 4, with one JSON error line.

Each example takes a valid input of one subcommand (a detection, landmark
or prediction file, a ``loss`` document, a clip-manifest entry or a
``synth`` spec), replaces one JSON value anywhere in it with a value from
a small pool of wrong types, huge, tiny or non-finite numbers (``1e308``,
``5e-324`` and ``1e400`` among them), a string holding NUL, the relative
name ``../x`` and a list nested 2,000 deep, or deletes it, and runs
``cli.main`` in this process on a tiny synthetic fixture; no run writes a
file beside its named outputs. The ``segment`` pose file gets one broken row instead,
and then an edge of the subset of pose text that orjson reads on another row (a tab,
a ``\r``, a ``+1`` or an int token), which sends the file to np.loadtxt: the error stays the same.
A byte-level mutation puts one byte that is not UTF-8 anywhere into any
input file, which must fail as a parse error naming that byte's line.
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

from navcurate import io as tio
from navcurate.cli import main
from navcurate.errors import ValidationError
from navcurate.io import PredictionRecord, TrainingSample

from oracles import EgoWaypoint


class _Missing:
    def __repr__(self):
        return "<missing>"


MISSING = _Missing()
# Written as the literal 1e400, a number past the float range that json reads as inf.
HUGE_FLOAT = "\x00 1e400"
# Written as a list nested 2,000 deep, past the recursion limit of json (and of json.dumps, hence the raw text).
DEEP_LIST = "\x00 deep"
POOL = [True, "5", None, [[1]], 10**400, 1e308, 5e-324, math.nan, HUGE_FLOAT, MISSING, "a\x00b", "../x", DEEP_LIST]


def _dumps(doc) -> str:
    text = json.dumps(doc).replace(json.dumps(HUGE_FLOAT), "1e400")
    return text.replace(json.dumps(DEEP_LIST), "[" * 2000 + "]" * 2000)


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


# A composite stream with spans, a schedule (which takes precedence, until a mutation removes it) and landmarks.
SYNTH_SPEC = {
    "trajectory": {
        "kind": "composite",
        "traj_id": "fuzz",
        "parts": [
            {"kind": "straight", "duration_s": 4.0, "fps": 5.0},
            {"kind": "head_turn", "duration_s": 4.0, "fps": 5.0, "turn_deg": 30.0, "turn_start_s": 1.0, "turn_len_s": 2.0},
        ],
    },
    "detections": {"schedule": [1, 0, 2], "spans": [{"start": 2, "frames": 3, "count": 4}, {"start": 30, "frames": 20, "count": 1}]},
    "landmarks": {"clip_seconds": 4.0, "per_clip": 2, "seed": 3},
}


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
    (root / "synth.json").write_text(json.dumps(SYNTH_SPEC))
    assert _run(["synth", "--spec", str(root / "synth.json"), "--out", str(root / "synth-fuzz")]) == (0, "")
    return root


def _lines(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


# The inputs _mutated_run writes into its work directory, and the outputs its runs name.
WORK_NAMES = {"clips", "input.jsonl", "loss.json", "synth.json", "synth", "report.json", "report.json.accepted", "out",
              "out.manifest.json"}


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
        (work / "clips" / "manifest.json").write_text(_dumps(mutated))
        return _run(["filter", "--clips", clips, "--detections", detections, "--report", report, "--world-up=-y", "--workers", "1"])
    if kind in ("loss", "synth"):
        doc = json.loads((root / f"{kind}.json").read_text())
        mutated = _replaced(doc, data.draw(st.sampled_from(list(_sites(doc)))), data.draw(st.sampled_from(POOL)))
        (work / f"{kind}.json").write_text(_dumps(mutated))
        if kind == "synth":
            return _run(["synth", "--spec", str(work / "synth.json"), "--out", str(work / "synth")])
        return _run(["loss", "--input", str(work / "loss.json")])
    records = _lines({"detections": detections, "landmarks": landmarks, "predictions": root / "pred.jsonl"}[kind])
    line = data.draw(st.sampled_from(range(len(records))))
    records[line] = _replaced(records[line], data.draw(st.sampled_from(list(_sites(records[line])))), data.draw(st.sampled_from(POOL)))
    mutated = work / "input.jsonl"
    mutated.write_text("".join(_dumps(r) + "\n" for r in records))
    if kind == "detections":
        return _run(["filter", "--clips", clips, "--detections", str(mutated), "--report", report, "--world-up=-y", "--workers", "1"])
    if kind == "landmarks":
        accepted = str(root / "report.json.accepted")
        return _run(["samples", "--clips", clips, "--landmarks", str(mutated), "--accepted", accepted, "--out", out, "--world-up=-y", "--workers", "1"])
    return _run(["eval", "--pred", str(mutated), "--out", out])


@pytest.mark.parametrize("kind", ["detections", "landmarks", "predictions", "loss", "manifest", "synth"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_with_documented_code(fixture, kind, data):
    rc, err = _mutated_run(fixture, kind, data)
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) >= {"error", "detail"}
    # An output goes only where its flag points: a mutated id or file name writes nothing beside it.
    assert {p.name for p in (fixture / "work").iterdir()} <= WORK_NAMES


POSE_MUTATIONS = ["non-numeric", "nan", "1e400", "seven-fields", "repeated-timestamp", "zero-quaternion"]
# Ways to write a row that np.loadtxt reads to the same poses and the orjson subset does not take (or, for
# long-mantissa, takes): field, separator and line-end edges, and lines added after the last row.
POSE_FIELD_EDGES = {
    "plus": lambda f: "+" + f if f[0] != "-" else None,
    "leading-dot": lambda f: f.replace("0.", ".", 1) if f.lstrip("-").startswith("0.") else None,
    "trailing-dot": lambda f: f[:-1] if f.endswith(".0") else None,
    "leading-zero": lambda f: f.replace(f.lstrip("-"), "0" + f.lstrip("-")),
    "int-token": lambda f: f[:-2] if f.endswith(".0") else None,
    "minus-zero": lambda f: "-0" if f == "0.0" else None,
    "long-mantissa": lambda f: f"{float(f):.25e}",
}
POSE_LINE_EDGES = {
    "tab": lambda line: line.replace(" ", "\t", 1),
    "double-space": lambda line: line.replace(" ", "  ", 1),
    "crlf": lambda line: line.replace("\n", "\r\n"),
    "lone-cr": lambda line: line.replace("\n", "\r"),
    "inline-comment": lambda line: line.replace("\n", " # note\n"),
}
POSE_TAILS = {"blank-line": "\n", "comment-line": "# note\n", "no-final-newline": None}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_broken_pose_row_exits_2(fixture, data):
    lines = (fixture / "synth" / "walk.txt").read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = data.draw(st.sampled_from(rows))
    fields = lines[row].split()
    mutation = data.draw(st.sampled_from(POSE_MUTATIONS))
    if mutation in ("non-numeric", "nan", "1e400"):
        fields[data.draw(st.integers(0, 7))] = {"non-numeric": "x1", "nan": "nan", "1e400": "1e400"}[mutation]
    elif mutation == "seven-fields":
        del fields[data.draw(st.integers(0, 7))]
    elif mutation == "repeated-timestamp":
        neighbour = rows[1] if row == rows[0] else rows[rows.index(row) - 1]
        fields[0] = lines[neighbour].split()[0]
    else:
        fields[4:8] = ["0", "0", "0", "0"]
    lines[row] = " ".join(fields) + "\n"
    # One edge on another row sends the file from the orjson subset to np.loadtxt: the error is the same.
    edge = data.draw(st.sampled_from([*POSE_FIELD_EDGES, *POSE_LINE_EDGES, *POSE_TAILS]))
    edged = list(lines)
    other = data.draw(st.sampled_from([i for i in rows if i != row]))
    if edge in POSE_FIELD_EDGES:
        other_fields = edged[other].split()
        i = data.draw(st.integers(0, 7))
        other_fields[i] = POSE_FIELD_EDGES[edge](other_fields[i]) or other_fields[i]
        edged[other] = " ".join(other_fields) + "\n"
    elif edge in POSE_LINE_EDGES:
        edged[other] = POSE_LINE_EDGES[edge](edged[other])
    elif POSE_TAILS[edge] is None:
        edged[-1] = edged[-1].rstrip("\n")
    else:
        edged.append(POSE_TAILS[edge])
    work = fixture / "work"
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tio, "READ_BYTES", data.draw(st.integers(16, 4096)))  # blocks straddle lines
        for text in (lines, edged):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            (work / "walk.txt").write_text("".join(text), newline="")
            runs.append(_run(["segment", "--input", str(work / "walk.txt"), "--fps", "5", "--clip-seconds", "20",
                              "--out", str(work / "clips"), "--workers", "1"]))
            assert not (work / "clips" / "manifest.json").exists()
    rc, err = runs[0]
    assert rc == 2, (mutation, err)
    err_lines = err.splitlines()
    assert len(err_lines) == 1, err
    assert set(json.loads(err_lines[0])) >= {"error", "detail"}
    assert runs[1] == runs[0], (mutation, edge)


def _byte_run(root, kind, work) -> tuple[int, str, Path]:
    """Copy the kind's valid input into work and return (argv, the copied file) that reads it."""
    shutil.copytree(root / "clips", work / "clips")
    clips, synth = work / "clips", root / "synth"
    source = {"poses": synth / "walk.txt", "clip-poses": clips / "walk_0001.txt", "manifest": clips / "manifest.json",
              "detections": synth / "detections.jsonl", "landmarks": synth / "landmarks.jsonl",
              "accepted": root / "report.json.accepted", "predictions": root / "pred.jsonl",
              "loss": root / "loss.json", "synth": root / "synth.json"}[kind]
    path = source if source.parent == clips else work / source.name
    if path != source:
        shutil.copy(source, path)
    detections = str(path if kind == "detections" else synth / "detections.jsonl")
    filter_ = ["filter", "--clips", str(clips), "--detections", detections, "--report", str(work / "report.json"),
               "--world-up=-y", "--workers", "1"]
    landmarks = str(path if kind == "landmarks" else synth / "landmarks.jsonl")
    accepted = str(path if kind == "accepted" else root / "report.json.accepted")
    samples = ["samples", "--clips", str(clips), "--landmarks", landmarks, "--accepted", accepted,
               "--out", str(work / "out"), "--world-up=-y", "--workers", "1"]
    argv = {
        "poses": ["segment", "--input", str(path), "--fps", "5", "--clip-seconds", "20", "--out", str(work / "c2"),
                  "--workers", "1"],
        "clip-poses": filter_, "manifest": filter_, "detections": filter_,
        "landmarks": samples, "accepted": samples,
        "predictions": ["eval", "--pred", str(path), "--out", str(work / "out")],
        "loss": ["loss", "--input", str(path)],
        "synth": ["synth", "--spec", str(path), "--out", str(work / "synth")],
    }[kind]
    return argv, path


@pytest.mark.parametrize(
    "kind", ["poses", "clip-poses", "manifest", "detections", "landmarks", "accepted", "predictions", "loss", "synth"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_byte_not_utf8_is_a_parse_error_at_its_line(fixture, kind, data):
    # Every input is ASCII, so any byte from 0x80 up, put anywhere, makes it not UTF-8.
    work = fixture / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    argv, path = _byte_run(fixture, kind, work)
    text = path.read_bytes()
    assert text.isascii()
    at = data.draw(st.integers(0, len(text)))
    byte = data.draw(st.integers(0x80, 0xFF))
    path.write_bytes(text[:at] + bytes([byte]) + text[at:])
    rc, err = _run(argv)
    assert rc == 2, err
    lines = err.splitlines()
    assert len(lines) == 1, err
    record = json.loads(lines[0])
    assert record == {"error": "parse", "detail": f"{path}:{record['line']}: not UTF-8 text: byte 0x{byte:02x}",
                      "path": str(path), "line": text.count(b"\n", 0, at) + 1}


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
