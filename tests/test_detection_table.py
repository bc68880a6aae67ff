"""DetectionTable (the filter stage's batch path) against the scalar forms.

The oracle is the per-DetectionFrame crowd loop and list slice that the
table replaced: one Python pass over frames and boxes. Tables are built
from frames with ``oracles.table_of`` and compared as frames with
``oracles.frames_of`` or column by column. The parser's validation is
checked against the Detection and DetectionFrame constructors, so the
two rule sets cannot drift apart.
"""

import json
import math
import os
import pickle
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcurate.errors import ParseError, ValidationError
from navcurate.filters import (
    REASON_CROWD,
    REASON_DIVERGENCE,
    REASON_PITCH,
    FilterConfig,
    check_divergence,
    check_pitch,
    run_filters,
    slice_detections,
)
from navcurate.io import Detection, DetectionFrame, DetectionTable, parse_detections
from navcurate.io import write_records as write_record_lines
from navcurate.synth import CLIP_CONVENTION, SynthSpec, generate, write_detection_file

from conftest import clips_of
from oracles import detection_file_text, frames_of, table_of

# Three 30-frame clips starting at source frames 0, 30 and 60; detection
# frames range over 0..99, so they fall before, inside and after each clip.
CLIPS = clips_of(generate(SynthSpec("straight", duration_s=9.0, fps=10.0, traj_id="walk")), 3.0)
SCORE_MIN = 0.5
CONFIG = FilterConfig(crowd_count_threshold=2, crowd_frame_threshold=1, person_score_min=SCORE_MIN)
EDGE_SCORES = [math.nextafter(SCORE_MIN, 0.0), SCORE_MIN, math.nextafter(SCORE_MIN, 1.0), 0.0, 1.0, 0.9]


# ---------------------------------------------------------------------------
# Scalar oracle
# ---------------------------------------------------------------------------

def oracle_slice(frames, entry):
    lo = entry.start_frame
    hi = entry.start_frame + entry.n_frames
    return [DetectionFrame(df.frame - lo, df.detections) for df in frames if lo <= df.frame < hi]


def oracle_crowd(clip, frames, config):
    n = len(clip)
    crowded = 0
    for df in frames:
        if not 0 <= df.frame < n:
            continue
        count = sum(
            1 for d in df.detections if d.label == config.person_label and d.score >= config.person_score_min
        )
        if count > config.crowd_count_threshold:
            crowded += 1
    return crowded <= config.crowd_frame_threshold, crowded


def oracle_verdict(clip, frames, config):
    pitch_ok, pitch_range = check_pitch(clip, config, CLIP_CONVENTION)
    div_ok, max_divergence = check_divergence(clip, config, CLIP_CONVENTION)
    crowd_ok, crowded = oracle_crowd(clip, frames, config)
    checks = ((REASON_PITCH, pitch_ok), (REASON_DIVERGENCE, div_ok), (REASON_CROWD, crowd_ok))
    reasons = [reason for reason, ok in checks if not ok]
    return {
        "clip_id": clip.id,
        "accepted": not reasons,
        "reasons": tuple(sorted(reasons)),
        "diagnostics": {
            "pitch_range_deg": pitch_range,
            "max_divergence_deg": max_divergence,
            "crowded_frame_count": crowded,
            "ignored_detection_frames": sum(1 for df in frames if not 0 <= df.frame < len(clip)),
        },
    }


def merged_frames(records):
    """What parse_detections must return: frames sorted, duplicates concatenated in file order."""
    by_frame = {}
    for frame, boxes in records:
        by_frame.setdefault(frame, []).extend(Detection(label, bbox, score) for label, bbox, score in boxes)
    return [DetectionFrame(frame, tuple(dets)) for frame, dets in sorted(by_frame.items())]


def assert_same_columns(a, b):
    assert a.names == b.names
    for column in ("frames", "offsets", "labels", "scores", "bboxes"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def write_records(records, path):
    lines = [
        json.dumps(
            {
                "frame": frame,
                "detections": [{"label": label, "bbox": list(bbox), "score": score} for label, bbox, score in boxes],
            }
        )
        for frame, boxes in records
    ]
    path.write_text("\n".join(lines) + "\n" if lines else "")


boxes_strategy = st.lists(
    st.tuples(
        st.sampled_from(["person", "person", "car"]),
        st.sampled_from([(0, 0, 10, 10), (1.5, 2.0, 1.5, 80.25), (20.0, 40.0, 44.0, 160.0)]),
        st.one_of(st.sampled_from(EDGE_SCORES), st.floats(0.0, 1.0)),
    ),
    max_size=5,
)
records_strategy = st.lists(st.tuples(st.integers(0, 99), boxes_strategy), max_size=60)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(records=records_strategy)
def test_table_path_matches_scalar_oracle(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("det") / "d.jsonl"
    write_records(records, path)
    table = parse_detections(path)
    frames = merged_frames(records)
    assert frames_of(table) == frames
    assert list(table) == frames  # the benchmark's traced box count iterates the table
    for entry, clip in CLIPS:
        local = slice_detections(table, entry)
        assert frames_of(local) == oracle_slice(frames, entry)
        verdict = run_filters(clip, local, CONFIG, CLIP_CONVENTION)
        assert asdict(verdict) == oracle_verdict(clip, oracle_slice(frames, entry), CONFIG)
        # Unsliced: source frames read as clip-local, most of them out of range.
        verdict = run_filters(clip, table, CONFIG, CLIP_CONVENTION)
        assert asdict(verdict) == oracle_verdict(clip, frames, CONFIG)
        assert asdict(run_filters(clip, table_of(frames), CONFIG, CLIP_CONVENTION)) == asdict(verdict)


@settings(max_examples=40, deadline=None)
@given(records=records_strategy)
def test_write_parse_round_trip(tmp_path_factory, records):
    frames = merged_frames(records)
    path = tmp_path_factory.mktemp("det") / "d.jsonl"
    write_record_lines(frames, path)
    table = parse_detections(path)
    assert_same_columns(table, table_of(frames))
    assert frames_of(table) == frames
    back = pickle.loads(pickle.dumps(table))
    assert_same_columns(back, table)


def test_from_frames_sorts_and_merges():
    a = Detection("person", (0, 0, 1, 1), 0.9)
    b = Detection("car", (0, 0, 2, 2), 0.4)
    table = table_of([DetectionFrame(7, (a,)), DetectionFrame(2, ()), DetectionFrame(7, (b, a))])
    assert frames_of(table) == [DetectionFrame(2, ()), DetectionFrame(7, (a, b, a))]
    assert table.frames.tolist() == [2, 7]
    assert table.offsets.tolist() == [0, 0, 3]


def test_window_is_clip_local():
    box = Detection("person", (0, 0, 1, 1), 0.9)
    table = table_of([DetectionFrame(f, (box,)) for f in (3, 5, 9)])
    local = table.window(4, 9)
    assert frames_of(local) == [DetectionFrame(1, (box,))]
    assert np.shares_memory(local.bboxes, table.bboxes)
    assert len(table.window(10, 20)) == 0


def test_table_is_read_only():
    table = table_of([DetectionFrame(1, (Detection("person", (0, 0, 1, 1), 0.9),))])
    with pytest.raises(ValueError):
        table.scores[0] = 0.0


def test_inconsistent_arrays_rejected():
    with pytest.raises(ValidationError):
        DetectionTable(np.array([3, 1]), np.array([0, 0, 0]), np.zeros(0), ("person",), np.zeros(0), np.zeros((0, 4)))
    with pytest.raises(ValidationError):
        DetectionTable(np.array([1]), np.array([0, 1]), np.zeros(1), (7,), np.zeros(1), np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# A table's file text: detection_file_text, which synth's writer is compared with, is write_records' bytes
# ---------------------------------------------------------------------------

ODD_LABELS = ['"', "\\", "a\x00b\x1f", "\x7f", "é", "名前", "\u2028\u2029", "\ud800", "", "person", "%s %r"]
ODD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1.5, 0.1, 1e308, 2.0**-1022]
floats = st.one_of(st.sampled_from(ODD_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
scores = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 0.1, 0.9, 1.0]), st.floats(0.0, 1.0))


@st.composite
def tables(draw):
    """An arbitrary valid table: zero frames or more, each with zero boxes or more, label codes in any order."""
    frames = sorted(draw(st.sets(st.integers(0, 2**63 - 1), max_size=8)))
    counts = draw(st.lists(st.integers(0, 4), min_size=len(frames), max_size=len(frames)))
    names = draw(st.lists(st.one_of(st.sampled_from(ODD_LABELS), st.text()), min_size=1, max_size=4, unique=True))
    m = sum(counts)
    corners = [draw(st.lists(floats, min_size=4, max_size=4)) for _ in range(m)]
    bboxes = [(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)) for x1, y1, x2, y2 in corners]
    return DetectionTable(
        np.array(frames, dtype=np.int64),
        np.cumsum([0] + counts),
        draw(st.lists(st.integers(0, len(names) - 1), min_size=m, max_size=m)),
        tuple(names),
        draw(st.lists(scores, min_size=m, max_size=m)),
        np.array(bboxes, dtype=float).reshape(-1, 4),
    )


def bits(a):
    return a.view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_written_table_matches_record_writer(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("det") / "records.jsonl"
    write_record_lines(frames_of(table), path)
    assert path.read_bytes() == detection_file_text(table).encode()
    back = parse_detections(path)
    assert [back.names[c] for c in back.labels.tolist()] == [table.names[c] for c in table.labels.tolist()]
    for column in ("frames", "offsets"):
        assert np.array_equal(getattr(back, column), getattr(table, column)), column
    assert bits(back.scores) == bits(table.scores)  # bit for bit: -0.0 stays -0.0
    assert bits(back.bboxes) == bits(table.bboxes)


# ---------------------------------------------------------------------------
# Validation: the parser and the constructors reject the same inputs
# ---------------------------------------------------------------------------

ODD_VALUES = [
    True, False, None, "0.9", "", "abcd", 7, -1, 0, 1.5, -0.0, 2**63 - 1, 2**63, -(2**63) - 1, 10**400,
    math.nan, math.inf, -math.inf, [], [1], [0, 0, 1, 1], {}, {"a": 1, "b": 2, "c": 3, "d": 4},
]


def scalar_accepts(obj) -> bool:
    try:
        DetectionFrame(obj["frame"], [Detection(d["label"], d["bbox"], d["score"]) for d in obj["detections"]])
    except ValidationError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(["frame", "label", "score", "bbox", 0, 1, 2, 3]),
    value=st.one_of(st.sampled_from(ODD_VALUES), st.integers(-5, 5), st.floats(allow_nan=True)),
    position=st.integers(0, 2),
)
def test_parser_and_constructors_agree(tmp_path_factory, target, value, position):
    box = {"label": "person", "bbox": [0.0, 0.0, 10.0, 10.0], "score": 0.5}
    record = {"frame": 4, "detections": [dict(box), box]}
    if target == "frame":
        record["frame"] = value
    elif isinstance(target, int):
        box["bbox"] = list(box["bbox"])
        box["bbox"][target] = value
    else:
        box[target] = value
    line = json.dumps(record)
    obj = json.loads(line)  # NaN and Infinity survive as JSON extensions, as the parser reads them
    valid = json.dumps({"frame": 50, "detections": [{"label": "car", "bbox": [1, 1, 2, 2], "score": 0.1}]})
    lines = [valid, valid]
    lines.insert(position, line)
    path = tmp_path_factory.mktemp("det") / "d.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        parse_detections(path)
        parsed = True
    except (ParseError, ValidationError) as exc:
        parsed = False
        assert str(exc).startswith(f"{path}:{position + 1}: ")
    assert parsed == scalar_accepts(obj)


def test_write_replaces_the_file_atomically(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("old\n")
    os.link(path, tmp_path / "link")
    write_detection_file(1, [1], path)
    assert (tmp_path / "link").read_text() == "old\n"  # a new file took the name; the old one was not rewritten
    assert path.read_text() == '{"frame":0,"detections":[{"label":"person","bbox":[20.0,40.0,44.0,160.0],"score":0.9}]}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "link"]
