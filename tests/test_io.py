import dataclasses
import decimal
import functools
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import stat
import struct
import sys
import threading
import warnings
from io import StringIO
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from navcurate import cli, schema, synth
from navcurate import io as tio
from navcurate.errors import ParseError, SchemaError, ValidationError
from navcurate.io import (
    BLOCK_ROWS,
    Detection,
    DetectionFrame,
    LandmarkAnnotation,
    PredictionRecord,
    RawTrajectory,
    TrainingSample,
    _check_pose_lines,
    parse_detections,
    parse_landmarks,
    parse_pose_file,
    parse_predictions,
    parse_samples,
    remove_output,
    write_landmarks,
    write_pose_file,
    write_predictions,
    write_report,
    write_records,
)
from navcurate.synth import generate_detections, write_detection_file

from oracles import (EgoWaypoint, detection_file_text, frames_of, loadtxt_pose_file, outcome, pose_file_text,
                     pose_lines, prediction_table_of, records_of, without_orjson)
from test_cli_fuzz import POOL, _replaced, _sites


class TestPoseFile:
    def test_single_identity_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 0 0 0 0 0 0 1\n")
        traj = parse_pose_file(path, fps=30.0)
        assert len(traj) == 1
        assert traj.id == "traj"
        assert np.allclose(traj.quaternions[0], [0, 0, 0, 1])

    @pytest.mark.parametrize("traj_id", ["a\nb", "a\rb", "\r\n"], ids=repr)
    def test_id_holding_a_line_break_rejected(self, traj_id):
        # The id is written into the pose file's header comment, which a "\n" or "\r" would end.
        with pytest.raises(ValidationError, match="line break"):
            RawTrajectory(traj_id, 10.0, [0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("traj_id", ["a/b", "/a", "../a", "a\x00b", ".", ".."], ids=repr)
    def test_id_that_is_not_one_file_name_rejected(self, traj_id):
        # The id names the trajectory's pose file (<id>.txt) inside an output directory.
        message = f"trajectory id must be one file name, without '/' or NUL and not '.' or '..', got {traj_id!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RawTrajectory(traj_id, 10.0, [0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("traj_id", ["a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", "a\tb", " a#b "], ids=repr)
    def test_id_with_other_separators_round_trips(self, tmp_path, traj_id):
        # Only "\n" and "\r" end a line for the pose-file reader; every other character stays in the header.
        traj = RawTrajectory(traj_id, 10.0, [0.0, 0.1], np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)))
        write_pose_file(traj, tmp_path / "t.txt")
        back = parse_pose_file(tmp_path / "t.txt", 10.0, traj_id=traj_id)
        assert back.id == traj_id
        assert np.array_equal(back.timestamps, traj.timestamps)

    def test_zero_quaternion_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0 0 0 0 0 0 0\n")
        with pytest.raises(ValidationError):
            parse_pose_file(path, fps=30.0)

    def test_generated_file_duration(self, tmp_path):
        # Stamps i/30 for 3600 lines: duration is exactly 3599/30 seconds.
        path = tmp_path / "walk.txt"
        lines = [f"{i / 30.0!r} {i * 0.1!r} 0.0 0.0 0.0 0.0 0.0 1.0\n" for i in range(3600)]
        path.write_text("".join(lines))
        traj = parse_pose_file(path, fps=30.0)
        assert len(traj) == 3600
        assert traj.timestamps[-1] - traj.timestamps[0] == pytest.approx(3599 / 30.0, abs=1e-12)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n0.0 1 2 3 0 0 0 1\n# tail\n")
        traj = parse_pose_file(path, fps=10.0)
        assert len(traj) == 1
        assert np.allclose(traj.positions[0], [1, 2, 3])

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0 0 0 0 0 0 1\n0.1 oops 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as exc:
            parse_pose_file(path, fps=30.0)
        assert exc.value.line == 2

    def test_inline_comment_does_not_hide_later_fault(self, tmp_path):
        # np.loadtxt(comments="#") accepts the inline comment on line 2; the fault is the x on line 4.
        path = tmp_path / "c2.txt"
        path.write_text("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 1 # note\n0.2 0 0 0 0 0 0 1\n0.3 x 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as exc:
            parse_pose_file(path, fps=10.0)
        assert exc.value.line == 4
        assert "non-numeric field" in str(exc.value)

    def test_inline_comment_parses_as_loadtxt_does(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text("0.0 1 2 3 0 0 0 1  # first\n   # indented comment\n0.1 4 5 6 0 0 0 1#tight\n")
        traj = parse_pose_file(path, fps=10.0)
        assert np.array_equal(traj.positions, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize("field", ["1_000", "١", "１"], ids=["underscore", "arabic-indic", "fullwidth"])
    def test_number_loadtxt_rejects_is_a_parse_error(self, tmp_path, field):
        # float() reads each field as a number; np.loadtxt does not, and neither may the line-by-line fallback.
        path = tmp_path / "n.txt"
        line = f"0.1 {field} 0 0 0 0 0 1"
        path.write_text(f"0.0 0 0 0 0 0 0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            parse_pose_file(path, fps=10.0)
        assert exc.value.line == 2
        assert str(exc.value).endswith(f" non-numeric field in {line!r}")

    def test_fallback_splits_on_unicode_whitespace_as_loadtxt_does(self, tmp_path):
        # np.loadtxt reads line 1 (U+3000 and U+00A0 separate its fields); the fault is the x on line 2.
        path = tmp_path / "w.txt"
        path.write_text("0.0\u30000\u00a00 0 0 0 0 1\n0.1 x 0 0 0 0 0 1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            parse_pose_file(path, fps=10.0)
        assert exc.value.line == 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as exc:
            parse_pose_file(path, fps=30.0)
        assert exc.value.line == 1

    def test_non_monotonic_timestamps(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(ValidationError):
            parse_pose_file(path, fps=30.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValidationError):
            parse_pose_file(path, fps=30.0)

    @pytest.mark.parametrize(
        "fps",
        [True, "30", np.float64(30.0), 0, -1.0, float("nan"), float("inf"), 10**400],
        ids=["bool", "str", "float64", "zero", "negative", "nan", "inf", "huge-int"],
    )
    def test_fps_never_coerced(self, fps):
        with pytest.raises(ValidationError, match="fps"):
            RawTrajectory("t", fps, [0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("fps, traj_id", [(0, None), (math.nan, None), (10.0, "a/b")], ids=["fps-0", "fps-nan", "id-a/b"])
    def test_arguments_checked_before_the_file_is_opened(self, tmp_path, fps, traj_id):
        # A bad --fps or --traj-id fails at once, not after a long stream is parsed, nor as an absent file.
        with pytest.raises(ValidationError, match="fps|trajectory id"):
            parse_pose_file(tmp_path / "absent.txt", fps, traj_id=traj_id)

    def test_int_fps_stored_as_float(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 0 0 0 0 0 0 1\n")
        traj = parse_pose_file(path, fps=30)
        assert type(traj.fps) is float
        write_pose_file(traj, tmp_path / "out.txt")
        assert (tmp_path / "out.txt").read_text().startswith("# t fps=30.0\n")

    def test_round_trip(self, tmp_path, rng):
        n = 25
        traj = RawTrajectory(
            "rt",
            30.0,
            np.arange(n) / 30.0,
            rng.uniform(-10, 10, (n, 3)),
            np.stack([q / np.linalg.norm(q) for q in rng.standard_normal((n, 4))]),
        )
        path = tmp_path / "rt.txt"
        write_pose_file(traj, path)
        back = parse_pose_file(path, fps=30.0, traj_id="rt")
        assert np.array_equal(back.timestamps, traj.timestamps)
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.quaternions, traj.quaternions)


class TestDetections:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        assert frames_of(parse_detections(path)) == []

    def test_duplicate_frames_merge(self, tmp_path):
        path = tmp_path / "d.jsonl"
        det = {"label": "person", "bbox": [0, 0, 10, 10], "score": 0.9}
        path.write_text(
            json.dumps({"frame": 5, "detections": [det, det]})
            + "\n"
            + json.dumps({"frame": 5, "detections": [det, det, det]})
            + "\n"
        )
        frames = frames_of(parse_detections(path))
        assert len(frames) == 1
        assert frames[0].frame == 5
        assert len(frames[0].detections) == 5

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"frame": 0, "detections": [{"label": "person", "bbox": [0, 0, 1, 1], "score": 1.2}]}) + "\n")
        with pytest.raises(ValidationError) as exc:
            parse_detections(path)
        assert str(exc.value) == f"{path}:1: score must be in [0, 1], got 1.2"

    def test_sorted_by_frame(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"frame": 7, "detections": []}) + "\n" + json.dumps({"frame": 2, "detections": []}) + "\n"
        )
        frames = frames_of(parse_detections(path))
        assert [f.frame for f in frames] == [2, 7]

    def test_bbox_corner_order_enforced(self):
        with pytest.raises(ValidationError):
            Detection("person", (5.0, 0.0, 1.0, 1.0), 0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame", True),
            ("score", "0.9"),
            ("bbox", ["0", 0, 1, 1]),
            ("label", 7),
        ],
    )
    def test_values_never_coerced(self, tmp_path, field, value):
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 1}
        record = {"frame": 3, "detections": [box]}
        if field == "frame":
            record["frame"] = value
        else:
            box[field] = value
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"frame": 1, "detections": []}) + "\n\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_detections(path)
        assert exc.value.line == 3

    def test_integer_bbox_and_score_valid(self, tmp_path):
        path = tmp_path / "d.jsonl"
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 1}
        path.write_text(json.dumps({"frame": 4, "detections": [box]}))
        (frame,) = frames_of(parse_detections(path))
        assert frame.frame == 4
        assert frame.detections == (Detection("person", (0.0, 0.0, 10.0, 10.0), 1.0),)

    def test_bad_box_reported_before_bad_frame(self, tmp_path):
        # Building the record builds its boxes first, so a record with both faults names its first bad box.
        path = tmp_path / "d.jsonl"
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 0.5}
        path.write_text(json.dumps({"frame": -1, "detections": [box, dict(box, score=1.5), dict(box, score=2)]}) + "\n")
        with pytest.raises(ValidationError, match=r"score must be in \[0, 1\], got 1.5$") as exc:
            parse_detections(path)
        assert str(exc.value).startswith(f"{path}:1: ")

    @pytest.mark.parametrize(
        "early, kind, message",
        [
            ({"frame": -1}, ValidationError, "frame must be a non-negative int64 frame index, got -1"),
            ({"frame": 2**63}, ValidationError,
             "frame must be a non-negative int64 frame index, got 9223372036854775808"),
            ({"score": 2}, ValidationError, "score must be in [0, 1], got 2"),
            ({"bbox": [0, 5, 1, 1]}, ValidationError, "bbox corners out of order: (0, 5, 1, 1)"),
            ({"bbox": [0, 0, math.inf, 1]}, ParseError,
             "DetectionFrame has 'detections[1].bbox' = [0, 0, Infinity, 1], expected [number, number, number, number]"),
        ],
        ids=["negative-frame", "frame-past-int64", "int-score-out-of-range", "corners-out-of-order", "infinite-corner"],
    )
    @pytest.mark.parametrize("late", ['{"frame": true, "detections": []}', "{not json"], ids=["type-fault", "invalid-json"])
    def test_range_fault_before_a_later_fault_is_reported_first(self, tmp_path, early, kind, message, late):
        # The message names each value as written: an int score of 2 is "got 2", not "got 2.0".
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 0.5}
        record = {"frame": 2, "detections": [box, box]}
        if "frame" in early:
            record.update(early)
        else:
            record["detections"] = [box, {**box, **early}]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in [{"frame": 9, "detections": [box]}, record]) + late + "\n")
        with pytest.raises(kind) as exc:
            parse_detections(path)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_every_mutation_matches_the_decoder(self, tmp_path):
        # The parser accepts a line exactly when schema.decoder(DetectionFrame) does, else fails with its error.
        box = {"label": "a", "bbox": [0, 0.5, 1, 2], "score": 1}
        valid = {"frame": 3, "detections": [box, {"label": "b", "bbox": [1.5, 0, 1.5, 0], "score": 0.0}]}
        path = tmp_path / "d.jsonl"
        for site in _sites(valid):
            for value in PARITY_POOL + [-1, 2**63, 2, math.inf]:
                mutated = _replaced(valid, site, value)
                path.write_text(json.dumps(mutated) + "\n")
                obj = json.loads(json.dumps(mutated))
                want = _decoder_outcome(DetectionFrame, obj, path, 1) or [schema.decoder(DetectionFrame)(obj)]
                try:
                    got = frames_of(parse_detections(path))
                except (ParseError, ValidationError) as exc:
                    got = type(exc), str(exc)
                assert got == want, (site, value)

    def test_first_offending_line_reported(self, tmp_path):
        # Line 2 fails a range check, line 3 a type check: the earlier line is reported.
        path = tmp_path / "d.jsonl"
        box = {"label": "person", "bbox": [0, 0, 10, 10], "score": 0.5}
        path.write_text(
            json.dumps({"frame": 9, "detections": [box]})
            + "\n"
            + json.dumps({"frame": 2, "detections": [box, dict(box, bbox=[5, 0, 1, 1])]})
            + "\n"
            + json.dumps({"frame": 1, "detections": [dict(box, score=True)]})
            + "\n"
        )
        with pytest.raises(ValidationError) as exc:
            parse_detections(path)
        assert str(exc.value) == f"{path}:2: bbox corners out of order: (5, 0, 1, 1)"


class TestLandmarks:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "lm.jsonl"
        path.write_text("")
        assert parse_landmarks(path) == []

    def test_missing_instruction_field(self, tmp_path):
        path = tmp_path / "lm.jsonl"
        path.write_text(json.dumps({"clip_id": "c", "goal_frame": 3, "bbox": [0, 0, 1, 1], "name": "n"}) + "\n")
        with pytest.raises(ParseError):
            parse_landmarks(path)

    def test_empty_instruction_is_validation_error(self, tmp_path):
        path = tmp_path / "lm.jsonl"
        path.write_text(
            json.dumps({"clip_id": "c", "goal_frame": 3, "bbox": [0, 0, 1, 1], "name": "n", "instruction": ""}) + "\n"
        )
        with pytest.raises(ValidationError):
            parse_landmarks(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("goal_frame", True),
            ("bbox", ["0", 0, "1", 1]),
            ("bbox", [0, "nan", 1, 1]),
            ("bbox", [0, float("nan"), 1, 1]),
            ("bbox", [0, 0, 10**400, 1]),
            ("name", 7),
            ("instruction", 7),
            ("clip_id", 5),
        ],
    )
    def test_values_never_coerced(self, tmp_path, field, value):
        record = {"clip_id": "c", "goal_frame": 3, "bbox": [0, 0, 1, 1], "name": "n", "instruction": "go"}
        record[field] = value
        path = tmp_path / "lm.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_landmarks(path)
        assert exc.value.line == 1
        assert repr(field) in str(exc.value)

    def test_byte_identical_round_trip(self, tmp_path):
        lms = [
            LandmarkAnnotation("clip_0001", 120, (4.5, 6.0, 90.25, 200.0), "blue door", "go to the blue door"),
            LandmarkAnnotation("clip_0002", 7, (0.0, 0.0, 1.0, 1.0), "sign", "stop at the sign"),
        ]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_landmarks(lms, first)
        write_landmarks(parse_landmarks(first), second)
        assert first.read_bytes() == second.read_bytes()


def _sample(i: int = 0) -> TrainingSample:
    return TrainingSample(
        sample_id=f"clip_0000:{i:04d}:00",
        clip_id="clip_0000",
        instruction="go to landmark",
        t=40 + i,
        t_g=100,
        history_frames=tuple(range(33 + i, 41 + i)),
        waypoints=tuple(EgoWaypoint(float(j), 0.5 * j) for j in range(1, 9)),
        arrival=False,
    )


class TestSamples:
    def test_round_trip_identity(self, tmp_path):
        samples = [_sample(i) for i in range(3)]
        path = tmp_path / "s.jsonl"
        write_records(samples, path)
        assert parse_samples(path) == samples

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_records([], path)
        assert parse_samples(path) == []

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("{\"sample_id\": \"x\"}\n")
        with pytest.raises(ParseError):
            parse_samples(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival", "no"),
            ("arrival", 0),
            ("t", 1.5),
            ("t", True),
            ("history_frames", [1.7]),
            ("history_frames", [True, "3"]),
            ("sample_id", 5),
        ],
    )
    def test_values_never_coerced(self, tmp_path, field, value):
        path = tmp_path / "s.jsonl"
        write_records([_sample(0)], path)
        record = json.loads(path.read_text())
        record[field] = value
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_samples(path)
        assert exc.value.line == 1
        assert repr(field) in str(exc.value)

    @pytest.mark.parametrize("waypoints", [[["x", 0]], [[1, 0, 5]], [[True, 0]], [[10**400, 0]]])
    def test_malformed_waypoint_is_parse_error(self, tmp_path, waypoints):
        path = tmp_path / "s.jsonl"
        write_records([_sample(0)], path)
        record = json.loads(path.read_text())
        record["waypoints"] = waypoints
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_samples(path)
        assert exc.value.line == 1


class TestPredictions:
    def test_round_trip_identity(self, tmp_path):
        records = [
            PredictionRecord(
                "s0",
                tuple(EgoWaypoint(float(i), -0.25 * i) for i in range(1, 9)),
                tuple(EgoWaypoint(float(i), 0.0) for i in range(1, 9)),
                predicted_arrival=0.75,
                arrival_label=True,
            ),
            PredictionRecord("s1", (EgoWaypoint(1.0, 0.0),), (EgoWaypoint(0.5, 0.5),)),
        ]
        path = tmp_path / "p.jsonl"
        write_predictions(records, path)
        assert records_of(parse_predictions(path)) == records

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PredictionRecord("s", (EgoWaypoint(1, 0),), (EgoWaypoint(1, 0), EgoWaypoint(2, 0)))

    def test_arrival_probability_range(self):
        with pytest.raises(ValidationError):
            PredictionRecord("s", (EgoWaypoint(1, 0),), (EgoWaypoint(1, 0),), predicted_arrival=1.5)


# Valid prediction lines: floats and ints, an omitted optional pair and a zero arrival.
VALID_PREDICTIONS = [
    {"sample_id": "a", "predicted": [[0.4, 0], [0.8, 0.1]], "ground_truth": [[0.5, 0.0], [1, 0.2]],
     "predicted_arrival": 0.7, "arrival_label": True},
    {"sample_id": "b", "predicted": [[1, 2]], "ground_truth": [[0.0, 0.0]]},
    {"sample_id": "c", "predicted": [[1.5, -0.5]], "ground_truth": [[1.0, 0.5]], "predicted_arrival": 0,
     "arrival_label": None},
]
# The fuzz pool plus values that are well typed but break a range rule.
PARITY_POOL = POOL + [1.5, -0.25, "", []]


def _decoder_outcome(cls, obj, path, lineno):
    """(error class, message) that schema.decoder(cls) gives for the record on line lineno, or None."""
    try:
        schema.decoder(cls)(obj)
    except SchemaError as exc:
        return ParseError, f"{path}:{lineno}: {exc}"
    except ValidationError as exc:
        return ValidationError, f"{path}:{lineno}: {exc}"
    return None


def _parse_outcome(path):
    try:
        return records_of(parse_predictions(path))
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


class TestPredictionParity:
    """parse_predictions fails on exactly the lines, with exactly the errors, of the per-record schema decoder."""

    @pytest.mark.parametrize("index", range(len(VALID_PREDICTIONS)))
    def test_every_mutation_matches_the_decoder(self, tmp_path, index):
        path = tmp_path / "p.jsonl"
        valid = VALID_PREDICTIONS[index]
        cases = 0
        for site in _sites(valid):
            for value in PARITY_POOL:
                mutated = _replaced(valid, site, value)
                lines = [VALID_PREDICTIONS[(index + 1) % 3], mutated, VALID_PREDICTIONS[(index + 2) % 3]]
                path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
                want = _decoder_outcome(PredictionRecord, json.loads(json.dumps(mutated)), path, 2)
                if want is None:
                    decode = schema.decoder(PredictionRecord)
                    want = [decode(json.loads(json.dumps(obj))) for obj in lines]
                assert _parse_outcome(path) == want, (site, value)
                cases += 1
        assert cases >= 7 * len(list(_sites(valid)))

    @pytest.mark.parametrize(
        "early, message",
        [
            ({"predicted": [[0.4, 0], [math.nan, 0]]}, "PredictionRecord has 'predicted[1]' = [NaN, 0], expected [number, number]"),
            ({"ground_truth": [[math.inf, 0], [1, 0.2]]}, "PredictionRecord has 'ground_truth[0]' = [Infinity, 0], expected [number, number]"),
            ({"predicted_arrival": 1.5}, "predicted_arrival must be in [0, 1], got 1.5"),
        ],
        ids=["nan-waypoint", "infinite-waypoint", "arrival-out-of-range"],
    )
    @pytest.mark.parametrize("late", ['{"sample_id": true}', "{not json"], ids=["type-fault", "invalid-json"])
    def test_range_fault_before_a_later_fault_is_reported_first(self, tmp_path, early, message, late):
        path = tmp_path / "p.jsonl"
        lines = [VALID_PREDICTIONS[1], {**VALID_PREDICTIONS[0], **early}, VALID_PREDICTIONS[2], VALID_PREDICTIONS[1]]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines) + late + "\n")
        kind = ValidationError if "predicted_arrival" in early else ParseError
        assert _parse_outcome(path) == (kind, f"{path}:2: {message}")

    def test_table_columns(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n\n" for obj in VALID_PREDICTIONS))
        table = parse_predictions(path)
        assert len(table) == 3
        assert [table.sample_id(i) for i in range(3)] == ["a", "b", "c"]
        assert (table.id_text, table.id_offsets.tolist()) == ("abc", [0, 1, 2, 3])
        assert table.offsets.tolist() == [0, 2, 3, 4]
        assert table.predicted.tolist() == [[0.4, 0.0], [0.8, 0.1], [1.0, 2.0], [1.5, -0.5]]
        assert table.predicted_arrival_null.tolist() == [False, True, False]
        assert table.arrival_label_null.tolist() == [False, True, True]
        assert table.arrival_label.tolist() == [True, False, False]
        assert not table.predicted.flags.writeable

    @pytest.mark.parametrize(
        "early, kind, message",
        [
            ({"predicted": [[0.4, 0], [math.nan, 0]]}, ParseError,
             "PredictionRecord has 'predicted[1]' = [NaN, 0], expected [number, number]"),
            ({"predicted_arrival": 1.5}, ValidationError, "predicted_arrival must be in [0, 1], got 1.5"),
        ],
        ids=["nan-waypoint", "arrival-out-of-range"],
    )
    def test_range_fault_in_a_pipe_keeps_the_error_class(self, tmp_path, early, kind, message):
        # A pipe is read once, as a file is: the faulty line is decoded as parsed, with the decoder's message.
        path = tmp_path / "p.fifo"
        os.mkfifo(path)
        lines = [VALID_PREDICTIONS[1], {**VALID_PREDICTIONS[0], **early}, VALID_PREDICTIONS[2]]
        writer = threading.Thread(target=path.write_text, args=("".join(json.dumps(obj) + "\n" for obj in lines),), daemon=True)
        writer.start()
        try:
            assert _parse_outcome(path) == (kind, f"{path}:2: {message}")
        finally:
            writer.join(timeout=10)

    def test_empty_file_gives_empty_table(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("\n")
        table = parse_predictions(path)
        assert len(table) == 0
        assert table.predicted.shape == (0, 2)


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1.5E+999"])
@pytest.mark.parametrize(
    "parse, valid, line, message",
    [
        (parse_predictions, '{"sample_id": "s1", "predicted": [[1, 0]], "ground_truth": [[1, 0]]}',
         '{"sample_id": "s1", "predicted": [[%s, 0]], "ground_truth": [[1, 0]]}',
         "PredictionRecord has 'predicted[0]' = [%s, 0], expected [number, number]"),
        (parse_detections, '{"frame": 0, "detections": []}',
         '{"frame": 1, "detections": [{"label": "person", "bbox": [0, 0, %s, 1], "score": 0.5}]}',
         "DetectionFrame has 'detections[0].bbox' = [0, 0, %s, 1], expected [number, number, number, number]"),
        (parse_landmarks, '{"clip_id": "c", "goal_frame": 1, "bbox": [0, 0, 1, 1], "name": "n", "instruction": "go"}',
         '{"clip_id": "c", "goal_frame": 1, "bbox": [0, 0, %s, 1], "name": "n", "instruction": "go"}',
         "LandmarkAnnotation has 'bbox' = [0, 0, %s, 1], expected [number, number, number, number]"),
    ],
    ids=["predictions", "detections", "landmarks"],
)
def test_overflowing_literal_is_named_as_written(tmp_path, parse, valid, line, message, literal):
    # json reads the literal as an infinity; the error quotes the file, not "Infinity".
    path = tmp_path / "r.jsonl"
    path.write_text(f"{valid}\n{line % literal}\n")
    with pytest.raises(ParseError) as exc:
        parse(path)
    assert (exc.value.line, str(exc.value)) == (2, f"{path}:2: {message % literal}")


def _walk(n: int, traj_id: str = "walk") -> RawTrajectory:
    """n poses whose values need every digit of their repr."""
    rng = np.random.default_rng(n)
    quats = rng.normal(size=(n, 4))
    return RawTrajectory(traj_id, 30.0, np.cumsum(rng.uniform(0.01, 0.05, n)), rng.normal(0.0, 50.0, (n, 3)),
                         quats / np.linalg.norm(quats, axis=1, keepdims=True))


ROW_COUNTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]


def _write_in(where: str, write, path) -> None:
    """write(path) in this process ("serial"), or in a worker of the CLI's pool at two workers ("pool").

    segment writes its clip files in its workers. The pool writes a second
    copy next to path, so that it starts both workers; the copies must be equal.
    """
    if where == "serial":
        write(path)
        return
    copy = path.with_name(f"copy.{path.name}")
    cli._map_tasks(write, [path, copy], 2)
    assert multiprocessing.active_children() == []
    assert copy.read_bytes() == path.read_bytes()
    copy.unlink()


# Values where orjson's layout and repr's differ or nearly do: the 1e-5 to 1e-4 band that repr writes
# with an exponent and its ends, 1e-6, 1e15 and 1e16 on both sides, a longer number holding "0.0000",
# subnormals, the largest double, -0.0 and integers at and past 2**53.
_EDGE_FLOATS = [
    1e-5, 1.5e-5, 1.0000000000000001e-05, 9.999999999999999e-05, 1e-4, 1.0000000000000002e-04, 1e-6, 1.5e-7,
    999999999999999.9, 1e15, 1.0000000000000002e15, 9999999999999998.0, 1e16, 1.0000000000000002e16, 1.5e16,
    10.00001, 100.00001, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max,
    -0.0, 0.0, 2.0**53, 2.0**53 + 2, 2.0**64, 1e22, 1e100, 1e-100,
]
_raw_floats = st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item()).filter(math.isfinite)


@st.composite
def _pose_blocks(draw):
    """An (n, 8) block of finite float64 values, n up to BLOCK_ROWS + 1, drawn from raw bit patterns and edge values."""
    rows = draw(st.sampled_from([1, 2, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]))
    pool = draw(st.lists(st.one_of(_raw_floats, st.sampled_from(_EDGE_FLOATS), st.floats(1e-5, 1e-4)),
                         min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 2**64, (rows, 8), dtype=np.uint64, endpoint=False).view(np.float64)
    values[~np.isfinite(values)] = 1.0
    drawn = rng.random(values.shape) < 0.7
    values[drawn] = rng.choice(pool, drawn.sum()) * rng.choice([-1.0, 1.0], drawn.sum())
    return values


class TestPoseLines:
    """Pose lines carry the exact bytes repr gives each value, though orjson formats them."""

    @settings(max_examples=60, deadline=None)
    @given(values=_pose_blocks())
    def test_bytes_equal_repr(self, values):
        traj = SimpleNamespace(timestamps=values[:, 0], positions=values[:, 1:4], quaternions=values[:, 4:])
        assert tio._pose_rows(traj, (0, len(values))) == pose_lines(values).encode()

    def test_orjson_layout_is_pinned(self):
        # _pose_rows turns this layout into repr's: an orjson that writes another one fails here, before a pose file moves.
        values = np.array([[1e16, 1.5e16, 2.0**60, 1e15, 1e-7, 1.5e-6, 1e-5, 1.5e-5, 1e-4, 10.00001, -0.0, 5e-324,
                            sys.float_info.max, 0.1]])
        assert orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY) == (
            b"[[1e16,1.5e16,1.152921504606847e18,1000000000000000.0,1e-7,1.5e-6,0.00001,0.000015,0.0001,10.00001,"
            b"-0.0,5e-324,1.7976931348623157e308,0.1]]"
        )


class TestBlockWriters:
    """The block writers give byte for byte the one-string writers' text (tests/oracles.py)."""

    @pytest.mark.parametrize("where", ["serial", "pool"])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_pose_file(self, tmp_path, rows, where):
        traj = _walk(rows)
        _write_in(where, functools.partial(write_pose_file, traj), tmp_path / "walk.txt")
        assert (tmp_path / "walk.txt").read_bytes() == pose_file_text(traj).encode()

    @pytest.mark.parametrize("where", ["serial", "pool"])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_detections(self, tmp_path, rows, where):
        counts = np.random.default_rng(rows).integers(0, 4, rows).tolist()
        _write_in(where, functools.partial(write_detection_file, rows, counts), tmp_path / "detections.jsonl")
        text = detection_file_text(generate_detections(rows, counts))
        assert (tmp_path / "detections.jsonl").read_bytes() == text.encode()

    def test_empty_table(self, tmp_path):
        write_detection_file(0, [], tmp_path / "d.jsonl")
        assert (tmp_path / "d.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
    def test_record_lines(self, tmp_path, rows):
        samples = [_sample(i) for i in range(rows)]
        write_records(samples, tmp_path / "s.jsonl")
        text = "".join(json.dumps(schema.to_json(s), separators=(",", ":")) + "\n" for s in samples)
        assert (tmp_path / "s.jsonl").read_bytes() == text.encode()


def _fail_from_block_2(fn, bounds):
    if bounds[0] >= 2 * BLOCK_ROWS:
        raise RuntimeError(f"block at row {bounds[0]}")
    return fn(bounds)


def _write_walk(rows, path, fail=False):
    """_walk(rows)'s pose file; with fail, formatting fails from the third block on."""
    rows_of = tio._pose_rows
    with pytest.MonkeyPatch.context() as patch:
        if fail:
            patch.setattr(tio, "_pose_rows",
                          lambda traj, bounds: _fail_from_block_2(functools.partial(rows_of, traj), bounds))
        write_pose_file(_walk(rows), path)


def _write_counts(rows, path, fail=False):
    """synth's detection file of rows frames of 0 to 3 boxes; with fail, formatting fails from the third block on."""
    lines = synth._detection_lines
    with pytest.MonkeyPatch.context() as patch:
        if fail:
            patch.setattr(synth, "_detection_lines",
                          lambda per_frame, bounds: _fail_from_block_2(functools.partial(lines, per_frame), bounds))
        write_detection_file(rows, np.random.default_rng(rows).integers(0, 4, rows), path)


class TestCrashSafeWrites:
    def test_write_failing_partway_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.txt"
        traj = RawTrajectory("t", 30.0, [0.0, 1.0], [[0.0, 0.0, 0.0]] * 2, [[0.0, 0.0, 0.0, 1.0]] * 2)
        write_pose_file(traj, path)
        before = path.read_bytes()
        # A lone surrogate in the id cannot be encoded: the write fails after the file is opened.
        bad = RawTrajectory("t\ud800", 30.0, [0.0], [[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(UnicodeEncodeError):
            write_pose_file(bad, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]

    @pytest.mark.parametrize("writer", [_write_walk, _write_counts], ids=["write_pose_file", "write_detection_file"])
    def test_failing_later_block_keeps_old_file_and_stops_the_pool(self, tmp_path, writer):
        path = tmp_path / "out.txt"
        writer(5, path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match=f"block at row {2 * BLOCK_ROWS}"):
            writer(4 * BLOCK_ROWS, path, fail=True)
        assert multiprocessing.active_children() == []
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_mid_stream_stops_the_pool(self):
        # /dev/full is not a regular file, so it is written in place, and its first write fails with ENOSPC.
        # The error leaves a pool worker, as it would from segment's, and no worker is left behind.
        with pytest.raises(OSError):
            cli._map_tasks(functools.partial(write_pose_file, _walk(4 * BLOCK_ROWS)), ["/dev/full"] * 2, 2)
        assert multiprocessing.active_children() == []

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "r.json"
        write_report({"a": 1}, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("navcurate.io.os.replace", fail)
        with pytest.raises(OSError):
            write_report({"a": 2}, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_fifo_is_written_in_place(self, tmp_path):
        # A pipe cannot be replaced by a renamed file: its reader gets the bytes, and no temporary sibling is left.
        path = tmp_path / "report.fifo"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
        reader.start()
        write_report({"a": 1}, path)
        reader.join(timeout=10)
        assert received == [b'{\n  "a": 1\n}\n']
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.fifo"]

    def test_remove_output_removes_only_what_a_write_replaces(self, tmp_path):
        # A regular file and a dangling link go, as a write would replace them; a pipe, or a link to one
        # (as /dev/stdout is to a terminal's pipe), stays, as a write goes into it.
        regular, fifo = tmp_path / "r.json", tmp_path / "report.fifo"
        regular.write_text("{}")
        os.mkfifo(fifo)
        (tmp_path / "stdout").symlink_to(fifo)
        (tmp_path / "gone.json").symlink_to(tmp_path / "nowhere")
        for name in ("r.json", "report.fifo", "stdout", "gone.json", "missing.json"):
            remove_output(tmp_path / name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.fifo", "stdout"]

    def test_link_to_a_regular_file_stays_a_link(self, tmp_path):
        # The link's target is replaced next to itself; removing the output removes the target, not the link.
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("{}")
        link.symlink_to(real)
        write_report({"a": 1}, link)
        assert link.is_symlink() and real.read_text() == '{\n  "a": 1\n}\n'
        remove_output(link)
        assert link.is_symlink() and not real.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json"]

    def test_link_to_a_fifo_is_written_in_place(self, tmp_path):
        fifo, link = tmp_path / "report.fifo", tmp_path / "stdout"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_report({"a": 1}, link)
        reader.join(timeout=10)
        assert received == [b'{\n  "a": 1\n}\n']
        assert link.is_symlink() and stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.fifo", "stdout"]

    def test_pose_blocks_stream_into_a_fifo(self, tmp_path):
        path = tmp_path / "walk.fifo"
        os.mkfifo(path)
        traj = _walk(2 * BLOCK_ROWS + 3)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
        reader.start()
        write_pose_file(traj, path)
        reader.join(timeout=30)
        assert received == [pose_file_text(traj).encode()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["walk.fifo"]


class TestReport:
    def test_deterministic_bytes(self, tmp_path):
        report = {"counts": {"accepted": 2, "rejected": 1}, "zeta": 1.5, "alpha": [3, 2]}
        a = tmp_path / "r1.json"
        b = tmp_path / "r2.json"
        write_report(report, a)
        write_report(dict(reversed(report.items())), b)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_raises(self, tmp_path):
        # Reports write no coerced values: a clip too short to measure reports None, not NaN.
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_report({"max_divergence_deg": float("nan")}, path)
        assert not path.exists()

    def test_numpy_integer_raises(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(TypeError):
            write_report({"n": np.int64(3)}, path)
        assert not path.exists()


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=30,
)
_finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@st.composite
def _landmark(draw):
    x1 = draw(_finite)
    y1 = draw(_finite)
    return LandmarkAnnotation(
        clip_id=draw(_text),
        goal_frame=draw(st.integers(min_value=0, max_value=10_000)),
        bbox=(x1, y1, x1 + draw(st.floats(0, 100)), y1 + draw(st.floats(0, 100))),
        name=draw(_text),
        instruction=draw(_text),
    )


@settings(max_examples=50)
@given(st.lists(_landmark(), max_size=5))
def test_landmark_round_trip_property(tmp_path_factory, lms):
    path = tmp_path_factory.mktemp("lm") / "lm.jsonl"
    write_landmarks(lms, path)
    assert parse_landmarks(path) == lms


@st.composite
def _training_sample(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.integers(min_value=0, max_value=500))
    return TrainingSample(
        sample_id=draw(_text),
        clip_id=draw(_text),
        instruction=draw(_text),
        t=t,
        t_g=t + draw(st.integers(min_value=0, max_value=60)),
        history_frames=tuple(max(0, t - j) for j in range(8, 0, -1)),
        waypoints=tuple(EgoWaypoint(draw(_finite), draw(_finite)) for _ in range(k)),
        arrival=draw(st.booleans()),
    )


@settings(max_examples=50)
@given(st.lists(_training_sample(), max_size=5))
def test_sample_round_trip_property(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("samples") / "s.jsonl"
    write_records(samples, path)
    assert parse_samples(path) == samples


@st.composite
def _prediction(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    wps = lambda: tuple(EgoWaypoint(draw(_finite), draw(_finite)) for _ in range(k))
    return PredictionRecord(
        sample_id=draw(_text),
        predicted=wps(),
        ground_truth=wps(),
        predicted_arrival=draw(st.one_of(st.none(), st.floats(0, 1))),
        arrival_label=draw(st.one_of(st.none(), st.booleans())),
    )


@settings(max_examples=50)
@given(st.lists(_prediction(), max_size=5))
def test_prediction_round_trip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("pred") / "p.jsonl"
    write_predictions(records, path)
    assert records_of(parse_predictions(path)) == records


class TestUnpickleThroughConstructor:
    """A pool under spawn or forkserver pickles the bound trajectory: the copy is validated and read-only too."""

    def _trajectory(self):
        return RawTrajectory("t", 10.0, [0.0, 0.1], np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)))

    def _table(self):
        return prediction_table_of([PredictionRecord("s0", ((1.0, 0.0),), ((1.0, 0.5),), 0.5, True)])

    @pytest.mark.parametrize("make", ["_trajectory", "_table"])
    def test_copy_is_equal_and_read_only(self, make):
        original = getattr(self, make)()
        back = pickle.loads(pickle.dumps(original))
        for f in dataclasses.fields(original):
            value = getattr(back, f.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(original, f.name)) and not value.flags.writeable, f.name
            else:
                assert value == getattr(original, f.name), f.name

    @pytest.mark.parametrize(
        "make, field, value, message",
        [("_trajectory", "timestamps", np.array([0.1, 0.0]), "timestamps must be strictly increasing"),
         ("_table", "predicted", np.zeros((2, 2)), "inconsistent prediction table arrays")],
    )
    def test_copy_is_validated(self, make, field, value, message):
        original = getattr(self, make)()
        object.__setattr__(original, field, value)  # what the constructor would reject
        data = pickle.dumps(original)
        with pytest.raises(ValidationError, match=message):
            pickle.loads(data)


# Fields and separators of drawn pose lines: numbers, values np.loadtxt rejects or reads as non-finite,
# non-ASCII digits, Unicode whitespace, and the line ends that universal newlines read.
_POSE_NUMBERS = ["0", "1.5", "-2e3", ".5", "1.", "+1"]
_POSE_FIELDS = _POSE_NUMBERS + ["nan", "-inf", "1e400", "Infinity", "1_0", "١", "１", "x", "0x10", "1e", "--1",
                                "1d0", "1j", "1,5"]
_POSE_SEPARATORS = [" "] * 6 + ["\t", "\u3000", "\u00a0", "\u2000", "\u2028", "\x0b", "\x0c", "\x1c", "\x1f",
                                "\x85", "\u200b", "\r", "\r\n", ","]


@st.composite
def _pose_line(draw):
    lead = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
    kind = draw(st.sampled_from(["pose", "pose", "pose", "comment", "blank"]))
    if kind != "pose":
        return lead + ("# note" if kind == "comment" else "")
    n = draw(st.sampled_from([7, 8, 8, 8, 9]))
    fields = [draw(st.sampled_from(_POSE_NUMBERS if draw(st.booleans()) else _POSE_FIELDS)) for _ in range(n)]
    text = lead + fields[0] + "".join(draw(st.sampled_from(_POSE_SEPARATORS)) + f for f in fields[1:])
    return text + draw(st.sampled_from(["", " ", "#x", " # tail", "\t"]))


def _loadtxt_rejects(text: str) -> bool:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on empty input
            data = np.loadtxt(StringIO(text, newline=None), comments="#", dtype=float, ndmin=2)
    except ValueError:
        return True
    return bool(data.size) and (data.shape[1] != 8 or not np.isfinite(data).all())


@settings(max_examples=300, deadline=None)
@given(st.lists(_pose_line(), min_size=1, max_size=4))
def test_pose_line_scan_rejects_what_loadtxt_rejects(lines):
    # parse_pose_file reads text with universal newlines, as StringIO(newline=None) does.
    text = "\n".join(lines) + "\n"
    try:
        _check_pose_lines(StringIO(text, newline=None), "p.txt")
    except ParseError:
        rejected = True
    else:
        rejected = False
    assert rejected == _loadtxt_rejects(text)


# ---------------------------------------------------------------------------
# orjson reads a subset of each reader's language, to the same values
# ---------------------------------------------------------------------------


# Other ways to write a value, which np.loadtxt reads to the same float; of these, the orjson subset takes only
# long-mantissa and upper-exponent.
_SAME_VALUE_FORMS = {
    "plus": lambda r: "+" + r if r[0] != "-" else None,
    "leading-dot": lambda r: r.replace("0.", ".", 1) if r.lstrip("-").startswith("0.") else None,
    "trailing-dot": lambda r: r[:-1] if r.endswith(".0") else None,
    "leading-zero": lambda r: r.replace(r.lstrip("-"), "0" + r.lstrip("-")),
    "long-mantissa": lambda r: f"{float(r):.25e}",
    "upper-exponent": lambda r: f"{float(r):.17E}",
}


@st.composite
def _pose_text(draw):
    """A pose file's bytes: repr lines that orjson takes, some with one edge that only np.loadtxt takes or both reject."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    quats = rng.normal(size=(n, 4))
    values = np.column_stack([np.arange(n) * 0.1 + rng.uniform(0.0, 0.05, n), rng.normal(0.0, 10.0, (n, 3)),
                              quats / np.linalg.norm(quats, axis=1, keepdims=True)])
    lines = [draw(st.sampled_from(["", "# walk fps=10.0\n", "# ẅalk\n# timestamp tx ty tz qx qy qz qw\n"] * 3
                                  + ["# a\r\n", "# a\r"]))]
    for row in values.tolist():
        fields, seps, end, extra = list(map(repr, row)), [" "] * 7, "\n", ""
        edge = draw(st.sampled_from([None] * 12 + ["value", "separator", "end", "line"]))
        if edge == "value":
            i, form = draw(st.integers(0, 7)), draw(st.sampled_from(
                [*_SAME_VALUE_FORMS, "-0", "int", "nan", "inf", "1e400", "20-digits"]))
            if form in _SAME_VALUE_FORMS:
                fields[i] = _SAME_VALUE_FORMS[form](fields[i]) or fields[i]
            elif form in ("-0", "int"):  # a position: it takes any value
                fields[draw(st.integers(1, 3))] = "-0" if form == "-0" else str(draw(st.integers(-10**20, 10**20)))
            else:
                fields[i] = "123456789012345678901.5" if form == "20-digits" else form
        elif edge == "separator":
            seps[draw(st.integers(0, 6))] = draw(st.sampled_from(["  ", "\t"]))
        elif edge == "end":
            end = draw(st.sampled_from(["\r\n", "\r", " # note\n", "#\n", " \n"]))
        elif edge == "line":
            extra = draw(st.sampled_from(["\n", "# mid-file\n", "  \n"]))
        lines.append(fields[0] + "".join(s + f for s, f in zip(seps, fields[1:])) + end + extra)
    text = "".join(lines)
    return (text if draw(st.integers(0, 9)) else text.rstrip("\n")).encode()


@settings(max_examples=300, deadline=None)
@given(text=_pose_text(), block=st.integers(1, 600))
def test_pose_file_reads_as_loadtxt_does(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("poses") / "walk.txt"
    path.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tio, "READ_BYTES", block)  # blocks straddle lines
        assert outcome(parse_pose_file, path, 10.0) == outcome(loadtxt_pose_file, path, 10.0)


_L0, _L1, _L2 = "0.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n", "0.1 1.5 -2.0 3.25 0.0 0.0 0.0 1.0\n", "0.2 3.0 -4.0 6.5 0.0 0.0 0.6 0.8\n"


def _pose_text_with(header: str = "# walk fps=10.0\n", line: str = _L1) -> bytes:
    return (header + _L0 + line + _L2).encode("utf-8", "surrogateescape")


# Files that the orjson subset takes whole, and files that hold one edge of it (a line, or the header, changed).
_POSE_SUBSET = {
    "plain": _pose_text_with(),
    "utf8-header": _pose_text_with("# ẅalk \x85\n# timestamp tx ty tz qx qy qz qw\n"),
    "no-header": _pose_text_with(""),
    "exponents": _pose_text_with(line="1e-05 1.5E+16 -2e-07 3.25e0 0.0 0.0 0.0 1.0\n"),
    "long-mantissa": _pose_text_with(line="0.1 1.50000000000000000000001 -2.0 3.25 0.0 0.0 0.0 1.0\n"),
    "no-final-newline": _pose_text_with()[:-1],
}
_POSE_EDGES = {
    "tab": _pose_text_with(line=_L1.replace(" ", "\t", 1)),
    "double-space": _pose_text_with(line=_L1.replace(" ", "  ", 1)),
    "leading-space": _pose_text_with(line=" " + _L1),
    "trailing-space": _pose_text_with(line=_L1.replace("\n", " \n")),
    "crlf": _pose_text_with(line=_L1.replace("\n", "\r\n")),
    "lone-cr": _pose_text_with(line=_L1.replace("\n", "\r")),
    "plus": _pose_text_with(line="+" + _L1),
    "leading-dot": _pose_text_with(line="." + _L1[2:]),
    "trailing-dot": _pose_text_with(line=_L1.replace("-2.0", "-2.")),
    "leading-zero": _pose_text_with(line=_L1.replace("1.5", "01.5")),
    "int-token": _pose_text_with(line=_L1.replace("-2.0", "-2")),
    "minus-zero": _pose_text_with(line=_L1.replace("0.0 0.0 0.0 1.0", "-0 0.0 0.0 1.0")),
    "inline-comment": _pose_text_with(line=_L1.replace("\n", " # note\n")),
    "comment-line": _pose_text_with(line="# note\n" + _L1),
    "blank-line": _pose_text_with(line="\n" + _L1),
    "inf": _pose_text_with(line=_L1.replace("1.5", "inf")),
    "nan": _pose_text_with(line=_L1.replace("1.5", "nan")),
    "1e400": _pose_text_with(line=_L1.replace("1.5", "1e400")),
    "non-numeric": _pose_text_with(line=_L1.replace("1.5", "x")),
    "seven-fields": _pose_text_with(line=_L1[4:]),
    "nine-fields": _pose_text_with(line=_L1.replace("\n", " 1.0\n")),
    "one-field-lines": b"0.5\n0.6\n",
    "cr-in-header": _pose_text_with("# walk fps=10.0\r"),
    "not-utf8-header": _pose_text_with("# \udcff\n"),
    "not-utf8-line": _pose_text_with(line=_L1.replace("1.5", "1.5\udcff")),
    "bom": b"\xef\xbb\xbf" + _pose_text_with(""),
}


@pytest.mark.parametrize("text", [*_POSE_SUBSET.values(), *_POSE_EDGES.values()],
                         ids=[*_POSE_SUBSET, *_POSE_EDGES])
def test_pose_file_subset_edges(tmp_path, monkeypatch, text):
    # A file outside the subset is read by np.loadtxt whole: the same bits, or the same error line.
    path = tmp_path / "walk.txt"
    path.write_bytes(text)
    expected = outcome(loadtxt_pose_file, path, 10.0)
    taken = []
    pose_values = tio._pose_values
    monkeypatch.setattr(tio, "_pose_values", lambda fh: taken.append(pose_values(fh)) or taken[-1])
    assert outcome(parse_pose_file, path, 10.0) == expected
    assert (taken[0] is None) == (text in _POSE_EDGES.values())


def test_pose_file_from_a_pipe_takes_the_subset(tmp_path, monkeypatch):
    # A pipe is held and rewound as a file is: the newline count and the blocks read the same bytes, hashed once.
    traj = _walk(5000)
    write_pose_file(traj, tmp_path / "walk.txt")
    data = (tmp_path / "walk.txt").read_bytes()
    monkeypatch.setattr(np, "loadtxt", None)  # the subset alone reads a written file
    path = tmp_path / "walk.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        back = parse_pose_file(path, 30.0, traj_id="walk")
    finally:
        writer.join(timeout=10)
    assert outcome(lambda: back) == outcome(lambda: traj)
    assert tio.file_digest(path) == hashlib.sha256(data).hexdigest()


def _det_line(frame="3", label='"a"', number="1.5", extra=""):
    return f'{{"frame":{frame},"detections":[{{"label":{label},"bbox":[-1e300,0.0,{number},1e300],"score":0.5}}]{extra}}}'


def _pred_line(frame=None, label='"a"', number="1.5", extra=""):  # a prediction has no int field: frame is unused
    return f'{{"sample_id":{label},"predicted":[[{number},0.0]],"ground_truth":[[1.0,2.0]]{extra}}}'


# Record lines on which orjson and json may differ: each file gives what json alone gives (the same table, or
# the same error line), through orjson or through the fallback. Key: the line's fields, or a whole file.
_RECORD_DIVERGENCES = {
    "plain": {},
    "duplicate-key": {"label": '"a","sample_id":"b","label":"b"', "frame": '3,"frame":7'},
    "int-2**64-in-float": {"number": "18446744073709551616"},
    "int-2**64+1-in-float": {"number": "18446744073709551617"},
    "int-30-digits-in-float": {"number": "1" + "0" * 30},
    "int-below-int64-in-float": {"number": "-9223372036854775809"},
    "int-2**64-1-in-int-field": {"frame": "18446744073709551615"},
    "int-2**64-in-int-field": {"frame": "18446744073709551616"},
    "minus-zero-int": {"number": "-0"},
    "minus-zero-float": {"number": "-0.0"},
    "26-digit-mantissa": {"number": "1.0000000000000000000000001"},
    "underflow": {"number": "1e-400"},
    "subnormal": {"number": "2.4703282292062328e-324"},
    "NaN": {"number": "NaN"},
    "-Infinity": {"number": "-Infinity"},
    "1e400": {"number": "1e400"},
    "lone-surrogate": {"label": '"\\ud800"'},
    "escaped-pair": {"label": '"\\ud83d\\ude00"'},
    "raw-non-ascii": {"label": '"ẅ "'},
    "not-utf8": {"label": '"\udcff"'},
    "utf8-surrogate": {"label": '"\udced\udca0\udc80"'},
    "control-char": {"label": '"a\tb"'},
    "del-char": {"label": '"a\x7fb"'},
    "deep-field": {"number": "[" * 2000 + "]" * 2000},
    "ignored-key": {"extra": ',"x":{"y":[1,2,3e400,NaN]}'},
    "bom": "﻿{line}\n",
    "blank-lines": "\n{line}\n  \n\x0c\n \n",
    "unicode-space-around": " {line} \n",
    "crlf": "{line}\r\n{line}\r\n",
    "lone-cr": "{line}\r{bad}\n",
    "lone-cr-valid": "{line}\r{line}\n",
    "cr-at-end": "{line}\n{line}\r",
    "trailing-garbage": "{line} x\n",
    "two-values": "{line} {{}}\n",
    "not-an-object": "[1]\n",
    "no-final-newline": "{line}",
    "empty": "",
}


def _record_file(make, case) -> bytes:
    body = _RECORD_DIVERGENCES[case]
    line, bad = make(), make(number='"x"')
    if isinstance(body, dict):
        text = f"{line}\n{make(**body)}\n{line}\n"
    else:
        text = body.format(line=line, bad=bad)
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("case", _RECORD_DIVERGENCES)
@pytest.mark.parametrize("parse, make", [(parse_detections, _det_line), (parse_predictions, _pred_line)],
                         ids=["detections", "predictions"])
def test_record_line_reads_as_json_does(tmp_path, parse, make, case):
    path = tmp_path / "records.jsonl"
    path.write_bytes(_record_file(make, case))
    with without_orjson():
        expected = outcome(parse, path)
    assert outcome(parse, path) == expected


@pytest.mark.parametrize("lone_cr", [b"\r", b"\r\r\n"])
def test_lone_cr_ends_a_record_line(tmp_path, lone_cr):
    # TextIOWrapper, whose line numbers an error names, ends a line at a lone "\r"; a byte line does not.
    path = tmp_path / "records.jsonl"
    line, bad = _det_line().encode(), _det_line(number='"x"').encode()
    path.write_bytes(line + lone_cr + line + b"\n" + bad + b"\n")
    with pytest.raises(ParseError) as exc:
        parse_detections(path)
    assert exc.value.line == (3 if lone_cr == b"\r" else 4)
    path.write_bytes(line + lone_cr + line + b"\r")
    assert len(parse_detections(path).scores) == 2


@pytest.mark.parametrize("parse, make", [(parse_detections, _det_line), (parse_predictions, _pred_line)],
                         ids=["detections", "predictions"])
def test_ignored_key_nested_past_the_recursion_limit(tmp_path, parse, make):
    # The one accepted divergence: json fails on a value nested past the interpreter's recursion limit, orjson
    # reads it; in a key the record ignores, the record is read. In a field it still fails as json says.
    path = tmp_path / "records.jsonl"
    path.write_text(make(extra=',"x":' + "[" * 1500 + "]" * 1500) + "\n")
    with without_orjson():
        assert outcome(parse, path) == ("ParseError", f"{path}:1: JSON value nested too deep", 1)
    path.write_text(make() + "\n")
    expected = outcome(parse, path)
    path.write_text(make(extra=',"x":' + "[" * 1500 + "]" * 1500) + "\n")
    assert outcome(parse, path) == expected


def _float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=1500, deadline=None)
@given(bits=st.integers(0, 2**64 - 1))
def test_orjson_reads_a_float_as_float_does(bits):
    # The pose and record readers take orjson's floats for json's and np.loadtxt's: both round correctly.
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assume(math.isfinite(x))
    texts = [repr(x), f"{x:.25e}", f"{x:.40e}", f"{x:.17E}"]
    up = math.nextafter(x, math.inf)
    if math.isfinite(up):
        with decimal.localcontext(prec=2000):
            mid = (decimal.Decimal(x) + decimal.Decimal(up)) / 2  # exactly halfway: ties to even
            nudge = decimal.Decimal(10) ** (mid.adjusted() - 60)
            texts += [format(mid, "e"), format(mid + nudge, "e"), format(mid - nudge, "e")]
    for text in texts:
        assert _float_bits(orjson.loads(text.encode())) == _float_bits(float(text)), text


@settings(max_examples=1500, deadline=None)
@given(text=st.from_regex(r"\A-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,40})?([eE][-+]?[0-9]{1,3})?\Z"))
def test_orjson_reads_a_decimal_as_json_does(text):
    # An int below 2**64 is an int in both (so -0 is 0); one at or past it is a float in orjson, an int in json,
    # and a float column holds the same value of either.
    if not math.isfinite(float(text)):  # json reads inf, or an int past the float range
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text.encode())
        return
    assert _float_bits(float(orjson.loads(text.encode()))) == _float_bits(float(json.loads(text)))


class TestQuaternionNorm:
    @pytest.mark.parametrize("norm", [1.0 - 0.99 * tio.QUAT_NORM_TOL, 1.0 + 0.99 * tio.QUAT_NORM_TOL, 1.0 + 1e-6])
    def test_within_the_bound_is_renormalised(self, norm):
        traj = RawTrajectory("t", 10.0, [0.0, 0.1], np.zeros((2, 3)), [[0.0, 0.0, 0.0, 1.0], [0.0, 0.6 * norm, 0.0, 0.8 * norm]])
        assert traj.quaternions[1].tolist() == pytest.approx([0.0, 0.6, 0.0, 0.8], abs=1e-15)

    @pytest.mark.parametrize("norm", [1.0 - 1.01 * tio.QUAT_NORM_TOL, 1.0 + 1.01 * tio.QUAT_NORM_TOL, 2.0, 1000.0])
    def test_past_the_bound_is_rejected(self, norm):
        quats = [[0.0, 0.0, 0.0, 1.0], [0.0, 0.6 * norm, 0.0, 0.8 * norm]]
        message = f"quaternion at index 1 has norm {float(np.linalg.norm(quats[1]))!r}, not within 0.001 of 1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RawTrajectory("t", 10.0, [0.0, 0.1], np.zeros((2, 3)), quats)

    def test_doubled_quaternions_exit_2(self, tmp_path, capsys):
        # Every quaternion of a stream doubled: segment used to rescale them all and exit 0.
        (tmp_path / "walk.txt").write_text("".join(f"{i / 30.0!r} 0.0 0.0 0.0 0.0 0.0 0.0 2.0\n" for i in range(40)))
        rc = cli.main(["segment", "--input", str(tmp_path / "walk.txt"), "--fps", "30", "--clip-seconds", "1",
                       "--out", str(tmp_path / "clips")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "detail": f"{tmp_path / 'walk.txt'}: quaternion at index 0 has norm 2.0, not within 0.001 of 1"}
