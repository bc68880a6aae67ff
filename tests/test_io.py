import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcurate.errors import ParseError, ValidationError
from navcurate.io import (
    Detection,
    LandmarkAnnotation,
    PredictionRecord,
    RawTrajectory,
    TrainingSample,
    parse_detections,
    parse_landmarks,
    parse_pose_file,
    parse_predictions,
    parse_samples,
    write_landmarks,
    write_pose_file,
    write_predictions,
    write_report,
    write_samples,
)

from oracles import EgoWaypoint


class TestPoseFile:
    def test_single_identity_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 0 0 0 0 0 0 1\n")
        traj = parse_pose_file(path, fps=30.0)
        assert len(traj) == 1
        assert traj.id == "traj"
        assert np.allclose(traj.quaternions[0], [0, 0, 0, 1])

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
        assert traj.duration == pytest.approx(3599 / 30.0, abs=1e-12)

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
        assert parse_detections(path) == []

    def test_duplicate_frames_merge(self, tmp_path):
        path = tmp_path / "d.jsonl"
        det = {"label": "person", "bbox": [0, 0, 10, 10], "score": 0.9}
        path.write_text(
            json.dumps({"frame": 5, "detections": [det, det]})
            + "\n"
            + json.dumps({"frame": 5, "detections": [det, det, det]})
            + "\n"
        )
        frames = parse_detections(path)
        assert len(frames) == 1
        assert frames[0].frame == 5
        assert len(frames[0].detections) == 5

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"frame": 0, "detections": [{"label": "person", "bbox": [0, 0, 1, 1], "score": 1.2}]}) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_detections(path)
        assert exc.value.line == 1

    def test_sorted_by_frame(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"frame": 7, "detections": []}) + "\n" + json.dumps({"frame": 2, "detections": []}) + "\n"
        )
        frames = parse_detections(path)
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
        (frame,) = parse_detections(path)
        assert frame.frame == 4
        assert frame.detections == (Detection("person", (0.0, 0.0, 10.0, 10.0), 1.0),)

    def test_first_offending_line_reported(self, tmp_path):
        # Line 2 fails a range check (found after the pass), line 3 a type
        # check (found while streaming): the earlier line is reported.
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
        with pytest.raises(ParseError) as exc:
            parse_detections(path)
        assert exc.value.line == 2
        assert "corners out of order" in str(exc.value)


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
        write_samples(samples, path)
        assert parse_samples(path) == samples

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_samples([], path)
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
        write_samples([_sample(0)], path)
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
        write_samples([_sample(0)], path)
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
        assert parse_predictions(path) == records

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PredictionRecord("s", (EgoWaypoint(1, 0),), (EgoWaypoint(1, 0), EgoWaypoint(2, 0)))

    def test_arrival_probability_range(self):
        with pytest.raises(ValidationError):
            PredictionRecord("s", (EgoWaypoint(1, 0),), (EgoWaypoint(1, 0),), predicted_arrival=1.5)


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


class TestReport:
    def test_deterministic_bytes(self, tmp_path):
        report = {"counts": {"accepted": 2, "rejected": 1}, "zeta": 1.5, "alpha": [3, 2]}
        a = tmp_path / "r1.json"
        b = tmp_path / "r2.json"
        write_report(report, a)
        write_report(dict(reversed(report.items())), b)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_report({"max_divergence_deg": float("nan")}, path)
        assert json.loads(path.read_text())["max_divergence_deg"] is None

    def test_numpy_scalars_serialized(self, tmp_path):
        path = tmp_path / "r.json"
        write_report({"n": np.int64(3), "x": np.float64(0.5)}, path)
        assert json.loads(path.read_text()) == {"n": 3, "x": 0.5}


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
    write_samples(samples, path)
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
    assert parse_predictions(path) == records
