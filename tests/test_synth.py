import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navcurate import schema
from navcurate.errors import ValidationError
from navcurate.geometry import pitch_many, yaw_many
from navcurate.io import BLOCK_ROWS, parse_detections
from navcurate.segmentation import segment
from navcurate.synth import (
    CLIP_CONVENTION,
    MAX_BOXES,
    MAX_POSES,
    RAW_CONVENTION,
    DetectionBlock,
    DetectionSpan,
    SynthSpec,
    generate,
    generate_detections,
    generate_landmarks,
    write_detection_file,
)

from conftest import clips_of, quat_close
from oracles import detection_file_text, detection_frames, frames_of, pose_at, relative_pose


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind must be one of"):
            SynthSpec("zigzag")

    def test_turn_interval_must_fit(self):
        with pytest.raises(ValidationError, match="turn interval must lie inside the duration"):
            SynthSpec("head_turn", duration_s=10.0, turn_start_s=9.0, turn_len_s=3.0)

    def test_composite_needs_parts(self):
        with pytest.raises(ValidationError, match="composite needs at least one part"):
            SynthSpec("composite")

    def test_composite_rejects_mixed_fps(self):
        with pytest.raises(ValidationError, match="composite parts must share one fps"):
            SynthSpec(
                "composite",
                parts=(SynthSpec("straight", fps=30.0), SynthSpec("straight", fps=25.0)),
            )

    def test_load_round_trip(self):
        spec = SynthSpec("head_turn", turn_deg=70.0, turn_start_s=10.0, turn_len_s=3.0)
        assert schema.load(SynthSpec, json.loads(json.dumps(dataclasses.asdict(spec)))) == spec


class TestStraight:
    def test_frame_count_and_displacement(self):
        traj = generate(SynthSpec("straight", duration_s=120.0, fps=30.0, speed_mps=1.4))
        assert len(traj) == 3600
        # Samples at t_i = i/fps: first-to-last displacement spans n-1 intervals.
        expected = 1.4 * 3599 / 30.0
        assert np.linalg.norm(traj.positions[-1] - traj.positions[0]) == pytest.approx(expected, abs=1e-9)

    def test_pitch_range_zero(self):
        traj = generate(SynthSpec("straight"))
        pitch = pitch_many(traj.quaternions, RAW_CONVENTION)
        assert float(pitch.max() - pitch.min()) == 0.0

    def test_view_matches_motion(self):
        traj = generate(SynthSpec("straight", duration_s=10.0))
        yaw = yaw_many(traj.quaternions, RAW_CONVENTION)
        assert np.allclose(yaw, 0.0, atol=1e-9)
        steps = np.diff(traj.positions, axis=0)
        assert np.allclose(np.degrees(np.arctan2(steps[:, 1], steps[:, 0])), 0.0, atol=1e-9)


class TestSinusoidPitch:
    def test_measured_range_matches_sampled_phase(self):
        spec = SynthSpec("sinusoid_pitch", duration_s=120.0, fps=30.0, amplitude_deg=10.0, period_s=4.0)
        traj = generate(spec)
        t = np.arange(len(traj)) / spec.fps
        analytic = spec.amplitude_deg * np.sin(2.0 * math.pi * t / spec.period_s)
        expected_range = float(analytic.max() - analytic.min())
        pitch = pitch_many(traj.quaternions, RAW_CONVENTION)
        measured = float(pitch.max() - pitch.min())
        assert measured == pytest.approx(expected_range, abs=1e-9)
        assert measured == pytest.approx(20.0, abs=0.01)

    def test_clip_space_preserves_pitch(self):
        traj = generate(SynthSpec("sinusoid_pitch", amplitude_deg=7.0))
        clip = clips_of(traj, 120.0)[0][1]
        pitch = pitch_many(clip.quaternions, CLIP_CONVENTION)
        assert float(pitch.max() - pitch.min()) == pytest.approx(14.0, abs=0.01)


class TestStationary:
    def test_every_relative_pose_is_identity(self):
        traj = generate(SynthSpec("stationary", duration_s=2.0, fps=10.0))
        anchor = pose_at(traj, 0)
        for i in range(len(traj)):
            rel = relative_pose(anchor, pose_at(traj, i))
            assert np.allclose(rel.position, 0.0, atol=1e-12)
            assert quat_close(rel.orientation, [0, 0, 0, 1], tol=1e-12)


class TestHeadTurn:
    def test_peak_offset_reached(self):
        spec = SynthSpec("head_turn", duration_s=120.0, fps=30.0, turn_deg=75.0, turn_start_s=30.0, turn_len_s=3.0)
        traj = generate(spec)
        yaw = yaw_many(traj.quaternions, RAW_CONVENTION)
        # Mid-turn at 31.5 s falls exactly on frame 945 at 30 fps.
        assert yaw[945] == pytest.approx(75.0, abs=1e-9)
        assert yaw[int(30.0 * spec.fps) - 1] == pytest.approx(0.0, abs=1e-9)
        assert yaw[int(33.0 * spec.fps) + 1] == pytest.approx(0.0, abs=1e-9)

    def test_body_keeps_walking_straight(self):
        traj = generate(SynthSpec("head_turn", turn_deg=60.0, turn_start_s=10.0, turn_len_s=4.0))
        assert np.allclose(traj.positions[:, 1:], 0.0, atol=1e-12)


class TestArc:
    def test_positions_on_circle(self):
        spec = SynthSpec("arc", duration_s=30.0, fps=30.0, speed_mps=1.5, yaw_rate_dps=6.0)
        traj = generate(spec)
        omega = math.radians(spec.yaw_rate_dps)
        radius = spec.speed_mps / omega
        center = np.array([0.0, radius, 0.0])
        distances = np.linalg.norm(traj.positions - center, axis=1)
        assert np.allclose(distances, radius, atol=1e-9)

    def test_heading_tracks_yaw_rate(self):
        spec = SynthSpec("arc", duration_s=10.0, fps=10.0, yaw_rate_dps=5.0)
        traj = generate(spec)
        yaw = yaw_many(traj.quaternions, RAW_CONVENTION)
        t = np.arange(len(traj)) / spec.fps
        assert np.allclose(yaw, 5.0 * t, atol=1e-9)


class TestComposite:
    def _spec(self):
        return SynthSpec(
            "composite",
            parts=(
                SynthSpec("straight", duration_s=4.0, fps=10.0),
                SynthSpec("arc", duration_s=4.0, fps=10.0, yaw_rate_dps=15.0),
                SynthSpec("straight", duration_s=4.0, fps=10.0),
            ),
        )

    def test_timestamps_strictly_increasing(self):
        traj = generate(self._spec())
        assert np.all(np.diff(traj.timestamps) > 0)
        assert len(traj) == 120

    def test_position_continuity_at_junctions(self):
        traj = generate(self._spec())
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        # No jump larger than two nominal step lengths anywhere.
        assert steps.max() <= 2 * 1.4 / 10.0

    def test_heading_continuity(self):
        traj = generate(self._spec())
        yaw = yaw_many(traj.quaternions, RAW_CONVENTION)
        jumps = np.abs(np.diff(yaw))
        assert np.nanmax(jumps) < 5.0


class TestDeterminism:
    def test_identical_specs_identical_arrays(self):
        spec = SynthSpec("head_turn", turn_deg=70.0, turn_start_s=20.0, turn_len_s=5.0)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.quaternions, b.quaternions)


class TestDetections:
    def test_all_zero_schedule(self):
        table = generate_detections(5, [0, 0, 0, 0, 0])
        assert len(table) == 5
        assert table.offsets.tolist() == [0] * 6
        assert all(len(f.detections) == 0 for f in frames_of(table))

    def test_crowd_burst(self):
        frames = frames_of(generate_detections(100, [6] * 4))
        crowded = [f for f in frames if len(f.detections) == 6]
        assert len(crowded) == 4
        assert [f.frame for f in crowded] == [0, 1, 2, 3]
        assert all(len(f.detections) == 0 for f in frames[4:])

    def test_round_trip_through_io(self, tmp_path):
        table = generate_detections(10, [2, 0, 3])
        path = tmp_path / "d.jsonl"
        write_detection_file(10, [2, 0, 3], path)
        assert frames_of(parse_detections(path)) == frames_of(table)

    @pytest.mark.parametrize("counts, index, value", [
        ([2.7, -4, True], 0, "2.7"), ([1, -4, True], 1, "-4"), ([1, 0, True], 2, "True"),
        ([np.int64(2), "3"], 1, "'3'"), (np.array([0, -1]), 1, "np.int64(-1)"), ([1, None], 1, "None"),
    ])
    def test_count_that_is_not_a_non_negative_integer_rejected(self, tmp_path, counts, index, value):
        # The first such count is named, also one past the frames kept; the writer writes no file.
        message = f"detection count {index} must be a non-negative integer, got {value}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            generate_detections(1, counts)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write_detection_file(1, counts, tmp_path / "d.jsonl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [2**63, 2**64, np.uint64(2**63)], ids=repr)
    def test_count_past_int64_rejected(self, tmp_path, count):
        # An int64 cannot hold it: the count is named, as a count of the wrong type is.
        message = f"detection count 0 must be below 2**63, got {count!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            generate_detections(1, [count])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write_detection_file(1, [count], tmp_path / "d.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_integer_counts_pad_and_cut(self):
        counts = DetectionBlock(schedule=(2, 0, 1)).counts(3)
        assert counts.dtype == np.int64
        assert np.diff(generate_detections(5, counts).offsets).tolist() == [2, 0, 1, 0, 0]
        assert np.diff(generate_detections(2, [np.int64(1), 3, 4]).offsets).tolist() == [1, 3]

    def test_boxes_have_fixed_geometry_and_score(self):
        table = generate_detections(1, [3])
        (frame,) = frames_of(table)
        assert all(d.score == 0.9 and d.label == "person" for d in frame.detections)
        assert all(d.bbox[0] < d.bbox[2] and d.bbox[1] < d.bbox[3] for d in frame.detections)
        assert table.names == ("person",)
        assert table.bboxes.tolist() == [[20.0, 40.0, 44.0, 160.0], [50.0, 40.0, 74.0, 160.0], [80.0, 40.0, 104.0, 160.0]]


def oracle_span_counts(spans, n_frames):
    """The per-frame counts of run-length spans, one frame at a time; a later span overwrites."""
    counts = [0] * n_frames
    for span in spans:
        for f in range(span.start, min(span.start + span.frames, n_frames)):
            counts[f] = span.count
    return counts


spans_strategy = st.lists(st.builds(DetectionSpan, st.integers(0, 50), st.integers(0, 30), st.integers(0, 7)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(frame_count=st.integers(0, 40), schedule=st.lists(st.integers(0, 7), max_size=60))
def test_generated_table_matches_oracle(frame_count, schedule):
    assert frames_of(generate_detections(frame_count, schedule)) == detection_frames(frame_count, schedule)
    counts = DetectionBlock(schedule=tuple(schedule)).counts(frame_count)
    assert counts.tolist() == [len(f.detections) for f in detection_frames(frame_count, schedule)]


@settings(max_examples=150, deadline=None)
@given(frame_count=st.integers(0, 60), spans=spans_strategy)
def test_span_counts_match_oracle(frame_count, spans):
    counts = DetectionBlock(spans=tuple(spans)).counts(frame_count)
    expected = oracle_span_counts(spans, frame_count)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected
    assert frames_of(generate_detections(frame_count, counts)) == detection_frames(frame_count, expected)


@settings(max_examples=60, deadline=None)
@given(
    frame_count=st.one_of(st.integers(0, 40), st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])),
    block=st.one_of(st.builds(DetectionBlock, schedule=st.lists(st.integers(0, 7), max_size=60).map(tuple)),
                    st.builds(DetectionBlock, spans=spans_strategy.map(tuple))),
)
@example(frame_count=BLOCK_ROWS + 1, block=DetectionBlock(schedule=()))  # every frame empty
@example(frame_count=3, block=DetectionBlock(schedule=(0, 5000)))
def test_written_file_matches_oracle(tmp_path_factory, frame_count, block):
    # A schedule goes in as written, to be padded or cut; spans as the counts they give.
    counts = list(block.schedule) if block.schedule is not None else block.counts(frame_count)
    path = tmp_path_factory.mktemp("det") / "d.jsonl"
    write_detection_file(frame_count, counts, path)
    assert path.read_bytes() == detection_file_text(generate_detections(frame_count, counts)).encode()


class TestBounds:
    def test_box_total_bound(self):
        at_bound = (DetectionSpan(0, 10, MAX_BOXES // 10),)
        assert int(DetectionBlock(spans=at_bound).counts(10).sum()) == MAX_BOXES
        with pytest.raises(ValidationError, match="detections.spans"):
            DetectionBlock(spans=at_bound + (DetectionSpan(3, 1, MAX_BOXES // 10 + 1),)).counts(10)
        with pytest.raises(ValidationError, match="detections.schedule"):
            DetectionBlock(schedule=(MAX_BOXES // 2, MAX_BOXES // 2, 1)).counts(3)

    def test_only_counts_on_the_stream_count(self):
        huge = 10**400
        # Overwritten, past the end of the stream, or over no frames: none of these boxes is generated.
        spans = (DetectionSpan(0, 5, huge), DetectionSpan(0, 5, 1), DetectionSpan(10, 3, huge), DetectionSpan(2, 0, huge))
        assert DetectionBlock(spans=spans).counts(10).tolist() == [1] * 5 + [0] * 5
        assert DetectionBlock(schedule=(1, 2, huge)).counts(2).tolist() == [1, 2]
        with pytest.raises(ValidationError, match="detections.schedule"):
            DetectionBlock(schedule=(1, 2, huge)).counts(3)
        with pytest.raises(ValidationError, match="detections.spans"):
            DetectionBlock(spans=spans[:1]).counts(10)

    def test_pose_bound(self):
        assert SynthSpec("straight", duration_s=MAX_POSES / 30.0, fps=30.0).poses == MAX_POSES
        for duration in ((MAX_POSES + 1) / 30.0, 1e308):
            with pytest.raises(ValidationError, match="duration_s"):
                SynthSpec("straight", duration_s=duration, fps=30.0)
        half = SynthSpec("straight", duration_s=MAX_POSES / 20.0, fps=10.0)
        assert SynthSpec("composite", parts=(half, half)).poses == MAX_POSES
        with pytest.raises(ValidationError, match="parts"):
            SynthSpec("composite", parts=(half, half, SynthSpec("straight", duration_s=0.1, fps=10.0)))


class TestLandmarks:
    def _entry(self):
        return segment(generate(SynthSpec("straight", duration_s=120.0, fps=30.0)), 120.0)[0]

    def test_goal_frames_in_second_half(self):
        entry = self._entry()
        landmarks = generate_landmarks(entry, 5, seed=1)
        assert len(landmarks) == 5
        frames = [lm.goal_frame for lm in landmarks]
        assert all(entry.n_frames // 2 <= g < entry.n_frames for g in frames)
        assert frames == sorted(frames)
        assert len(set(frames)) == 5

    def test_instruction_format(self):
        entry = self._entry()
        lm = generate_landmarks(entry, 1, seed=0)[0]
        assert lm.instruction == f"go to landmark #0 near {entry.clip_id}"
        assert lm.clip_id == entry.clip_id

    def test_deterministic(self):
        entry = self._entry()
        assert generate_landmarks(entry, 4, seed=9) == generate_landmarks(entry, 4, seed=9)

    def test_truncation_caps_at_goal_frames(self):
        entry = segment(generate(SynthSpec("straight", duration_s=1.0, fps=4.0)), 1.0)[0]
        landmarks = generate_landmarks(entry, 50, seed=0)
        assert len(landmarks) == entry.n_frames - entry.n_frames // 2
