import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from navcurate import schema
from navcurate.errors import InvalidSpec
from navcurate.geometry import pitch_many, yaw_many
from navcurate.io import parse_detections, write_detections
from navcurate.segmentation import segment
from navcurate.synth import (
    CLIP_CONVENTION,
    RAW_CONVENTION,
    SynthSpec,
    generate,
    generate_detections,
    generate_landmarks,
)

from conftest import quat_close
from oracles import pose_at, relative_pose


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            SynthSpec("zigzag")

    def test_turn_interval_must_fit(self):
        with pytest.raises(InvalidSpec):
            SynthSpec("head_turn", duration_s=10.0, turn_start_s=9.0, turn_len_s=3.0)

    def test_composite_needs_parts(self):
        with pytest.raises(InvalidSpec):
            SynthSpec("composite")

    def test_composite_rejects_mixed_fps(self):
        with pytest.raises(InvalidSpec):
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
        clip = segment(traj, 120.0)[0]
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
        spec = SynthSpec("head_turn", turn_deg=70.0, turn_start_s=20.0, turn_len_s=5.0, seed=3)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.quaternions, b.quaternions)


class TestDetections:
    def test_all_zero_schedule(self):
        frames = generate_detections(5, [0, 0, 0, 0, 0])
        assert len(frames) == 5
        assert all(len(f.detections) == 0 for f in frames)

    def test_crowd_burst(self):
        frames = generate_detections(100, [6] * 4)
        crowded = [f for f in frames if len(f.detections) == 6]
        assert len(crowded) == 4
        assert [f.frame for f in crowded] == [0, 1, 2, 3]
        assert all(len(f.detections) == 0 for f in frames[4:])

    def test_round_trip_through_io(self, tmp_path):
        frames = generate_detections(10, [2, 0, 3])
        path = tmp_path / "d.jsonl"
        write_detections(frames, path)
        assert parse_detections(path) == frames

    def test_boxes_have_fixed_geometry_and_score(self):
        (frame,) = generate_detections(1, [3])
        assert all(d.score == 0.9 and d.label == "person" for d in frame.detections)
        assert all(d.bbox[0] < d.bbox[2] and d.bbox[1] < d.bbox[3] for d in frame.detections)


class TestLandmarks:
    def _clip(self):
        return segment(generate(SynthSpec("straight", duration_s=120.0, fps=30.0)), 120.0)[0]

    def test_goal_frames_in_second_half(self):
        clip = self._clip()
        landmarks = generate_landmarks(clip, 5, seed=1)
        assert len(landmarks) == 5
        frames = [lm.goal_frame for lm in landmarks]
        assert all(len(clip) // 2 <= g < len(clip) for g in frames)
        assert frames == sorted(frames)
        assert len(set(frames)) == 5

    def test_instruction_format(self):
        clip = self._clip()
        lm = generate_landmarks(clip, 1, seed=0)[0]
        assert lm.instruction == f"go to landmark #0 near {clip.clip_id}"
        assert lm.clip_id == clip.clip_id

    def test_deterministic(self):
        clip = self._clip()
        assert generate_landmarks(clip, 4, seed=9) == generate_landmarks(clip, 4, seed=9)

    def test_truncation_warns(self, caplog):
        clip = segment(generate(SynthSpec("straight", duration_s=1.0, fps=4.0)), 1.0)[0]
        with caplog.at_level(logging.WARNING):
            landmarks = generate_landmarks(clip, 50, seed=0)
        assert len(landmarks) == len(clip) - len(clip) // 2
        assert any("feasible goal frames" in r.message for r in caplog.records)
