import numpy as np
import pytest

from navcurate.errors import GimbalDegenerate, Infeasible, OutOfBounds, ValidationError
from navcurate.filters import FilterVerdict
from navcurate.geometry import quat_between
from navcurate.io import LandmarkAnnotation, RawTrajectory, write_samples
from navcurate.sampling import (
    CLIP_SKIP_REASONS,
    SamplerConfig,
    build_clip_samples,
    build_corpus,
    draw_rng,
    draw_start,
)
from navcurate.segmentation import Clip, segment
from navcurate.synth import CLIP_CONVENTION, RAW_CONVENTION, SynthSpec, generate, generate_landmarks

from oracles import build_sample, pose_at, to_ego_waypoint


def landmark(clip_id="walk_0000", goal_frame=100, text="go to the kiosk"):
    return LandmarkAnnotation(clip_id, goal_frame, (0.0, 0.0, 10.0, 10.0), "kiosk", text)


def accepted_verdict(clip):
    return FilterVerdict(clip.clip_id, True, (), {})


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.history_len == 8
        assert cfg.horizon == 8
        assert (cfg.min_offset, cfg.max_offset) == (10, 60)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_offset": 0},
            {"min_offset": 20, "max_offset": 10},
            {"arrival_window": 10},
            {"arrival_fraction": 1.5},
            {"horizon": 0},
            {"seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            SamplerConfig(**kwargs)


class TestDrawStart:
    def test_non_arrival_interval(self):
        cfg = SamplerConfig(arrival_fraction=0.0)
        rng = np.random.default_rng(7)
        draws = [draw_start(100, cfg, rng) for _ in range(2000)]
        assert min(draws) >= 40
        assert max(draws) <= 90
        assert set(draws) == set(range(40, 91))

    def test_arrival_interval(self):
        cfg = SamplerConfig(arrival_fraction=1.0)
        rng = np.random.default_rng(7)
        draws = {draw_start(100, cfg, rng) for _ in range(200)}
        assert draws == {98, 99, 100}

    def test_infeasible_goal(self):
        rng = np.random.default_rng(0)
        with pytest.raises(Infeasible):
            draw_start(5, SamplerConfig(), rng)

    def test_infeasible_wins_over_arrival_branch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(Infeasible):
            draw_start(5, SamplerConfig(arrival_fraction=1.0), rng)

    def test_interval_clamped_at_zero(self):
        cfg = SamplerConfig(arrival_fraction=0.0)
        rng = np.random.default_rng(3)
        draws = {draw_start(15, cfg, rng) for _ in range(500)}
        assert draws == set(range(0, 6))

    def test_draw_rng_reproducible(self):
        a = draw_rng(5, "clip_x", 2, 1).integers(0, 1 << 30)
        b = draw_rng(5, "clip_x", 2, 1).integers(0, 1 << 30)
        c = draw_rng(5, "clip_x", 2, 2).integers(0, 1 << 30)
        assert a == b
        assert a != c


def unit_step_clip(fps=10.0, duration=30.0):
    """Straight walk covering 1 m per frame (speed == fps)."""
    traj = generate(SynthSpec("straight", duration_s=duration, fps=fps, speed_mps=fps, traj_id="walk"))
    return traj, segment(traj, duration)[0]


class TestBuildSample:
    def test_stationary_clip_zero_waypoints(self):
        traj = generate(SynthSpec("stationary", duration_s=30.0, fps=10.0, traj_id="still"))
        clip = segment(traj, 30.0)[0]
        sample = build_sample(clip, landmark("still_0000", 150), 100, SamplerConfig(), CLIP_CONVENTION)
        assert all(w == (0.0, 0.0) for w in sample.waypoints)

    def test_unit_steps_forward(self):
        _, clip = unit_step_clip()
        sample = build_sample(clip, landmark(clip.clip_id, 150), 100, SamplerConfig(), CLIP_CONVENTION)
        for i, (x, y) in enumerate(sample.waypoints, start=1):
            assert x == pytest.approx(float(i), abs=1e-9)
            assert y == pytest.approx(0.0, abs=1e-9)

    def test_arrival_label_rule(self):
        _, clip = unit_step_clip()
        cfg = SamplerConfig()
        near = build_sample(clip, landmark(clip.clip_id, 101), 100, cfg, CLIP_CONVENTION)
        far = build_sample(clip, landmark(clip.clip_id, 150), 100, cfg, CLIP_CONVENTION)
        assert near.arrival is True
        assert far.arrival is False

    def test_history_clamped_at_zero(self):
        _, clip = unit_step_clip()
        sample = build_sample(clip, landmark(clip.clip_id, 100), 3, SamplerConfig(), CLIP_CONVENTION)
        assert sample.history_frames == (0, 0, 0, 0, 0, 1, 2, 3)

    def test_stride_spacing(self):
        _, clip = unit_step_clip()
        cfg = SamplerConfig(waypoint_stride=3)
        sample = build_sample(clip, landmark(clip.clip_id, 200), 50, cfg, CLIP_CONVENTION)
        assert sample.history_frames == tuple(range(50 - 7 * 3, 51, 3))
        assert sample.waypoints[0][0] == pytest.approx(3.0, abs=1e-9)
        assert sample.waypoints[-1][0] == pytest.approx(24.0, abs=1e-9)

    def test_out_of_bounds(self):
        _, clip = unit_step_clip()
        with pytest.raises(OutOfBounds):
            build_sample(clip, landmark(clip.clip_id, 299), 295, SamplerConfig(), CLIP_CONVENTION)

    def test_waypoints_rederive_through_raw_frame(self, rng):
        # Independent route: express the same future positions in the raw
        # gravity-aligned world instead of the re-anchored clip frame.
        traj = generate(SynthSpec("arc", duration_s=40.0, fps=10.0, yaw_rate_dps=5.0, traj_id="bend"))
        clip = segment(traj, 40.0)[0]
        cfg = SamplerConfig()
        for _ in range(20):
            t = int(rng.integers(0, len(clip) - cfg.horizon - 1))
            sample = build_sample(clip, landmark(clip.clip_id, len(clip) - 1), t, cfg, CLIP_CONVENTION)
            s = clip.start_frame
            for i, stored in enumerate(sample.waypoints, start=1):
                again = to_ego_waypoint(pose_at(traj, s + t), traj.positions[s + t + i], RAW_CONVENTION)
                assert stored[0] == pytest.approx(again.x, abs=1e-9)
                assert stored[1] == pytest.approx(again.y, abs=1e-9)

    def test_first_waypoint_magnitude_is_step_distance(self, rng):
        traj = generate(SynthSpec("arc", duration_s=40.0, fps=10.0, yaw_rate_dps=8.0, traj_id="bend"))
        clip = segment(traj, 40.0)[0]
        cfg = SamplerConfig()
        e1, e2 = CLIP_CONVENTION.ground_axes
        for t in (0, 17, 101):
            sample = build_sample(clip, landmark(clip.clip_id, len(clip) - 1), t, cfg, CLIP_CONVENTION)
            delta = clip.positions[t + 1] - clip.positions[t]
            ground = np.hypot(float(delta @ e1), float(delta @ e2))
            assert np.hypot(*sample.waypoints[0]) == pytest.approx(ground, abs=1e-9)


class TestBuildCorpus:
    def _fixture(self, n_landmarks=3):
        traj, clip = unit_step_clip()
        landmarks = generate_landmarks(clip, n_landmarks, seed=4)
        return clip, landmarks

    def test_zero_accepted_clips(self):
        clip, landmarks = self._fixture()
        verdict = FilterVerdict(clip.clip_id, False, ("pitch_range",), {})
        samples, skipped = build_corpus([clip], landmarks, [verdict], SamplerConfig(), CLIP_CONVENTION)
        assert samples == []
        assert skipped["rejected_clip"] == 3

    def test_one_clip_three_landmarks(self):
        clip, landmarks = self._fixture()
        samples, skipped = build_corpus([clip], landmarks, [accepted_verdict(clip)], SamplerConfig(), CLIP_CONVENTION)
        assert len(samples) == 3
        assert [s.sample_id for s in samples] == sorted(s.sample_id for s in samples)
        assert sum(skipped.values()) == 0

    def test_missing_verdict_rejected(self):
        clip, landmarks = self._fixture()
        with pytest.raises(ValidationError):
            build_corpus([clip], landmarks, [], SamplerConfig(), CLIP_CONVENTION)

    def test_unknown_clip_counted(self):
        clip, landmarks = self._fixture()
        stray = landmark("nowhere_0000", 80)
        samples, skipped = build_corpus(
            [clip], landmarks + [stray], [accepted_verdict(clip)], SamplerConfig(), CLIP_CONVENTION
        )
        assert len(samples) == 3
        assert skipped["unknown_clip"] == 1

    def test_goal_out_of_bounds_counted(self):
        clip, landmarks = self._fixture()
        bad = landmark(clip.clip_id, len(clip) + 5)
        _, skipped = build_corpus(
            [clip], landmarks + [bad], [accepted_verdict(clip)], SamplerConfig(), CLIP_CONVENTION
        )
        assert skipped["goal_out_of_bounds"] == 1

    def test_infeasible_goal_counted(self):
        clip, _ = self._fixture()
        early = landmark(clip.clip_id, 4)
        samples, skipped = build_corpus(
            [clip], [early], [accepted_verdict(clip)], SamplerConfig(), CLIP_CONVENTION
        )
        assert samples == []
        assert skipped["infeasible"] == 1

    def test_same_seed_byte_identical_files(self, tmp_path):
        clip, landmarks = self._fixture()
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            samples, _ = build_corpus(
                [clip], landmarks, [accepted_verdict(clip)], SamplerConfig(seed=11), CLIP_CONVENTION
            )
            path = tmp_path / name
            write_samples(samples, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_draws_not_feasible_pairs(self):
        clip, landmarks = self._fixture()
        a, _ = build_corpus([clip], landmarks, [accepted_verdict(clip)], SamplerConfig(seed=1), CLIP_CONVENTION)
        b, _ = build_corpus([clip], landmarks, [accepted_verdict(clip)], SamplerConfig(seed=2), CLIP_CONVENTION)
        assert [s.sample_id for s in a] == [s.sample_id for s in b]
        assert [(s.clip_id, s.t_g) for s in a] == [(s.clip_id, s.t_g) for s in b]
        assert any(x.t != y.t for x, y in zip(a, b))

    def test_offset_invariants_hold_corpus_wide(self):
        traj = generate(SynthSpec("straight", duration_s=240.0, fps=10.0, speed_mps=2.0, traj_id="long"))
        clips = segment(traj, 60.0)
        landmarks = [lm for clip in clips for lm in generate_landmarks(clip, 10, seed=2)]
        cfg = SamplerConfig(seed=5, draws_per_landmark=3, arrival_fraction=0.3)
        samples, _ = build_corpus(clips, landmarks, [accepted_verdict(c) for c in clips], cfg, CLIP_CONVENTION)
        assert samples
        for s in samples:
            gap = s.t_g - s.t
            if s.arrival:
                assert gap <= cfg.arrival_window
            else:
                assert cfg.min_offset <= gap <= cfg.max_offset

    def test_draws_per_landmark(self):
        clip, landmarks = self._fixture(n_landmarks=2)
        cfg = SamplerConfig(draws_per_landmark=4)
        samples, _ = build_corpus([clip], landmarks, [accepted_verdict(clip)], cfg, CLIP_CONVENTION)
        assert len(samples) == 8


def per_draw_reference(clip, landmarks, config, convention):
    """build_clip_samples spelled out one draw at a time through build_sample."""
    samples = []
    skipped = dict.fromkeys(CLIP_SKIP_REASONS, 0)
    for lm_idx, lm in enumerate(landmarks):
        if lm.goal_frame >= len(clip):
            skipped["goal_out_of_bounds"] += 1
            continue
        for draw in range(config.draws_per_landmark):
            try:
                t = draw_start(lm.goal_frame, config, draw_rng(config.seed, clip.clip_id, lm_idx, draw))
            except Infeasible:
                skipped["infeasible"] += 1
                continue
            sample_id = f"{clip.clip_id}:{lm_idx:04d}:{draw:02d}"
            try:
                samples.append(build_sample(clip, lm, t, config, convention, sample_id=sample_id))
            except OutOfBounds:
                skipped["out_of_bounds"] += 1
            except GimbalDegenerate:
                skipped["gimbal_degenerate"] += 1
    return samples, skipped


def pitched_clip(convention):
    """A sinusoid_pitch clip cut at peak pitch, so frame 0 is tilted 20 degrees.

    Frames 100-159 look straight up under `convention` (yaw undefined) and
    frames 300-359 stand still (zero-length waypoints).
    """
    traj = generate(
        SynthSpec("sinusoid_pitch", duration_s=61.0, fps=10.0, amplitude_deg=20.0, period_s=4.0, traj_id="pitch")
    )
    peak = 10  # pitch(t) = A sin(2 pi t / 4 s) peaks at t = 1 s
    cut = RawTrajectory("pitch", traj.fps, traj.timestamps[peak:], traj.positions[peak:], traj.quaternions[peak:])
    clip = segment(cut, 60.0)[0]
    quats = clip.quaternions.copy()
    quats[100:160] = quat_between(convention.forward_vec, convention.up_vec)
    positions = clip.positions.copy()
    positions[300:360] = positions[300]
    return Clip(clip.clip_id, clip.source_id, clip.fps, clip.timestamps, positions, quats, clip.start_frame)


class TestBatchEquivalence:
    @pytest.mark.parametrize("convention", [RAW_CONVENTION, CLIP_CONVENTION], ids=["up+z", "up-y"])
    @pytest.mark.parametrize(
        "config",
        [
            SamplerConfig(draws_per_landmark=8, arrival_fraction=0.3, seed=9),
            SamplerConfig(draws_per_landmark=5, arrival_fraction=0.5, waypoint_stride=3, horizon=5, seed=2),
        ],
        ids=["stride1", "stride3"],
    )
    def test_matches_per_draw_build_sample(self, tmp_path, convention, config):
        clip = pitched_clip(convention)
        landmarks = generate_landmarks(clip, 12, seed=3) + [
            landmark(clip.clip_id, goal)
            for goal in (5, 130, 150, 340, 355, len(clip) - 1, len(clip) + 100)
        ]
        samples, skipped = build_clip_samples(clip, landmarks, config, convention)
        want_samples, want_skipped = per_draw_reference(clip, landmarks, config, convention)
        assert samples == want_samples
        assert skipped == want_skipped
        assert all(skipped[reason] > 0 for reason in CLIP_SKIP_REASONS)
        assert any(w == (0.0, 0.0) for s in samples for w in s.waypoints)
        write_samples(samples, tmp_path / "batch.jsonl")
        write_samples(want_samples, tmp_path / "scalar.jsonl")
        assert (tmp_path / "batch.jsonl").read_bytes() == (tmp_path / "scalar.jsonl").read_bytes()
