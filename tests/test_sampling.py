import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcurate.errors import ValidationError
from navcurate import sampling
from navcurate.io import LandmarkAnnotation, RawTrajectory, _record_json, write_samples
from navcurate.sampling import (
    CLIP_SKIP_REASONS,
    SamplerConfig,
    build_clip_samples,
    collect_samples,
    draw_rng,
    draw_start,
)
from navcurate.segmentation import segment
from navcurate.synth import CLIP_CONVENTION, RAW_CONVENTION, SynthSpec, generate, generate_landmarks

from conftest import clips_of
from oracles import (
    GimbalDegenerate,
    OutOfBounds,
    build_sample,
    pose_at,
    quat_between,
    samples_of,
    to_ego_waypoint,
    training_sample,
)


def landmark(clip_id="walk_0000", goal_frame=100, text="go to the kiosk"):
    return LandmarkAnnotation(clip_id, goal_frame, (0.0, 0.0, 10.0, 10.0), "kiosk", text)


def corpus_lines(clips, landmarks, accepted, config):
    """Sample lines and skip counts over clips, the rows of the accepted ones built in process."""
    ordered, rows, skipped = collect_samples([c.id for c in clips], landmarks, {c.id for c in accepted})
    lines = []
    for i, lo, hi in rows:
        clip_lines, clip_skips = build_clip_samples(clips[i], ordered[lo:hi], config, CLIP_CONVENTION)
        lines.extend(clip_lines)
        for reason, count in clip_skips.items():
            skipped[reason] += count
    return lines, skipped


def corpus(clips, landmarks, accepted, config):
    """The samples of corpus_lines read back, and the skip counts."""
    lines, skipped = corpus_lines(clips, landmarks, accepted, config)
    return samples_of(lines), skipped


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
        assert draw_start(5, SamplerConfig(), rng) is None

    def test_infeasible_wins_over_arrival_branch(self):
        rng = np.random.default_rng(0)
        assert draw_start(5, SamplerConfig(arrival_fraction=1.0), rng) is None

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
    """Straight walk covering 1 m per frame (speed == fps): its one clip's entry and poses."""
    traj = generate(SynthSpec("straight", duration_s=duration, fps=fps, speed_mps=fps, traj_id="walk"))
    return clips_of(traj, duration)[0]


class TestBuildSample:
    def test_stationary_clip_zero_waypoints(self):
        traj = generate(SynthSpec("stationary", duration_s=30.0, fps=10.0, traj_id="still"))
        clip = clips_of(traj, 30.0)[0][1]
        sample = build_sample(clip, landmark("still_0000", 150), 100, SamplerConfig(), CLIP_CONVENTION)
        assert all(w == (0.0, 0.0) for w in sample.waypoints)

    def test_unit_steps_forward(self):
        _, clip = unit_step_clip()
        sample = build_sample(clip, landmark(clip.id, 150), 100, SamplerConfig(), CLIP_CONVENTION)
        for i, (x, y) in enumerate(sample.waypoints, start=1):
            assert x == pytest.approx(float(i), abs=1e-9)
            assert y == pytest.approx(0.0, abs=1e-9)

    def test_arrival_label_rule(self):
        _, clip = unit_step_clip()
        cfg = SamplerConfig()
        near = build_sample(clip, landmark(clip.id, 101), 100, cfg, CLIP_CONVENTION)
        far = build_sample(clip, landmark(clip.id, 150), 100, cfg, CLIP_CONVENTION)
        assert near.arrival is True
        assert far.arrival is False

    def test_history_clamped_at_zero(self):
        _, clip = unit_step_clip()
        sample = build_sample(clip, landmark(clip.id, 100), 3, SamplerConfig(), CLIP_CONVENTION)
        assert sample.history_frames == (0, 0, 0, 0, 0, 1, 2, 3)

    def test_stride_spacing(self):
        _, clip = unit_step_clip()
        cfg = SamplerConfig(waypoint_stride=3)
        sample = build_sample(clip, landmark(clip.id, 200), 50, cfg, CLIP_CONVENTION)
        assert sample.history_frames == tuple(range(50 - 7 * 3, 51, 3))
        assert sample.waypoints[0][0] == pytest.approx(3.0, abs=1e-9)
        assert sample.waypoints[-1][0] == pytest.approx(24.0, abs=1e-9)

    def test_out_of_bounds(self):
        _, clip = unit_step_clip()
        with pytest.raises(OutOfBounds):
            build_sample(clip, landmark(clip.id, 299), 295, SamplerConfig(), CLIP_CONVENTION)

    def test_waypoints_rederive_through_raw_frame(self, rng):
        # Independent route: express the same future positions in the raw
        # gravity-aligned world instead of the re-anchored clip frame.
        traj = generate(SynthSpec("arc", duration_s=40.0, fps=10.0, yaw_rate_dps=5.0, traj_id="bend"))
        entry, clip = clips_of(traj, 40.0)[0]
        cfg = SamplerConfig()
        for _ in range(20):
            t = int(rng.integers(0, len(clip) - cfg.horizon - 1))
            sample = build_sample(clip, landmark(clip.id, len(clip) - 1), t, cfg, CLIP_CONVENTION)
            s = entry.start_frame
            for i, stored in enumerate(sample.waypoints, start=1):
                again = to_ego_waypoint(pose_at(traj, s + t), traj.positions[s + t + i], RAW_CONVENTION)
                assert stored[0] == pytest.approx(again.x, abs=1e-9)
                assert stored[1] == pytest.approx(again.y, abs=1e-9)

    def test_first_waypoint_magnitude_is_step_distance(self, rng):
        traj = generate(SynthSpec("arc", duration_s=40.0, fps=10.0, yaw_rate_dps=8.0, traj_id="bend"))
        clip = clips_of(traj, 40.0)[0][1]
        cfg = SamplerConfig()
        e1, e2 = CLIP_CONVENTION.ground_axes
        for t in (0, 17, 101):
            sample = build_sample(clip, landmark(clip.id, len(clip) - 1), t, cfg, CLIP_CONVENTION)
            delta = clip.positions[t + 1] - clip.positions[t]
            ground = np.hypot(float(delta @ e1), float(delta @ e2))
            assert np.hypot(*sample.waypoints[0]) == pytest.approx(ground, abs=1e-9)


class TestBuildCorpus:
    def _fixture(self, n_landmarks=3):
        entry, clip = unit_step_clip()
        landmarks = generate_landmarks(entry, n_landmarks, seed=4)
        return clip, landmarks

    def test_zero_accepted_clips(self):
        clip, landmarks = self._fixture()
        samples, skipped = corpus([clip], landmarks, [], SamplerConfig())
        assert samples == []
        assert skipped["rejected_clip"] == 3

    def test_one_clip_three_landmarks(self):
        clip, landmarks = self._fixture()
        samples, skipped = corpus([clip], landmarks, [clip], SamplerConfig())
        assert len(samples) == 3
        assert [s.sample_id for s in samples] == sorted(s.sample_id for s in samples)
        assert sum(skipped.values()) == 0

    def test_unknown_clip_counted(self):
        clip, landmarks = self._fixture()
        stray = landmark("nowhere_0000", 80)
        samples, skipped = corpus([clip], landmarks + [stray], [clip], SamplerConfig())
        assert len(samples) == 3
        assert skipped["unknown_clip"] == 1

    def test_goal_out_of_bounds_counted(self):
        clip, landmarks = self._fixture()
        bad = landmark(clip.id, len(clip) + 5)
        _, skipped = corpus([clip], landmarks + [bad], [clip], SamplerConfig())
        assert skipped["goal_out_of_bounds"] == 1

    def test_infeasible_goal_counted(self):
        clip, _ = self._fixture()
        early = landmark(clip.id, 4)
        samples, skipped = corpus([clip], [early], [clip], SamplerConfig())
        assert samples == []
        assert skipped["infeasible"] == 1

    def test_same_seed_byte_identical_files(self, tmp_path):
        clip, landmarks = self._fixture()
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            lines, _ = corpus_lines([clip], landmarks, [clip], SamplerConfig(seed=11))
            path = tmp_path / name
            write_samples(lines, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_draws_not_feasible_pairs(self):
        clip, landmarks = self._fixture()
        a, _ = corpus([clip], landmarks, [clip], SamplerConfig(seed=1))
        b, _ = corpus([clip], landmarks, [clip], SamplerConfig(seed=2))
        assert [s.sample_id for s in a] == [s.sample_id for s in b]
        assert [(s.clip_id, s.t_g) for s in a] == [(s.clip_id, s.t_g) for s in b]
        assert any(x.t != y.t for x, y in zip(a, b))

    def test_offset_invariants_hold_corpus_wide(self):
        traj = generate(SynthSpec("straight", duration_s=240.0, fps=10.0, speed_mps=2.0, traj_id="long"))
        clips = [clip for _, clip in clips_of(traj, 60.0)]
        landmarks = [lm for entry in segment(traj, 60.0) for lm in generate_landmarks(entry, 10, seed=2)]
        cfg = SamplerConfig(seed=5, draws_per_landmark=3, arrival_fraction=0.3)
        samples, _ = corpus(clips, landmarks, clips, cfg)
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
        samples, _ = corpus([clip], landmarks, [clip], cfg)
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
            t = draw_start(lm.goal_frame, config, draw_rng(config.seed, clip.id, lm_idx, draw))
            if t is None:
                skipped["infeasible"] += 1
                continue
            sample_id = f"{clip.id}:{lm_idx:04d}:{draw:02d}"
            try:
                samples.append(build_sample(clip, lm, t, config, convention, sample_id=sample_id))
            except OutOfBounds:
                skipped["out_of_bounds"] += 1
            except GimbalDegenerate:
                skipped["gimbal_degenerate"] += 1
    return samples, skipped


def pitched_clip(convention):
    """The entry and poses of a sinusoid_pitch clip cut at peak pitch, so frame 0 is tilted 20 degrees.

    Frames 100-159 look straight up under `convention` (yaw undefined) and
    frames 300-359 stand still (zero-length waypoints).
    """
    traj = generate(
        SynthSpec("sinusoid_pitch", duration_s=61.0, fps=10.0, amplitude_deg=20.0, period_s=4.0, traj_id="pitch")
    )
    peak = 10  # pitch(t) = A sin(2 pi t / 4 s) peaks at t = 1 s
    cut = RawTrajectory("pitch", traj.fps, traj.timestamps[peak:], traj.positions[peak:], traj.quaternions[peak:])
    entry, clip = clips_of(cut, 60.0)[0]
    quats = clip.quaternions.copy()
    quats[100:160] = quat_between(convention.forward_vec, convention.up_vec)
    positions = clip.positions.copy()
    positions[300:360] = positions[300]
    return entry, RawTrajectory(clip.id, clip.fps, clip.timestamps, positions, quats)


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
    def test_matches_per_draw_build_sample(self, convention, config):
        entry, clip = pitched_clip(convention)
        landmarks = generate_landmarks(entry, 12, seed=3) + [
            landmark(clip.id, goal)
            for goal in (5, 130, 150, 340, 355, len(clip) - 1, len(clip) + 100)
        ]
        lines, skipped = build_clip_samples(clip, landmarks, config, convention)
        want_samples, want_skipped = per_draw_reference(clip, landmarks, config, convention)
        assert lines == [_record_json(s) + "\n" for s in want_samples]
        assert skipped == want_skipped
        assert all(skipped[reason] > 0 for reason in CLIP_SKIP_REASONS)
        assert any(w == (0.0, 0.0) for s in want_samples for w in s.waypoints)


# Characters json escapes or writes as \uXXXX: quote, backslash, control
# characters, non-ASCII, a non-BMP character and the line separators.
SPECIAL_CHARS = ['"', "\\", "\x00", "\x07", "\n", "\t", "\x1f", "\x7f", "\xe9", "\u4e2d", "\U0001f600", "\u2028", "\u2029", "a"]
_special_text = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters()), min_size=1, max_size=8)
# A trajectory id is one file name in one line: no "\n", "\r", "/" or NUL, and not "." or "..".
_special_id = st.text(
    alphabet=st.one_of(
        st.sampled_from([c for c in SPECIAL_CHARS if c not in "\n\x00"]), st.characters(exclude_characters="\n\r/\x00")
    ),
    min_size=1,
    max_size=8,
).filter(lambda s: s not in (".", ".."))
# Floats whose repr is easy to get wrong: signed zero, the smallest subnormal, exponent forms.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 0.1, 123456789.0, 1.7976931348623157e308]


def line_clip(clip_id, n=80):
    """A clip standing at (0, 0, f) with identity orientation in frame f, so a start frame is its z coordinate."""
    positions = np.zeros((n, 3))
    positions[:, 2] = np.arange(n)
    quats = np.tile([0.0, 0.0, 0.0, 1.0], (n, 1))
    return RawTrajectory(clip_id, 10.0, np.arange(n) / 10.0, positions, quats)


def pooled_waypoints(pool, t, k):
    """The stand-in waypoints of start frame t: pool entries at t + 2i and t + 2i + 1."""
    return tuple((pool[(t + 2 * i) % len(pool)], pool[(t + 2 * i + 1) % len(pool)]) for i in range(k))


def pooled_projection(pool):
    """An ego_waypoints_many for line_clip giving pooled_waypoints; starts t = 3 (mod 7) are degenerate."""

    def project(quats, origins, targets, convention):
        starts = origins[:, 2].astype(int).tolist()
        k = targets.shape[1]
        waypoints = np.array([pooled_waypoints(pool, t, k) for t in starts], dtype=float).reshape(len(starts), k, 2)
        defined = np.array([t % 7 != 3 for t in starts])
        waypoints[~defined] = 0.0
        return waypoints, defined

    return project


def pooled_reference(clip, landmarks, config, pool):
    """The expected lines and skips of build_clip_samples on line_clip under pooled_projection, one draw at a time."""
    lines = []
    skipped = dict.fromkeys(CLIP_SKIP_REASONS, 0)
    for lm_idx, lm in enumerate(landmarks):
        if lm.goal_frame >= len(clip):
            skipped["goal_out_of_bounds"] += 1
            continue
        for draw in range(config.draws_per_landmark):
            t = draw_start(lm.goal_frame, config, draw_rng(config.seed, clip.id, lm_idx, draw))
            if t is None:
                skipped["infeasible"] += 1
            elif t + config.horizon * config.waypoint_stride >= len(clip):
                skipped["out_of_bounds"] += 1
            elif t % 7 == 3:
                skipped["gimbal_degenerate"] += 1
            else:
                waypoints = pooled_waypoints(pool, t, config.horizon)
                sample = training_sample(clip, lm, t, waypoints, config, f"{clip.id}:{lm_idx:04d}:{draw:02d}")
                lines.append(_record_json(sample) + "\n")
    return lines, skipped


def pooled_lines(clip, landmarks, config, pool):
    with mock.patch.object(sampling, "ego_waypoints_many", pooled_projection(pool)):
        return build_clip_samples(clip, landmarks, config, CLIP_CONVENTION)


@settings(max_examples=150, deadline=None)
@given(
    clip_id=_special_id,
    goals=st.lists(st.tuples(st.integers(0, 90), _special_text), min_size=1, max_size=4),
    pool=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=6),
    config=st.builds(
        SamplerConfig,
        history_len=st.integers(1, 12),
        horizon=st.integers(1, 6),
        min_offset=st.integers(3, 12),
        max_offset=st.just(30),
        arrival_window=st.integers(0, 2),
        arrival_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        waypoint_stride=st.integers(1, 3),
        draws_per_landmark=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
    ),
)
def test_sample_lines_are_the_schema_writer_bytes(clip_id, goals, pool, config):
    clip = line_clip(clip_id)
    landmarks = [LandmarkAnnotation(clip_id, goal, (0.0, 0.0, 1.0, 1.0), "n", text) for goal, text in goals]
    assert pooled_lines(clip, landmarks, config, pool) == pooled_reference(clip, landmarks, config, pool)


def test_sample_lines_cover_clamped_history_and_both_arrivals():
    clip = line_clip('say "hi"\\ ')
    landmarks = [LandmarkAnnotation(clip.id, goal, (0.0, 0.0, 1.0, 1.0), "n", "go \"there\"\x01é") for goal in (12, 40)]
    config = SamplerConfig(history_len=10, horizon=3, arrival_fraction=0.5, draws_per_landmark=12, seed=4)
    lines, skipped = pooled_lines(clip, landmarks, config, SPECIAL_FLOATS)
    assert (lines, skipped) == pooled_reference(clip, landmarks, config, SPECIAL_FLOATS)
    samples = samples_of(lines)
    assert {s.arrival for s in samples} == {True, False}
    assert any(s.history_frames[0] == 0 for s in samples)
    assert {w for s in samples for pair in s.waypoints for w in pair} >= {5e-324, 1e16}
    assert any(math.copysign(1.0, w) < 0 and w == 0.0 for s in samples for pair in s.waypoints for w in pair)
    assert skipped["gimbal_degenerate"] > 0


def test_non_finite_waypoint_names_the_sample():
    clip = line_clip("far")
    positions = clip.positions.copy()
    positions[1:, 0] = 1.7e308
    positions[40:, 0] = -1.7e308  # the x offset from a start before frame 40 to a target after it overflows
    clip = RawTrajectory("far", 10.0, clip.timestamps, positions, clip.quaternions)
    landmarks = [LandmarkAnnotation("far", 45, (0.0, 0.0, 1.0, 1.0), "n", "go")]
    config = SamplerConfig(min_offset=5, max_offset=6, arrival_fraction=0.0)
    with pytest.raises(ValidationError, match=r"^sample 'far:0000:00' has a non-finite waypoint"):
        build_clip_samples(clip, landmarks, config, CLIP_CONVENTION)
