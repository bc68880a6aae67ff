import dataclasses
import math

import numpy as np
import pytest

from navcurate import schema
from navcurate.errors import ValidationError
from navcurate.filters import (
    REASON_CROWD,
    REASON_DIVERGENCE,
    REASON_PITCH,
    FilterConfig,
    FilterVerdict,
    check_crowd,
    check_divergence,
    check_pitch,
    run_filters,
    slice_detections,
)
from navcurate.geometry import normalize_angle_deg, quat_from_axis_angle, quat_multiply
from navcurate.io import RawTrajectory
from navcurate.synth import CLIP_CONVENTION, SynthSpec, generate, generate_detections

from conftest import clips_of
from oracles import GimbalDegenerate, frames_of, pose_at, table_of, yaw_of


def clip_of(spec, clip_seconds=120.0):
    return clips_of(generate(spec), clip_seconds)[0][1]


def reference_max_divergence(clip, config, convention):
    """Scalar re-implementation of the sliding-window maximum (test oracle)."""
    w = max(2, round(config.window_seconds * clip.fps))
    assert len(clip) >= w
    e1, e2 = convention.ground_axes
    best = 0.0
    for s in range(len(clip) - w + 1):
        d = clip.positions[s + w - 1] - clip.positions[s]
        dx = float(d @ e1)
        dy = float(d @ e2)
        if math.hypot(dx, dy) < config.min_window_displacement_m:
            continue
        try:
            view = yaw_of(pose_at(clip, s + (w - 1) // 2), convention)
        except GimbalDegenerate:
            continue
        bearing = math.degrees(math.atan2(dy, dx))
        best = max(best, abs(normalize_angle_deg(view - bearing)))
    return best


class TestFilterConfig:
    def test_defaults_match_rules(self):
        cfg = FilterConfig()
        assert cfg.pitch_range_max_deg == 15.0
        assert cfg.divergence_max_deg == 60.0
        assert cfg.crowd_count_threshold == 5
        assert cfg.crowd_frame_threshold == 3

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValidationError):
            FilterConfig(pitch_range_max_deg=0.0)

    def test_load_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            schema.load(FilterConfig, {"pitch_max": 10})

    def test_round_trip(self):
        cfg = FilterConfig(divergence_max_deg=45.0)
        assert schema.load(FilterConfig, dataclasses.asdict(cfg)) == cfg


class TestCheckPitch:
    def test_constant_orientation_passes(self):
        ok, rng_deg = check_pitch(clip_of(SynthSpec("straight")), FilterConfig(), CLIP_CONVENTION)
        assert ok
        assert rng_deg == 0.0

    @pytest.mark.parametrize("amplitude,expect_pass", [(10.0, False), (5.0, True)])
    def test_sinusoid_boundary(self, amplitude, expect_pass):
        spec = SynthSpec("sinusoid_pitch", amplitude_deg=amplitude, period_s=4.0)
        clip = clip_of(spec)
        ok, rng_deg = check_pitch(clip, FilterConfig(), CLIP_CONVENTION)
        # Oracle: the range actually sampled by the sinusoid's phase grid.
        t = np.arange(len(clip)) / clip.fps
        phases = amplitude * np.sin(2.0 * math.pi * t / spec.period_s)
        assert rng_deg == pytest.approx(float(phases.max() - phases.min()), abs=1e-9)
        assert rng_deg == pytest.approx(2 * amplitude, abs=0.01)
        assert ok is expect_pass

    def test_threshold_exceeded_only_strictly(self):
        # A range exactly at the threshold passes; anything beyond fails.
        clip = clip_of(SynthSpec("sinusoid_pitch", amplitude_deg=6.0))
        _, measured = check_pitch(clip, FilterConfig(), CLIP_CONVENTION)
        at, _ = check_pitch(clip, FilterConfig(pitch_range_max_deg=measured), CLIP_CONVENTION)
        below, _ = check_pitch(clip, FilterConfig(pitch_range_max_deg=measured - 1e-6), CLIP_CONVENTION)
        assert at
        assert not below


class TestCheckDivergence:
    def test_aligned_walk_passes(self):
        ok, div = check_divergence(clip_of(SynthSpec("straight")), FilterConfig(), CLIP_CONVENTION)
        assert ok
        assert div == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_view_fails_at_ninety(self):
        # Walk along +X while looking 90 degrees to the side, everywhere.
        base = generate(SynthSpec("straight"))
        q_side = quat_from_axis_angle([0.0, 0.0, 1.0], 90.0)
        traj = RawTrajectory(
            "sideways",
            base.fps,
            base.timestamps,
            base.positions,
            quat_multiply(q_side, base.quaternions),
        )
        clip = clips_of(traj, 120.0)[0][1]
        ok, div = check_divergence(clip, FilterConfig(), CLIP_CONVENTION)
        assert not ok
        assert div == pytest.approx(90.0, abs=1e-9)

    @pytest.mark.parametrize("turn,expect_pass", [(75.0, False), (45.0, True)])
    def test_head_turn_boundary(self, turn, expect_pass):
        clip = clip_of(SynthSpec("head_turn", turn_deg=turn, turn_start_s=30.0, turn_len_s=3.0))
        cfg = FilterConfig()
        ok, div = check_divergence(clip, cfg, CLIP_CONVENTION)
        assert ok is expect_pass
        assert div == pytest.approx(turn, abs=2.0)
        assert div == pytest.approx(reference_max_divergence(clip, cfg, CLIP_CONVENTION), abs=1e-9)

    def test_stationary_measures_nothing(self):
        ok, div = check_divergence(clip_of(SynthSpec("stationary")), FilterConfig(), CLIP_CONVENTION)
        assert ok
        assert div == 0.0

    def test_too_short_fails_unmeasured(self):
        clip = clips_of(generate(SynthSpec("straight", duration_s=0.5, fps=30.0)), 0.5)[0][1]
        assert check_divergence(clip, FilterConfig(window_seconds=1.0), CLIP_CONVENTION) == (False, None)

    def test_matches_scalar_reference_on_arc(self):
        cfg = FilterConfig()
        clip = clip_of(SynthSpec("arc", yaw_rate_dps=4.0))
        _, div = check_divergence(clip, cfg, CLIP_CONVENTION)
        assert div == pytest.approx(reference_max_divergence(clip, cfg, CLIP_CONVENTION), abs=1e-9)


class TestCheckCrowd:
    @pytest.mark.parametrize(
        "counts,expect_pass,expect_crowded",
        [
            ([6, 6, 6, 6], False, 4),
            ([6, 6, 6], True, 3),
            ([5, 5, 5, 5, 5], True, 0),
        ],
    )
    def test_paper_thresholds(self, counts, expect_pass, expect_crowded):
        clip = clip_of(SynthSpec("straight"))
        detections = generate_detections(len(clip), counts)
        ok, crowded = check_crowd(clip, detections, FilterConfig())
        assert ok is expect_pass
        assert crowded == expect_crowded

    def test_low_scores_not_counted(self):
        from navcurate.io import Detection, DetectionFrame

        clip = clip_of(SynthSpec("straight"))
        weak = DetectionFrame(
            0, tuple(Detection("person", (0, 0, 1, 1), 0.4) for _ in range(8))
        )
        ok, crowded = check_crowd(clip, table_of([weak]), FilterConfig())
        assert ok and crowded == 0

    def test_other_labels_not_counted(self):
        from navcurate.io import Detection, DetectionFrame

        clip = clip_of(SynthSpec("straight"))
        cars = DetectionFrame(0, tuple(Detection("car", (0, 0, 1, 1), 0.9) for _ in range(8)))
        ok, crowded = check_crowd(clip, table_of([cars]), FilterConfig())
        assert ok and crowded == 0

    def test_out_of_range_frames_ignored(self):
        clip = clip_of(SynthSpec("straight"))
        detections = frames_of(generate_detections(len(clip) + 50, [6] * 4))
        shifted = [type(d)(d.frame + len(clip), d.detections) for d in detections[:4]]
        ok, crowded = check_crowd(clip, table_of(shifted), FilterConfig())
        assert ok and crowded == 0


class TestRunFilters:
    def test_clean_clip_accepted(self):
        clip = clip_of(SynthSpec("straight"))
        verdict = run_filters(clip, table_of([]), FilterConfig(), CLIP_CONVENTION)
        assert verdict.accepted
        assert verdict.reasons == ()
        assert verdict.diagnostics["pitch_range_deg"] == 0.0

    def test_pitch_and_crowd_both_reported(self):
        clip = clip_of(SynthSpec("sinusoid_pitch", amplitude_deg=10.0))
        detections = generate_detections(len(clip), [6] * 4)
        verdict = run_filters(clip, detections, FilterConfig(), CLIP_CONVENTION)
        assert not verdict.accepted
        assert verdict.reasons == (REASON_CROWD, REASON_PITCH)
        assert verdict.diagnostics["crowded_frame_count"] == 4

    def test_too_short_becomes_divergence_reject(self):
        clip = clips_of(generate(SynthSpec("straight", duration_s=0.5, fps=30.0)), 0.5)[0][1]
        verdict = run_filters(clip, table_of([]), FilterConfig(), CLIP_CONVENTION)
        assert not verdict.accepted
        assert verdict.reasons == (REASON_DIVERGENCE,)
        assert verdict.diagnostics["max_divergence_deg"] is None

    def test_ignored_detections_counted(self):
        clip = clip_of(SynthSpec("straight"))
        from navcurate.io import DetectionFrame

        verdict = run_filters(clip, table_of([DetectionFrame(len(clip) + 7, ())]), FilterConfig(), CLIP_CONVENTION)
        assert verdict.diagnostics["ignored_detection_frames"] == 1

    def test_oracle_corpus_acceptance_count(self):
        # Ten clips, four built to fail exactly one rule each.
        specs = [SynthSpec("straight", traj_id=f"ok{i}") for i in range(4)]
        specs += [SynthSpec("arc", yaw_rate_dps=2.0, traj_id=f"arc{i}") for i in range(2)]
        specs += [
            SynthSpec("sinusoid_pitch", amplitude_deg=10.0, traj_id="badpitch0"),
            SynthSpec("sinusoid_pitch", amplitude_deg=9.0, traj_id="badpitch1"),
            SynthSpec("head_turn", turn_deg=80.0, turn_start_s=40.0, turn_len_s=4.0, traj_id="badturn"),
            SynthSpec("straight", traj_id="badcrowd"),
        ]
        cfg = FilterConfig()
        verdicts = []
        for spec in specs:
            clip = clip_of(spec)
            detections = generate_detections(len(clip), [6] * 4) if spec.traj_id == "badcrowd" else table_of([])
            verdicts.append(run_filters(clip, detections, cfg, CLIP_CONVENTION))
        accepted = sum(v.accepted for v in verdicts)
        assert accepted == 6
        failing = {v.clip_id: v.reasons for v in verdicts if not v.accepted}
        assert failing == {
            "badpitch0_0000": (REASON_PITCH,),
            "badpitch1_0000": (REASON_PITCH,),
            "badturn_0000": (REASON_DIVERGENCE,),
            "badcrowd_0000": (REASON_CROWD,),
        }

    def test_verdict_is_pure(self):
        clip = clip_of(SynthSpec("head_turn", turn_deg=70.0, turn_start_s=20.0, turn_len_s=3.0))
        detections = generate_detections(len(clip), [2, 6, 6, 6, 6])
        cfg = FilterConfig()
        a = run_filters(clip, detections, cfg, CLIP_CONVENTION)
        b = run_filters(clip, detections, cfg, CLIP_CONVENTION)
        assert a == b
        assert a.diagnostics == b.diagnostics

    def test_accepted_must_match_reasons(self):
        with pytest.raises(ValidationError):
            FilterVerdict("c", accepted=True, reasons=(REASON_PITCH,), diagnostics={})


class TestInvariance:
    def test_translation_and_yaw_rotation_of_source(self, rng):
        # Moving or yaw-rotating the whole raw trajectory must not change
        # any check result after re-segmentation.
        spec = SynthSpec("head_turn", turn_deg=50.0, turn_start_s=30.0, turn_len_s=5.0)
        base = generate(spec)
        cfg = FilterConfig()
        ref_clip = clips_of(base, 120.0)[0][1]
        _, ref_pitch = check_pitch(ref_clip, cfg, CLIP_CONVENTION)
        _, ref_div = check_divergence(ref_clip, cfg, CLIP_CONVENTION)
        for _ in range(5):
            offset = rng.uniform(-100, 100, 3)
            theta = float(rng.uniform(-180, 180))
            q_rot = quat_from_axis_angle([0.0, 0.0, 1.0], theta)
            rot = np.stack(
                [np.asarray([math.cos(math.radians(theta)), math.sin(math.radians(theta)), 0.0]),
                 np.asarray([-math.sin(math.radians(theta)), math.cos(math.radians(theta)), 0.0]),
                 np.asarray([0.0, 0.0, 1.0])],
                axis=1,
            )
            moved = RawTrajectory(
                "moved",
                base.fps,
                base.timestamps,
                base.positions @ rot.T + offset,
                quat_multiply(q_rot, base.quaternions),
            )
            clip = clips_of(moved, 120.0)[0][1]
            _, pitch_range = check_pitch(clip, cfg, CLIP_CONVENTION)
            _, div = check_divergence(clip, cfg, CLIP_CONVENTION)
            assert pitch_range == pytest.approx(ref_pitch, abs=1e-9)
            assert div == pytest.approx(ref_div, abs=1e-9)


class TestHeadTurnOraclePair:
    def test_turns_past_threshold_reject_and_below_accept(self, rng):
        # Guard band of 5 degrees absorbs window-sampling discretization;
        # sustained turns (>= 2 window lengths) land a center sample near
        # the peak.
        cfg = FilterConfig()
        for _ in range(8):
            reject_deg = float(rng.uniform(cfg.divergence_max_deg + 5.0, 110.0))
            accept_deg = float(rng.uniform(10.0, cfg.divergence_max_deg - 5.0))
            turn_len = float(rng.uniform(2.0 * cfg.window_seconds, 6.0))
            start = float(rng.uniform(5.0, 100.0))
            hot = clip_of(SynthSpec("head_turn", turn_deg=reject_deg, turn_start_s=start, turn_len_s=turn_len))
            cold = clip_of(SynthSpec("head_turn", turn_deg=accept_deg, turn_start_s=start, turn_len_s=turn_len))
            assert not check_divergence(hot, cfg, CLIP_CONVENTION)[0]
            assert check_divergence(cold, cfg, CLIP_CONVENTION)[0]


class TestMonotonicity:
    def test_loosening_never_rejects(self, rng):
        specs = [
            SynthSpec("sinusoid_pitch", amplitude_deg=float(a), period_s=4.0)
            for a in rng.uniform(2.0, 12.0, 4)
        ] + [
            SynthSpec("head_turn", turn_deg=float(d), turn_start_s=20.0, turn_len_s=4.0)
            for d in rng.uniform(20.0, 90.0, 4)
        ]
        for spec in specs:
            clip = clip_of(spec)
            detections = generate_detections(len(clip), list(rng.integers(0, 8, size=10)))
            for _ in range(5):
                cfg = FilterConfig(
                    pitch_range_max_deg=float(rng.uniform(5, 30)),
                    divergence_max_deg=float(rng.uniform(20, 90)),
                    crowd_count_threshold=int(rng.integers(1, 8)),
                    crowd_frame_threshold=int(rng.integers(1, 6)),
                )
                loose = FilterConfig(
                    pitch_range_max_deg=cfg.pitch_range_max_deg + float(rng.uniform(0, 20)),
                    divergence_max_deg=cfg.divergence_max_deg + float(rng.uniform(0, 60)),
                    crowd_count_threshold=cfg.crowd_count_threshold + int(rng.integers(0, 4)),
                    crowd_frame_threshold=cfg.crowd_frame_threshold + int(rng.integers(0, 4)),
                )
                before = run_filters(clip, detections, cfg, CLIP_CONVENTION)
                after = run_filters(clip, detections, loose, CLIP_CONVENTION)
                assert not (before.accepted and not after.accepted)


class TestSliceDetections:
    def test_reindexes_to_clip_local(self):
        traj = generate(SynthSpec("straight", duration_s=240.0, fps=30.0))
        clips = clips_of(traj, 120.0)
        detections = generate_detections(len(traj), [0] * 3600 + [6] * 4)
        local = frames_of(slice_detections(detections, clips[1][0]))
        crowded = [d for d in local if len(d.detections) == 6]
        assert [d.frame for d in crowded] == [0, 1, 2, 3]
        assert all(0 <= d.frame < len(clips[1][1]) for d in local)
