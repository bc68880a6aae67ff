"""Training-sample construction: start drawing, waypoint extraction, arrival labels.

For each (accepted clip, landmark, draw) triple the builder draws a start
frame t relative to the goal frame t_g, then extracts the next
``horizon`` ground-plane waypoints in the frame of pose(t). A small
fraction of draws lands within ``arrival_window`` of the goal and is
labelled as an arrival case; ordinary draws start between ``min_offset``
and ``max_offset`` frames before the goal.

Randomness is reproducible regardless of scheduling: every draw gets its
own numpy Generator keyed by (seed, sha256(clip_id), landmark ordinal,
draw ordinal), so fanning the corpus build out per clip cannot change a
single sample.

:func:`build_clip_samples` draws every start of a clip first, then
extracts all their waypoints with one
:func:`~navcurate.geometry.ego_waypoints_many` call, and
:func:`collect_samples` does the corpus-level grouping and skip
accounting for both :func:`build_corpus` and the ``samples`` command.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Infeasible, ValidationError
from .filters import FilterVerdict
from .geometry import AxisConvention, DEFAULT_CONVENTION, ego_waypoints_many
from .io import LandmarkAnnotation, TrainingSample
from .segmentation import Clip

__all__ = [
    "SamplerConfig",
    "TrainingSample",
    "draw_start",
    "build_clip_samples",
    "collect_samples",
    "build_corpus",
]

# Skip reasons counted inside one clip: goal_out_of_bounds once per
# landmark, the others once per draw.
CLIP_SKIP_REASONS = ("infeasible", "out_of_bounds", "gimbal_degenerate", "goal_out_of_bounds")


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for start-time sampling and waypoint extraction."""

    history_len: int = 8
    horizon: int = 8
    min_offset: int = 10
    max_offset: int = 60
    arrival_window: int = 2
    arrival_fraction: float = 0.1
    waypoint_stride: int = 1
    draws_per_landmark: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.history_len < 1 or self.horizon < 1:
            raise ValidationError("history_len and horizon must be >= 1")
        if not 0 < self.min_offset <= self.max_offset:
            raise ValidationError(
                f"need 0 < min_offset <= max_offset, got {self.min_offset}, {self.max_offset}"
            )
        if not 0 <= self.arrival_window < self.min_offset:
            raise ValidationError("arrival_window must be in [0, min_offset)")
        if not (0.0 <= self.arrival_fraction <= 1.0):
            raise ValidationError(f"arrival_fraction must be in [0, 1], got {self.arrival_fraction!r}")
        if self.waypoint_stride < 1:
            raise ValidationError("waypoint_stride must be >= 1")
        if self.draws_per_landmark < 1:
            raise ValidationError("draws_per_landmark must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a non-negative 64-bit integer")


def _clip_key(clip_id: str) -> int:
    return int.from_bytes(hashlib.sha256(clip_id.encode("utf-8")).digest()[:8], "big")


def _keyed_rng(seed: int, clip_key: int, landmark_ordinal: int, draw_ordinal: int) -> np.random.Generator:
    return np.random.default_rng([seed, clip_key, landmark_ordinal, draw_ordinal])


def draw_rng(seed: int, clip_id: str, landmark_ordinal: int, draw_ordinal: int) -> np.random.Generator:
    """Deterministic per-draw generator, independent of build scheduling."""
    return _keyed_rng(seed, _clip_key(clip_id), landmark_ordinal, draw_ordinal)


def draw_start(t_g: int, config: SamplerConfig, rng: np.random.Generator) -> int:
    """Draw a start frame t for a goal at frame t_g.

    With probability ``arrival_fraction`` t is uniform on
    [t_g - arrival_window, t_g]; otherwise uniform on
    [t_g - max_offset, t_g - min_offset], both clamped at frame 0.

    Raises:
        Infeasible: the non-arrival interval is empty after clamping
            (t_g < min_offset); the caller should skip this landmark.
    """
    lo = max(0, t_g - config.max_offset)
    hi = t_g - config.min_offset
    if hi < lo:
        raise Infeasible(f"no feasible start for goal frame {t_g} with min_offset {config.min_offset}")
    if rng.random() < config.arrival_fraction:
        return int(rng.integers(max(0, t_g - config.arrival_window), t_g + 1))
    return int(rng.integers(lo, hi + 1))


def _training_sample(
    clip: Clip,
    landmark: LandmarkAnnotation,
    t: int,
    waypoints: tuple[tuple[float, float], ...],
    config: SamplerConfig,
    sample_id: str,
) -> TrainingSample:
    """The sample for start frame t; history frames run back from t in stride steps, clamped at 0."""
    stride = config.waypoint_stride
    history = tuple(max(0, t - (config.history_len - 1 - j) * stride) for j in range(config.history_len))
    t_g = landmark.goal_frame
    return TrainingSample(
        sample_id=sample_id,
        clip_id=clip.clip_id,
        instruction=landmark.instruction,
        t=t,
        t_g=t_g,
        history_frames=history,
        waypoints=waypoints,
        arrival=(t_g - t) <= config.arrival_window,
    )


def build_clip_samples(
    clip: Clip,
    landmarks: list[LandmarkAnnotation],
    config: SamplerConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> tuple[list[TrainingSample], dict[str, int]]:
    """Samples for one accepted clip; landmark ordinals follow file order.

    Draw (landmark ordinal, draw ordinal) gets the start frame t of
    ``draw_start`` under ``draw_rng`` and sample id
    ``<clip_id>:<landmark:04d>:<draw:02d>``. Waypoint i of its sample is
    pose(t + (i+1)*stride)'s position in the ground-plane frame of
    pose(t). A draw is skipped as
    ``infeasible``, ``out_of_bounds`` or ``gimbal_degenerate`` (checked in
    that order), a landmark whose goal lies past the clip end as
    ``goal_out_of_bounds``.
    """
    skipped = dict.fromkeys(CLIP_SKIP_REASONS, 0)
    k = config.horizon
    stride = config.waypoint_stride
    clip_key = _clip_key(clip.clip_id)
    draws = []  # (landmark ordinal, draw ordinal, start frame) of every in-bounds start
    for lm_idx, landmark in enumerate(landmarks):
        if landmark.goal_frame >= len(clip):
            skipped["goal_out_of_bounds"] += 1
            continue
        for draw in range(config.draws_per_landmark):
            rng = _keyed_rng(config.seed, clip_key, lm_idx, draw)
            try:
                t = draw_start(landmark.goal_frame, config, rng)
            except Infeasible:
                skipped["infeasible"] += 1
                continue
            if t + k * stride >= len(clip):
                skipped["out_of_bounds"] += 1
                continue
            draws.append((lm_idx, draw, t))
    if not draws:
        return [], skipped
    starts = np.array([t for _, _, t in draws])
    targets = clip.positions[starts[:, None] + stride * np.arange(1, k + 1)]
    waypoints, defined = ego_waypoints_many(
        clip.quaternions[starts], clip.positions[starts], targets, convention
    )
    skipped["gimbal_degenerate"] = len(draws) - int(np.count_nonzero(defined))
    samples = [
        _training_sample(
            clip,
            landmarks[lm_idx],
            t,
            tuple(map(tuple, rows)),
            config,
            f"{clip.clip_id}:{lm_idx:04d}:{draw:02d}",
        )
        for (lm_idx, draw, t), rows, ok in zip(draws, waypoints.tolist(), defined.tolist())
        if ok
    ]
    return samples, skipped


def collect_samples(
    clip_ids: list[str],
    landmarks: list[LandmarkAnnotation],
    accepted_ids: set[str],
    build: Callable[[list[tuple[int, list[LandmarkAnnotation]]]], list],
) -> tuple[list[TrainingSample], dict[str, int]]:
    """Samples over the accepted clips, plus the skip counts of the whole corpus.

    Landmarks are grouped by clip id in file order. A landmark whose clip
    is not among ``clip_ids`` counts as ``unknown_clip``; one whose clip is
    not in ``accepted_ids`` counts as ``rejected_clip``. ``build`` maps the
    (position in ``clip_ids``, landmarks) pairs of the accepted clips that
    have landmarks, sorted by clip id, to one ``build_clip_samples`` result
    per pair, in order; its samples are concatenated and its skip counts
    added in. A clip without landmarks gets no pair, as it would yield no
    sample and no skip, so its poses need never be read.
    """
    by_clip: dict[str, list[LandmarkAnnotation]] = {}
    for lm in landmarks:
        by_clip.setdefault(lm.clip_id, []).append(lm)
    known = set(clip_ids)
    skipped = dict.fromkeys(CLIP_SKIP_REASONS, 0)
    skipped["unknown_clip"] = sum(1 for lm in landmarks if lm.clip_id not in known)
    skipped["rejected_clip"] = sum(len(lms) for cid, lms in by_clip.items() if cid in known and cid not in accepted_ids)
    pairs = [
        (i, by_clip[clip_ids[i]])
        for i in sorted(range(len(clip_ids)), key=clip_ids.__getitem__)
        if clip_ids[i] in accepted_ids and clip_ids[i] in by_clip
    ]
    samples: list[TrainingSample] = []
    for clip_samples, clip_skips in build(pairs):
        samples.extend(clip_samples)
        for key, count in clip_skips.items():
            skipped[key] += count
    return samples, skipped


def build_corpus(
    clips: list[Clip],
    landmarks: list[LandmarkAnnotation],
    verdicts: list[FilterVerdict],
    config: SamplerConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> tuple[list[TrainingSample], dict[str, int]]:
    """Build samples over every accepted clip.

    Returns the deterministically ordered sample list (sorted by clip id,
    then landmark ordinal, then draw ordinal) plus counts of skipped
    landmarks by reason. A verdict must exist for every clip.
    """
    verdict_map = {v.clip_id: v for v in verdicts}
    missing = [c.clip_id for c in clips if c.clip_id not in verdict_map]
    if missing:
        raise ValidationError(f"no filter verdict for clips: {missing[:5]}")
    accepted_ids = {cid for cid, v in verdict_map.items() if v.accepted}
    return collect_samples(
        [c.clip_id for c in clips],
        landmarks,
        accepted_ids,
        lambda pairs: [build_clip_samples(clips[i], lms, config, convention) for i, lms in pairs],
    )
