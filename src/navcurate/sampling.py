"""Training-sample construction: start drawing, waypoint extraction, arrival labels.

For each (accepted clip, landmark, draw) triple the builder draws a start
frame t relative to the goal frame t_g, then extracts the next
``horizon`` ground-plane waypoints in the frame of pose(t). A small
fraction of draws lands within ``arrival_window`` of the goal and is
labelled as an arrival case; ordinary draws start between ``min_offset``
and ``max_offset`` frames before the goal. A goal closer to the clip
start than ``min_offset`` has no feasible start: :func:`draw_start`
returns None and the draw is counted as skipped.

Randomness is reproducible regardless of scheduling: every draw gets its
own numpy Generator keyed by (seed, sha256(clip_id), landmark ordinal,
draw ordinal), so fanning the corpus build out per clip cannot change a
single sample.

:func:`build_clip_samples` draws every start of a clip first, then
extracts all their waypoints with one
:func:`~navcurate.geometry.ego_waypoints_many` call and formats each
sample's JSON line straight from those arrays, with the bytes
``io.write_records`` gives the equal :class:`~navcurate.io.TrainingSample`;
no per-sample object is built. :func:`collect_samples` plans the
``samples`` command: it sorts the landmarks by clip once, names the
``lo:hi`` landmark rows of each accepted clip, and counts the landmarks
of unknown and rejected clips.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from . import schema
from .errors import ValidationError
from .geometry import AxisConvention, DEFAULT_CONVENTION, ego_waypoints_many
from .io import MAX_HORIZON, LandmarkAnnotation, RawTrajectory, TrainingSample

__all__ = [
    "SamplerConfig",
    "TrainingSample",
    "draw_start",
    "build_clip_samples",
    "collect_samples",
]

# Skip reasons counted inside one clip: goal_out_of_bounds once per
# landmark, the others once per draw.
CLIP_SKIP_REASONS = ("infeasible", "out_of_bounds", "gimbal_degenerate", "goal_out_of_bounds")
# The longest history: longer than a 120 s clip at 83 fps, and frames before a clip's start clamp to frame 0.
MAX_HISTORY_LEN = 10_000
# The most draws per landmark: each draw is one Python step, so a count past any use never finishes.
MAX_DRAWS_PER_LANDMARK = 10_000


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

    rules = (
        ("history_len >= 1 and horizon >= 1", "history_len and horizon must be >= 1"),
        ("history_len <= MAX_HISTORY_LEN", "history_len must be at most {MAX_HISTORY_LEN} frames, got {history_len}"),
        ("horizon <= MAX_HORIZON", "horizon must be at most {MAX_HORIZON} waypoints, got {horizon}"),
        ("0 < min_offset <= max_offset", "need 0 < min_offset <= max_offset, got {min_offset}, {max_offset}"),
        ("0 <= arrival_window < min_offset", "arrival_window must be in [0, min_offset)"),
        ("0.0 <= arrival_fraction <= 1.0", "arrival_fraction must be in [0, 1], got {arrival_fraction!r}"),
        ("waypoint_stride >= 1", "waypoint_stride must be >= 1"),
        ("draws_per_landmark >= 1", "draws_per_landmark must be >= 1"),
        ("draws_per_landmark <= MAX_DRAWS_PER_LANDMARK",
         "draws_per_landmark must be at most {MAX_DRAWS_PER_LANDMARK}, got {draws_per_landmark}"),
        ("0 <= seed < 2**64", "seed must be a non-negative 64-bit integer"),
    )
    __post_init__ = schema.check


def _clip_key(clip_id: str) -> int:
    # A JSON id may hold a lone surrogate (the escape \ud800); surrogatepass keys it
    # instead of raising, and leaves every valid UTF-8 id's key as it was.
    return int.from_bytes(hashlib.sha256(clip_id.encode("utf-8", "surrogatepass")).digest()[:8], "big")


def _keyed_rng(seed: int, clip_key: int, landmark_ordinal: int, draw_ordinal: int) -> np.random.Generator:
    return np.random.default_rng([seed, clip_key, landmark_ordinal, draw_ordinal])


def draw_rng(seed: int, clip_id: str, landmark_ordinal: int, draw_ordinal: int) -> np.random.Generator:
    """Deterministic per-draw generator, independent of build scheduling."""
    return _keyed_rng(seed, _clip_key(clip_id), landmark_ordinal, draw_ordinal)


def draw_start(t_g: int, config: SamplerConfig, rng: np.random.Generator) -> int | None:
    """Draw a start frame t for a goal at frame t_g.

    With probability ``arrival_fraction`` t is uniform on
    [t_g - arrival_window, t_g]; otherwise uniform on
    [t_g - max_offset, t_g - min_offset], both clamped at frame 0.

    Returns None, drawing nothing from rng, when the non-arrival interval
    is empty after clamping (t_g < min_offset); the caller skips the draw.
    """
    lo = max(0, t_g - config.max_offset)
    hi = t_g - config.min_offset
    if hi < lo:
        return None
    if rng.random() < config.arrival_fraction:
        return int(rng.integers(max(0, t_g - config.arrival_window), t_g + 1))
    return int(rng.integers(lo, hi + 1))


def build_clip_samples(
    clip: RawTrajectory,
    landmarks: list[LandmarkAnnotation],
    config: SamplerConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> tuple[list[str], dict[str, int]]:
    """The sample lines of one accepted clip; landmark ordinals follow file order.

    Draw (landmark ordinal, draw ordinal) gets the start frame t of
    ``draw_start`` under ``draw_rng`` and sample id
    ``<clip_id>:<landmark:04d>:<draw:02d>``. Waypoint i of its sample is
    pose(t + (i+1)*stride)'s position in the ground-plane frame of
    pose(t); history frame j is t - (history_len - 1 - j)*stride, clamped
    at 0; the sample is an arrival case when t_g - t <= arrival_window. A
    draw is skipped as ``infeasible``, ``out_of_bounds`` or
    ``gimbal_degenerate`` (checked in that order), a landmark whose goal
    lies past the clip end as ``goal_out_of_bounds``.

    Each sample is one JSON line ending in a newline, the bytes
    ``io.write_records`` writes for the equal TrainingSample, formatted
    from the draw arrays: one escaped prefix per landmark, and each float
    through ``%r``, which is the ``float.__repr__`` json writes.

    Raises:
        ValidationError: a waypoint is not finite (clip positions so large
            that their differences overflow); the first such sample is named.
    """
    skipped = dict.fromkeys(CLIP_SKIP_REASONS, 0)
    k = config.horizon
    stride = config.waypoint_stride
    clip_key = _clip_key(clip.id)
    draws = []  # (landmark ordinal, draw ordinal, start frame) of every in-bounds start
    for lm_idx, landmark in enumerate(landmarks):
        if landmark.goal_frame >= len(clip):
            skipped["goal_out_of_bounds"] += 1
            continue
        for draw in range(config.draws_per_landmark):
            rng = _keyed_rng(config.seed, clip_key, lm_idx, draw)
            t = draw_start(landmark.goal_frame, config, rng)
            if t is None:
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
    # Overflow gives inf or nan, which the check below rejects instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        waypoints, defined = ego_waypoints_many(
            clip.quaternions[starts], clip.positions[starts], targets, convention
        )
    skipped["gimbal_degenerate"] = len(draws) - int(np.count_nonzero(defined))
    kept = [d for d, ok in zip(draws, defined.tolist()) if ok]
    if not kept:
        return [], skipped
    lm_idx, draw, t = (list(column) for column in zip(*kept))
    waypoints = waypoints[defined].reshape(len(kept), 2 * k)
    finite = np.isfinite(waypoints).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        sample_id = f"{clip.id}:{lm_idx[i]:04d}:{draw[i]:02d}"
        raise ValidationError(f"sample {sample_id!r} has a non-finite waypoint: the clip's positions overflow")
    history = np.maximum(0, starts[defined][:, None] - stride * np.arange(config.history_len - 1, -1, -1))
    clip_json = json.dumps(clip.id)
    heads = [f'{{"sample_id":{clip_json[:-1]}:{i:04d}:' for i in range(len(landmarks))]
    middles = [f'","clip_id":{clip_json},"instruction":{json.dumps(lm.instruction)},"t":' for lm in landmarks]
    goals = [lm.goal_frame for lm in landmarks]
    line = (
        '%s%02d%s%d,"t_g":%d,"history_frames":['
        + ",".join(["%d"] * config.history_len)
        + '],"waypoints":['
        + ",".join(["[%r,%r]"] * k)
        + '],"arrival":%s}\n'
    )
    arrival = ["true" if goals[i] - ti <= config.arrival_window else "false" for i, ti in zip(lm_idx, t)]
    columns = zip(
        [heads[i] for i in lm_idx],
        draw,
        [middles[i] for i in lm_idx],
        t,
        [goals[i] for i in lm_idx],
        *history.T.tolist(),
        *waypoints.T.tolist(),
        arrival,
    )
    return [line % values for values in columns], skipped


def collect_samples(
    clip_ids: list[str], landmarks: list[LandmarkAnnotation], accepted_ids: set[str]
) -> tuple[list[LandmarkAnnotation], list[tuple[int, int, int]], dict[str, int]]:
    """The sample plan of a corpus: its landmarks by clip, the rows of each clip to build, and the skip counts.

    The landmarks are sorted stably by clip id, so a clip's landmarks keep
    their file order, and with it their ordinals. A row ``(position, lo,
    hi)`` builds the clip ``clip_ids[position]`` (the ids are distinct)
    from sorted landmarks ``lo:hi``; there is one row per accepted clip
    that has landmarks, in clip-id order. A clip without landmarks gets no
    row, as it would yield no sample and no skip, so its poses need never
    be read. A landmark whose clip is not among ``clip_ids`` counts as
    ``unknown_clip``; one whose clip is not in ``accepted_ids`` counts as
    ``rejected_clip``; the per-clip reasons count 0, for the caller to add
    each row's ``build_clip_samples`` skips to.
    """
    ordered = sorted(landmarks, key=attrgetter("clip_id"))
    position = {clip_id: i for i, clip_id in enumerate(clip_ids)}
    skipped = dict.fromkeys((*CLIP_SKIP_REASONS, "unknown_clip", "rejected_clip"), 0)
    rows = []
    lo = 0
    for clip_id, run in groupby(ordered, attrgetter("clip_id")):
        hi = lo + sum(1 for _ in run)
        if clip_id not in position:
            skipped["unknown_clip"] += hi - lo
        elif clip_id not in accepted_ids:
            skipped["rejected_clip"] += hi - lo
        else:
            rows.append((position[clip_id], lo, hi))
        lo = hi
    return ordered, rows, skipped
