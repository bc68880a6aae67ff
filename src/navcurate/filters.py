"""Robot-compatibility rejection rules for clips.

Three independent checks, composed by :func:`run_filters`:

- pitch_range: peak-to-peak per-frame camera pitch over the clip must not
  exceed the configured range.
- view_divergence: over a sliding window, the angle between where the
  camera looks (yaw at the window's center frame) and where the agent
  actually moves (ground-plane displacement across the window) must not
  exceed the configured maximum. Windows that move less than the minimum
  displacement, or whose center yaw is gimbal-degenerate, are skipped so
  standing still never triggers a rejection.
- crowd_density: the number of frames whose person count exceeds the
  crowd size threshold must not exceed the frame threshold. Counts come
  from a DetectionTable in one pass over its box columns.

All thresholds fail only on strict exceedance: a range, divergence or
count exactly at its threshold passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schema
from .errors import ValidationError
from .geometry import AxisConvention, DEFAULT_CONVENTION, normalize_angle_deg, pitch_many, yaw_many
from .io import DetectionTable, RawTrajectory
from .segmentation import ClipEntry

__all__ = [
    "FilterConfig",
    "FilterVerdict",
    "REASON_PITCH",
    "REASON_DIVERGENCE",
    "REASON_CROWD",
    "check_pitch",
    "check_divergence",
    "check_crowd",
    "run_filters",
    "slice_detections",
]

REASON_PITCH = "pitch_range"
REASON_DIVERGENCE = "view_divergence"
REASON_CROWD = "crowd_density"


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds for the three compatibility rules."""

    pitch_range_max_deg: float = 15.0
    divergence_max_deg: float = 60.0
    window_seconds: float = 1.0
    min_window_displacement_m: float = 0.5
    crowd_count_threshold: int = 5
    crowd_frame_threshold: int = 3
    person_label: str = "person"
    person_score_min: float = 0.5

    rules = (
        *((f"{name} > 0", f"{name} must be positive, got {{{name}!r}}") for name in (
            "pitch_range_max_deg", "divergence_max_deg", "window_seconds", "min_window_displacement_m",
            "crowd_count_threshold", "crowd_frame_threshold")),
        ("0.0 <= person_score_min <= 1.0", "person_score_min must be in [0, 1], got {person_score_min!r}"),
    )
    __post_init__ = schema.check


@dataclass(frozen=True)
class FilterVerdict:
    """Per-clip outcome: accepted iff no rule fired; diagnostics always complete."""

    clip_id: str
    accepted: bool
    reasons: tuple[str, ...]
    diagnostics: dict = field(compare=False)

    def __post_init__(self):
        if self.accepted != (len(self.reasons) == 0):
            raise ValidationError("accepted must be equivalent to an empty reason set")
        object.__setattr__(self, "reasons", tuple(sorted(self.reasons)))


def _window_frames(config: FilterConfig, fps: float, n: int) -> int:
    # A window is w consecutive poses (w-1 frame intervals); floor of 2
    # keeps the displacement span nonzero at very low frame rates. A window
    # past the clip's n poses, even one that overflows to inf, is n + 1.
    return max(2, round(min(config.window_seconds * fps, n + 1)))


def check_pitch(
    clip: RawTrajectory,
    config: FilterConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> tuple[bool, float]:
    """Peak-to-peak pitch over the clip vs the configured range.

    Returns (passed, pitch_range_deg).
    """
    pitch = pitch_many(clip.quaternions, convention)
    pitch_range = float(pitch.max() - pitch.min())
    return pitch_range <= config.pitch_range_max_deg, pitch_range


def check_divergence(
    clip: RawTrajectory,
    config: FilterConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> tuple[bool, float | None]:
    """Worst view-vs-motion misalignment over all sliding windows.

    Returns (passed, max_divergence_deg); the diagnostic is 0.0 when no
    window moved far enough to measure. A clip with fewer poses than one
    window fails with the diagnostic None (null in the report). A window
    displacement that overflows raises ValidationError naming the clip.
    """
    n = len(clip)
    w = _window_frames(config, clip.fps, n)
    if n < w:
        return False, None
    yaw = yaw_many(clip.quaternions, convention)
    e1, e2 = convention.ground_axes
    with np.errstate(over="ignore", invalid="ignore"):
        delta = clip.positions[w - 1 :] - clip.positions[: n - w + 1]
        dx = delta @ e1
        dy = delta @ e2
        displacement = np.hypot(dx, dy)
    if not np.isfinite(displacement).all():
        raise ValidationError(f"clip {clip.id!r} has a non-finite window displacement: its positions overflow")
    view = yaw[(w - 1) // 2 : (w - 1) // 2 + n - w + 1]
    moving = displacement >= config.min_window_displacement_m
    valid = moving & ~np.isnan(view)
    if not np.any(valid):
        return True, 0.0
    bearing = np.degrees(np.arctan2(dy[valid], dx[valid]))
    divergence = np.abs(normalize_angle_deg(view[valid] - bearing))
    max_divergence = float(divergence.max())
    return max_divergence <= config.divergence_max_deg, max_divergence


def check_crowd(
    clip: RawTrajectory,
    detections: DetectionTable,
    config: FilterConfig,
) -> tuple[bool, int]:
    """Count clip frames whose person tally exceeds the crowd threshold.

    Detection frames are clip-local; out-of-range entries are ignored
    (run_filters reports how many). Returns (passed, crowded_frame_count).
    """
    inside = detections.window(0, len(clip))
    code = inside.names.index(config.person_label) if config.person_label in inside.names else -1
    qualifying = (inside.labels == code) & (inside.scores >= config.person_score_min)
    tally = np.concatenate(([0], np.cumsum(qualifying)))
    persons = tally[inside.offsets[1:]] - tally[inside.offsets[:-1]]
    crowded = int(np.count_nonzero(persons > config.crowd_count_threshold))
    return crowded <= config.crowd_frame_threshold, crowded


def run_filters(
    clip: RawTrajectory,
    detections: DetectionTable,
    config: FilterConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> FilterVerdict:
    """Evaluate all three rules (never short-circuits) and compose a verdict."""
    reasons = []
    pitch_ok, pitch_range = check_pitch(clip, config, convention)
    if not pitch_ok:
        reasons.append(REASON_PITCH)
    div_ok, max_divergence = check_divergence(clip, config, convention)
    if not div_ok:
        reasons.append(REASON_DIVERGENCE)
    crowd_ok, crowded_frames = check_crowd(clip, detections, config)
    if not crowd_ok:
        reasons.append(REASON_CROWD)
    ignored = len(detections) - len(detections.window(0, len(clip)))
    return FilterVerdict(
        clip_id=clip.id,
        accepted=not reasons,
        reasons=tuple(reasons),
        diagnostics={
            "pitch_range_deg": pitch_range,
            "max_divergence_deg": max_divergence,
            "crowded_frame_count": crowded_frames,
            "ignored_detection_frames": ignored,
        },
    )


def slice_detections(detections: DetectionTable, entry: ClipEntry) -> DetectionTable:
    """Select source-indexed detection frames covering a clip's entry, re-indexed clip-local."""
    return detections.window(entry.start_frame, entry.start_frame + entry.n_frames)
