"""Deterministic synthetic trajectories, detections and landmarks.

Every generator is a closed-form pure function of its spec, so filter and
metric thresholds can be tested exactly at and around their boundaries.

Trajectories live in a gravity-aligned world (RAW_CONVENTION) and start
at the origin with a level optical camera heading +X. Because clips are
re-anchored to their first pose, analysis on clips cut from these
trajectories uses CLIP_CONVENTION (up is camera -y) instead.

Trajectory kinds (all sampled at t_i = i / fps, n = round(duration * fps)
poses):

    straight        constant speed, constant heading
    arc             constant speed, constant yaw rate (yaw_rate_dps)
    sinusoid_pitch  straight walk, pitch(t) = amplitude * sin(2 pi t / period)
    head_turn       straight walk, view yaw ramps linearly to turn_deg at
                    the middle of [turn_start_s, turn_start_s + turn_len_s]
                    and back (triangular profile); the body keeps walking
    stationary      a fixed pose
    composite       parts chained end-to-end with ground-plane continuity
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import schema
from .errors import InvalidSpec
from .geometry import (
    AxisConvention,
    quat_from_axis_angle,
    quat_multiply,
    quat_rotate,
)
from .io import Detection, DetectionFrame, LandmarkAnnotation, RawTrajectory
from .sampling import draw_rng
from .segmentation import Clip

__all__ = [
    "SynthSpec",
    "SynthFile",
    "DetectionBlock",
    "DetectionSpan",
    "LandmarkBlock",
    "RAW_CONVENTION",
    "CLIP_CONVENTION",
    "generate",
    "generate_detections",
    "generate_landmarks",
]

log = logging.getLogger(__name__)

KINDS = ("straight", "arc", "sinusoid_pitch", "head_turn", "stationary", "composite")

#: Frame of raw generated trajectories: gravity-aligned world, up +Z,
#: optical camera (x right, y down, z forward) heading +X when level.
RAW_CONVENTION = AxisConvention(camera_forward="+z", world_up="+z")

#: Frame of clips cut from generated trajectories: re-anchoring maps the
#: world axes onto the frame-0 camera axes, so "up" becomes camera -y.
CLIP_CONVENTION = AxisConvention(camera_forward="+z", world_up="-y")


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    duration_s: float = 120.0
    fps: float = 30.0
    speed_mps: float = 1.4
    amplitude_deg: float = 10.0
    period_s: float = 4.0
    turn_deg: float = 0.0
    turn_start_s: float = 0.0
    turn_len_s: float = 0.0
    yaw_rate_dps: float = 10.0
    seed: int = 0
    traj_id: str | None = None
    parts: tuple["SynthSpec", ...] = ()

    def __post_init__(self):
        schema.check(self)
        if self.kind not in KINDS:
            raise InvalidSpec(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("duration_s", "fps", "speed_mps"):
            value = getattr(self, name)
            if not value > 0:
                raise InvalidSpec(f"{name} must be positive, got {value!r}")
        if self.kind == "head_turn":
            if self.turn_len_s <= 0:
                raise InvalidSpec("head_turn needs turn_len_s > 0")
            if self.turn_start_s < 0 or self.turn_start_s + self.turn_len_s > self.duration_s:
                raise InvalidSpec("turn interval must lie inside the duration")
        if self.kind == "sinusoid_pitch" and self.period_s <= 0:
            raise InvalidSpec("sinusoid_pitch needs period_s > 0")
        if self.kind == "composite":
            if not self.parts:
                raise InvalidSpec("composite needs at least one part")
            if any(p.fps != self.parts[0].fps for p in self.parts):
                raise InvalidSpec("composite parts must share one fps")
            if any(p.kind == "composite" for p in self.parts):
                raise InvalidSpec("composite parts cannot nest")


@dataclass(frozen=True)
class DetectionSpan:
    """``count`` person boxes on each of ``frames`` frames from frame ``start``."""

    start: int
    frames: int
    count: int

    def __post_init__(self):
        schema.check(self)
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvalidSpec(f"detection span {f.name} must be non-negative, got {getattr(self, f.name)!r}")


@dataclass(frozen=True)
class DetectionBlock:
    """Person counts per frame: an explicit ``schedule``, else run-length ``spans`` over zeros."""

    schedule: tuple[int, ...] | None = None
    spans: tuple[DetectionSpan, ...] = ()

    def __post_init__(self):
        schema.check(self)
        if self.schedule is not None and any(c < 0 for c in self.schedule):
            raise InvalidSpec("detection schedule counts must be non-negative")

    def counts(self, n_frames: int) -> list[int]:
        if self.schedule is not None:
            return list(self.schedule)
        counts = [0] * n_frames
        for span in self.spans:
            for f in range(span.start, min(span.start + span.frames, n_frames)):
                counts[f] = span.count
        return counts


@dataclass(frozen=True)
class LandmarkBlock:
    """``per_clip`` landmarks on each ``clip_seconds`` clip of the trajectory, drawn with ``seed``."""

    clip_seconds: float = 120.0
    per_clip: int = 3
    seed: int = 0

    def __post_init__(self):
        schema.check(self)
        if self.per_clip < 0:
            raise InvalidSpec(f"per_clip must be non-negative, got {self.per_clip!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec("landmark seed must be a non-negative 64-bit integer")


@dataclass(frozen=True)
class SynthFile:
    """A ``synth`` spec file: the trajectory, plus optional detection and landmark blocks."""

    trajectory: SynthSpec
    detections: DetectionBlock | None = None
    landmarks: LandmarkBlock | None = None

    def __post_init__(self):
        schema.check(self)


def _base_orientation() -> np.ndarray:
    """Level optical camera heading +X in the +Z-up world.

    Camera z (forward) maps to +X, camera y (down) to -Z, camera x
    (right) to -Y; built as Rz(-90) Rx(-90).
    """
    return quat_multiply(
        quat_from_axis_angle([0.0, 0.0, 1.0], -90.0), quat_from_axis_angle([1.0, 0.0, 0.0], -90.0)
    )


def generate(spec: SynthSpec) -> RawTrajectory:
    """Produce the closed-form pose stream for a spec (frames of RAW_CONVENTION)."""
    if spec.kind == "composite":
        return _generate_composite(spec)
    n = int(round(spec.duration_s * spec.fps))
    if n < 1:
        raise InvalidSpec(f"duration {spec.duration_s} s at fps {spec.fps} yields no frames")
    t = np.arange(n) / spec.fps
    e1, e2 = RAW_CONVENTION.ground_axes
    up = RAW_CONVENTION.up_vec
    q0 = _base_orientation()
    positions = np.zeros((n, 3))
    yaw_offset = np.zeros(n)
    pitch_offset = np.zeros(n)

    if spec.kind == "straight":
        positions = np.outer(spec.speed_mps * t, e1)
    elif spec.kind == "stationary":
        pass
    elif spec.kind == "arc":
        omega = math.radians(spec.yaw_rate_dps)
        if abs(omega) < 1e-12:
            positions = np.outer(spec.speed_mps * t, e1)
        else:
            radius = spec.speed_mps / omega
            positions = radius * (np.outer(np.sin(omega * t), e1) + np.outer(1.0 - np.cos(omega * t), e2))
        yaw_offset = np.degrees(omega * t)
    elif spec.kind == "sinusoid_pitch":
        positions = np.outer(spec.speed_mps * t, e1)
        pitch_offset = spec.amplitude_deg * np.sin(2.0 * math.pi * t / spec.period_s)
    elif spec.kind == "head_turn":
        positions = np.outer(spec.speed_mps * t, e1)
        half = spec.turn_len_s / 2.0
        mid = spec.turn_start_s + half
        yaw_offset = spec.turn_deg * np.maximum(0.0, 1.0 - np.abs(t - mid) / half)

    quats = _compose_orientations(q0, yaw_offset, pitch_offset, up, e2)
    return RawTrajectory(spec.traj_id or f"synth_{spec.kind}", spec.fps, t, positions, quats)


def _compose_orientations(q0, yaw_deg, pitch_deg, up, left) -> np.ndarray:
    """Apply per-frame world yaw then pitch offsets on top of q0."""
    n = yaw_deg.shape[0]
    half_yaw = np.radians(yaw_deg) / 2.0
    q_yaw = np.zeros((n, 4))
    q_yaw[:, :3] = np.outer(np.sin(half_yaw), up)
    q_yaw[:, 3] = np.cos(half_yaw)
    # Tilting up is a negative rotation about the leftward axis.
    half_pitch = np.radians(-pitch_deg) / 2.0
    q_pitch = np.zeros((n, 4))
    q_pitch[:, :3] = np.outer(np.sin(half_pitch), left)
    q_pitch[:, 3] = np.cos(half_pitch)
    return quat_multiply(quat_multiply(q_yaw, q_pitch), q0)


def _generate_composite(spec: SynthSpec) -> RawTrajectory:
    e1, e2 = RAW_CONVENTION.ground_axes
    up = RAW_CONVENTION.up_vec
    dt = 1.0 / spec.parts[0].fps
    pos_off = np.zeros(3)
    yaw_off = 0.0
    t_off = 0.0
    first = True
    times = []
    positions = []
    quats = []
    for part in spec.parts:
        traj = generate(part)
        q_off = quat_from_axis_angle(up, yaw_off)
        # Row i of quat_rotate(q, I) is R e_i, so p @ it is R p for every row p.
        positions.append(traj.positions @ quat_rotate(q_off, np.eye(3)) + pos_off)
        quats.append(quat_multiply(q_off, traj.quaternions))
        times.append(traj.timestamps + (0.0 if first else t_off + dt))
        t_off = times[-1][-1]
        pos_off = positions[-1][-1]
        # Heading continuity in the ground plane only: accumulate the
        # part's final local yaw on top of the running offset.
        fwd_end = quat_rotate(traj.quaternions[-1], RAW_CONVENTION.forward_vec)
        yaw_off += math.degrees(math.atan2(float(fwd_end @ e2), float(fwd_end @ e1)))
        first = False
    return RawTrajectory(
        spec.traj_id or "synth_composite",
        spec.parts[0].fps,
        np.concatenate(times),
        np.vstack(positions),
        np.vstack(quats),
    )


def generate_detections(frame_count: int, count_schedule) -> list[DetectionFrame]:
    """One DetectionFrame per frame with the scheduled number of person boxes.

    Boxes have fixed geometry and score 0.9; a schedule shorter than
    frame_count is padded with zeros.
    """
    counts = list(count_schedule)[:frame_count]
    counts += [0] * (frame_count - len(counts))
    # One box object per position, shared by every frame that shows it.
    boxes = tuple(
        Detection("person", (20.0 + 30.0 * j, 40.0, 44.0 + 30.0 * j, 160.0), 0.9) for j in range(max(counts, default=0))
    )
    return [DetectionFrame(f, boxes[: max(count, 0)]) for f, count in enumerate(counts)]


def generate_landmarks(clip: Clip, n: int, seed: int = 0) -> list[LandmarkAnnotation]:
    """Placeholder landmarks at deterministic goal frames in the clip's second half."""
    n_frames = len(clip)
    lo = n_frames // 2
    hi = n_frames - 1
    available = hi - lo + 1
    if n > available:
        log.warning("clip %s: requested %d landmarks, only %d feasible goal frames", clip.clip_id, n, available)
        n = available
    rng = draw_rng(seed, clip.clip_id, 0, 0)
    landmarks = []
    for i in range(n):
        goal = lo + (i * (available - 1)) // max(n - 1, 1)
        x1 = float(rng.integers(0, 600))
        y1 = float(rng.integers(0, 300))
        landmarks.append(
            LandmarkAnnotation(
                clip_id=clip.clip_id,
                goal_frame=goal,
                bbox=(x1, y1, x1 + 80.0, y1 + 120.0),
                name=f"landmark-{i}",
                instruction=f"go to landmark #{i} near {clip.clip_id}",
            )
        )
    return landmarks
