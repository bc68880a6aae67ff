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

Detections are person boxes of fixed geometry, a per-frame count of them
(see DetectionBlock): generate_detections builds their DetectionTable, and
write_detection_file writes its file from the counts. A spec is bounded: a
stream holds at most MAX_POSES poses (summed over a composite's parts),
which SynthSpec checks, and at most MAX_BOXES detection boxes, which
DetectionBlock.counts checks. Past either bound they raise ValidationError
naming the field; the ``synth`` command calls both before it writes
anything.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import io as tio
from . import schema
from .errors import ValidationError
from .geometry import (
    AxisConvention,
    quat_from_axis_angle,
    quat_multiply,
    quat_rotate,
)
from .io import DetectionTable, LandmarkAnnotation, RawTrajectory
from .sampling import draw_rng
from .segmentation import ClipEntry

__all__ = [
    "SynthSpec",
    "SynthFile",
    "DetectionBlock",
    "DetectionSpan",
    "LandmarkBlock",
    "RAW_CONVENTION",
    "CLIP_CONVENTION",
    "MAX_POSES",
    "MAX_BOXES",
    "generate",
    "generate_detections",
    "write_detection_file",
    "generate_landmarks",
]

KINDS = ("straight", "arc", "sinusoid_pitch", "head_turn", "stationary", "composite")

#: Frame of raw generated trajectories: gravity-aligned world, up +Z,
#: optical camera (x right, y down, z forward) heading +X when level.
RAW_CONVENTION = AxisConvention(camera_forward="+z", world_up="+z")

#: Frame of clips cut from generated trajectories: re-anchoring maps the
#: world axes onto the frame-0 camera axes, so "up" becomes camera -y.
CLIP_CONVENTION = AxisConvention(camera_forward="+z", world_up="-y")

#: Most poses one stream may hold (about 93 h at 30 fps); synth peaks at ~0.25 KB of memory per pose
#: (267 MB for 1.08M poses), almost all of it generate's arrays: its files are written in blocks.
MAX_POSES = 10_000_000
#: Most detection boxes one stream may hold, summed over its frames.
MAX_BOXES = 10_000_000


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
    traj_id: str | None = None
    parts: tuple["SynthSpec", ...] = ()

    rules = (
        ("kind in KINDS", "kind must be one of {KINDS}, got {kind!r}"),
        ("traj_id is None or traj_id", "trajectory id must be non-empty"),
        *((f"{name} > 0", f"{name} must be positive, got {{{name}!r}}") for name in ("duration_s", "fps", "speed_mps")),
        ("kind != 'head_turn' or turn_len_s > 0", "head_turn needs turn_len_s > 0"),
        ("kind != 'head_turn' or 0 <= turn_start_s and turn_start_s + turn_len_s <= duration_s",
         "turn interval must lie inside the duration"),
        ("kind != 'sinusoid_pitch' or period_s > 0", "sinusoid_pitch needs period_s > 0"),
        ("kind != 'composite' or parts", "composite needs at least one part"),
        ("kind != 'composite' or all(p.fps == parts[0].fps for p in parts)", "composite parts must share one fps"),
        ("kind != 'composite' or all(p.kind != 'composite' for p in parts)", "composite parts cannot nest"),
        ("kind != 'composite' or sum(p.poses for p in parts) <= MAX_POSES",
         "composite parts hold more than MAX_POSES = {MAX_POSES} poses"),
        ("kind == 'composite' or math.isfinite(duration_s * fps) and round(duration_s * fps) <= MAX_POSES",
         "duration_s {duration_s!r} at fps {fps!r} gives more than MAX_POSES = {MAX_POSES} poses"),
    )
    __post_init__ = schema.check

    @property
    def poses(self) -> int:
        """The stream's pose count: round(duration_s * fps), summed over a composite's parts."""
        if self.kind == "composite":
            return sum(p.poses for p in self.parts)
        return round(self.duration_s * self.fps)


@dataclass(frozen=True)
class DetectionSpan:
    """``count`` person boxes on each of ``frames`` frames from frame ``start``."""

    start: int
    frames: int
    count: int

    rules = tuple((f"{name} >= 0", f"detection span {name} must be non-negative, got {{{name}!r}}")
                  for name in ("start", "frames", "count"))
    __post_init__ = schema.check


@dataclass(frozen=True)
class DetectionBlock:
    """Person counts per frame: an explicit ``schedule``, else run-length ``spans`` over zeros."""

    schedule: tuple[int, ...] | None = None
    spans: tuple[DetectionSpan, ...] = ()

    rules = (("schedule is None or all(c >= 0 for c in schedule)", "detection schedule counts must be non-negative"),)
    __post_init__ = schema.check

    def counts(self, n_frames: int) -> np.ndarray:
        """The (n_frames,) int64 person count of each frame of an n_frames stream.

        The schedule is cut or zero-padded to n_frames; spans are applied in
        turn over zeros, a later span overwriting an earlier one. Raises
        ValidationError when the counts sum to more than MAX_BOXES.
        """
        counts = np.zeros(n_frames, dtype=np.int64)
        if self.schedule is not None:
            field = "detections.schedule"
            head = self.schedule[:n_frames]
            if max(head, default=0) > MAX_BOXES:
                raise ValidationError(f"{field} holds a count above MAX_BOXES = {MAX_BOXES}")
            counts[: len(head)] = head
        else:
            field = "detections.spans"
            for span in self.spans:
                # Any count above MAX_BOXES breaks the bound; clamping keeps it inside int64.
                counts[span.start : span.start + span.frames] = min(span.count, MAX_BOXES + 1)
        total = int(counts.sum())
        if total > MAX_BOXES:
            raise ValidationError(
                f"{field} gives {total} boxes over {n_frames} frames, more than MAX_BOXES = {MAX_BOXES}"
            )
        return counts


@dataclass(frozen=True)
class LandmarkBlock:
    """``per_clip`` landmarks on each ``clip_seconds`` clip of the trajectory, drawn with ``seed``.

    Each clip gets at most one landmark per frame of its second half, so a
    larger ``per_clip`` is capped; the manifest's ``counts.landmarks`` is
    the number written.
    """

    clip_seconds: float = 120.0
    per_clip: int = 3
    seed: int = 0

    rules = (
        ("per_clip >= 0", "per_clip must be non-negative, got {per_clip!r}"),
        ("0 <= seed < 2**64", "landmark seed must be a non-negative 64-bit integer"),
    )
    __post_init__ = schema.check


@dataclass(frozen=True)
class SynthFile:
    """A ``synth`` spec file: the trajectory, plus optional detection and landmark blocks."""

    trajectory: SynthSpec
    detections: DetectionBlock | None = None
    landmarks: LandmarkBlock | None = None

    __post_init__ = schema.check


def _base_orientation() -> np.ndarray:
    """Level optical camera heading +X in the +Z-up world.

    Camera z (forward) maps to +X, camera y (down) to -Z, camera x
    (right) to -Y; built as Rz(-90) Rx(-90).
    """
    return quat_multiply(
        quat_from_axis_angle([0.0, 0.0, 1.0], -90.0), quat_from_axis_angle([1.0, 0.0, 0.0], -90.0)
    )


@np.errstate(over="ignore", invalid="ignore")  # RawTrajectory rejects what overflows
def generate(spec: SynthSpec) -> RawTrajectory:
    """Produce the closed-form pose stream for a spec (frames of RAW_CONVENTION)."""
    if spec.kind == "composite":
        return _generate_composite(spec)
    n = spec.poses
    if n < 1:
        raise ValidationError(f"duration {spec.duration_s} s at fps {spec.fps} yields no frames")
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
        mid = spec.turn_start_s + spec.turn_len_s / 2.0
        # Over turn_len_s itself, not its half, which underflows to 0 for the tiniest positive length.
        yaw_offset = spec.turn_deg * np.maximum(0.0, 1.0 - 2.0 * np.abs(t - mid) / spec.turn_len_s)

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


_LABEL, _SCORE = "person", 0.9  # of every synthetic box


def _person_boxes(j: np.ndarray) -> np.ndarray:
    """The (len(j), 4) bbox of box j of a frame: (20 + 30j, 40, 44 + 30j, 160)."""
    return np.column_stack([20.0 + 30.0 * j, np.full(len(j), 40.0), 44.0 + 30.0 * j, np.full(len(j), 160.0)])


def _per_frame(frame_count: int, counts) -> np.ndarray:
    """counts as (frame_count,) int64, zero-padded or cut; ValidationError names the first that is not a count."""
    if not (isinstance(counts, np.ndarray) and counts.dtype.kind == "i" and (counts >= 0).all()):
        for i, count in enumerate(counts):
            if type(count) is bool or not isinstance(count, (int, np.integer)) or count < 0:
                raise ValidationError(f"detection count {i} must be a non-negative integer, got {count!r}")
    head = np.asarray(counts, dtype=np.int64)[:frame_count]
    return np.pad(head, (0, frame_count - len(head)))


def generate_detections(frame_count: int, counts) -> DetectionTable:
    """A DetectionTable of frames 0..frame_count - 1, frame f holding counts[f] person boxes scored 0.9.

    counts is zero-padded or cut to frame_count, and a count that is not a
    non-negative integer raises ValidationError. Box j of a frame is
    (20 + 30j, 40, 44 + 30j, 160).
    """
    per_frame = _per_frame(frame_count, counts)
    offsets = np.concatenate(([0], np.cumsum(per_frame)))
    j = np.arange(offsets[-1]) - np.repeat(offsets[:-1], per_frame)  # each box's place in its frame
    return DetectionTable(np.arange(frame_count), offsets, np.zeros(len(j), dtype=np.int64), (_LABEL,),
                          np.full(len(j), _SCORE), _person_boxes(j))


def write_detection_file(frame_count: int, counts, path) -> None:
    """Write the file of generate_detections(frame_count, counts): what ``io.write_records`` writes for its frames.

    Each block of BLOCK_ROWS frames formats the boxes of its distinct
    counts once, so memory grows with a block's boxes, not with the file.
    """
    tio._write_blocks(path, "", functools.partial(_detection_lines, _per_frame(frame_count, counts)), frame_count)


_BOX = '{"label":%s,"bbox":[%%r,%%r,%%r,%%r],"score":%r}' % (json.dumps(_LABEL), _SCORE)


def _detection_lines(per_frame: np.ndarray, bounds) -> bytes:
    lo, hi = bounds
    counts = per_frame[lo:hi].tolist()
    boxes = [_BOX % tuple(row) for row in _person_boxes(np.arange(max(counts))).tolist()]
    # The % below fills in only the frame numbers: a box's text holds no %.
    lines = {c: '{"frame":%d,"detections":[' + ",".join(boxes[:c]) + "]}\n" for c in set(counts)}
    return ("".join(map(lines.__getitem__, counts)) % tuple(range(lo, hi))).encode()


def generate_landmarks(entry: ClipEntry, n: int, seed: int = 0) -> list[LandmarkAnnotation]:
    """Placeholder landmarks at deterministic goal frames in the second half of the clip that entry plans.

    Goal frames are distinct, so at most as many landmarks as the second
    half has frames are made; a larger n is capped to that count.
    """
    lo = entry.n_frames // 2
    available = entry.n_frames - lo
    n = min(n, available)
    rng = draw_rng(seed, entry.clip_id, 0, 0)
    landmarks = []
    for i in range(n):
        goal = lo + (i * (available - 1)) // max(n - 1, 1)
        x1 = float(rng.integers(0, 600))
        y1 = float(rng.integers(0, 300))
        landmarks.append(
            LandmarkAnnotation(
                clip_id=entry.clip_id,
                goal_frame=goal,
                bbox=(x1, y1, x1 + 80.0, y1 + 120.0),
                name=f"landmark-{i}",
                instruction=f"go to landmark #{i} near {entry.clip_id}",
            )
        )
    return landmarks
