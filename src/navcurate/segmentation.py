"""Uniform clip segmentation with per-clip local re-anchoring.

A trajectory is cut into consecutive windows of round(clip_seconds * fps)
frames; a trailing partial window is dropped. Each clip's poses are
re-expressed in the frame of its first pose, so pose 0 is the identity
and the clip carries its own local world coordinate system.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import schema
from .errors import EmptyResult, ValidationError
from .geometry import Pose, quat_conjugate, quat_multiply_many, quat_rotate
from .io import _FRAME_LIMIT, RawTrajectory, _write_text, parse_pose_file, write_pose_file

__all__ = ["Clip", "segment", "save_clips", "load_clips"]

CLIP_MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ClipEntry:
    """One clip of a clip manifest: the pose file and what load_clips needs to rebuild the Clip."""

    clip_id: str
    source_id: str
    fps: float
    start_frame: int
    n_frames: int
    file: str


@dataclass(frozen=True, eq=False)
class Clip:
    """A fixed-length pose window re-anchored to its first pose.

    Shares the columnar layout of RawTrajectory; pose 0 must be the
    identity within 1e-9. start_frame is the clip's offset into the
    source trajectory.
    """

    clip_id: str
    source_id: str
    fps: float
    timestamps: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray
    start_frame: int

    def __post_init__(self):
        if not self.clip_id or not self.source_id:
            raise ValidationError("clip_id and source_id must be non-empty")
        base = RawTrajectory(self.clip_id, self.fps, self.timestamps, self.positions, self.quaternions)
        if not 0 <= self.start_frame < _FRAME_LIMIT - len(base):  # every source frame index fits in int64
            raise ValidationError(f"start_frame must be a non-negative int64 frame index, got {self.start_frame}")
        if float(np.linalg.norm(base.positions[0])) > 1e-9:
            raise ValidationError("clip pose 0 must sit at the local origin")
        if 1.0 - abs(float(base.quaternions[0, 3])) > 1e-9:
            raise ValidationError("clip pose 0 must have identity orientation")
        object.__setattr__(self, "fps", base.fps)
        object.__setattr__(self, "timestamps", base.timestamps)
        object.__setattr__(self, "positions", base.positions)
        object.__setattr__(self, "quaternions", base.quaternions)
        object.__setattr__(self, "start_frame", int(self.start_frame))

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def pose(self, i: int) -> Pose:
        return Pose(float(self.timestamps[i]), self.positions[i].copy(), self.quaternions[i].copy())


def clip_frame_count(clip_seconds: float, fps: float) -> int:
    return int(round(clip_seconds * fps))


def segment(traj: RawTrajectory, clip_seconds: float = 120.0) -> list[Clip]:
    """Cut a trajectory into re-anchored fixed-duration clips.

    Args:
        traj: source trajectory.
        clip_seconds: clip duration; frames per clip is
            round(clip_seconds * fps).

    Returns:
        Clips in source order, ids ``<source_id>_<ordinal:04d>``.

    Raises:
        EmptyResult: the trajectory is shorter than one clip; callers
            should skip the trajectory rather than abort.
    """
    if not (math.isfinite(clip_seconds) and clip_seconds > 0.0):
        raise ValidationError(f"clip_seconds must be positive, got {clip_seconds!r}")
    frames = clip_frame_count(clip_seconds, traj.fps)
    if frames < 1:
        raise ValidationError(f"clip window of {clip_seconds} s spans no frames at fps={traj.fps}")
    n_clips = len(traj) // frames
    if n_clips == 0:
        raise EmptyResult(f"trajectory {traj.id!r} has {len(traj)} frames, shorter than one {frames}-frame clip")
    clips = []
    for k in range(n_clips):
        start = k * frames
        stop = start + frames
        anchor_pos = traj.positions[start]
        anchor_quat = traj.quaternions[start]
        # R_anchor^T d applied to every row d is the single matmul d @ R_anchor.
        rot = np.stack([quat_rotate(anchor_quat, e) for e in np.eye(3)], axis=1)
        delta = traj.positions[start:stop] - anchor_pos
        local_pos = delta @ rot
        local_quat = quat_multiply_many(quat_conjugate(anchor_quat), traj.quaternions[start:stop])
        clips.append(
            Clip(
                clip_id=f"{traj.id}_{k:04d}",
                source_id=traj.id,
                fps=traj.fps,
                timestamps=traj.timestamps[start:stop],
                positions=local_pos,
                quaternions=local_quat,
                start_frame=start,
            )
        )
    return clips


def save_clips(clips, out_dir, extra: dict | None = None) -> Path:
    """Write one pose file per clip plus a manifest describing the set.

    Returns the manifest path. The manifest records fps, source ids and
    start frames, which load_clips needs to reconstruct Clip values;
    ``extra`` entries (tool info, config snapshot, digests) are merged in.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for clip in sorted(clips, key=lambda c: c.clip_id):
        filename = f"{clip.clip_id}.txt"
        traj = RawTrajectory(clip.clip_id, clip.fps, clip.timestamps, clip.positions, clip.quaternions)
        write_pose_file(traj, out_dir / filename)
        entries.append(
            dataclasses.asdict(ClipEntry(clip.clip_id, clip.source_id, clip.fps, clip.start_frame, len(clip), filename))
        )
    manifest = dict(extra or {})
    manifest["clips"] = entries
    manifest_path = out_dir / CLIP_MANIFEST_NAME
    _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_clips(clip_dir) -> list[Clip]:
    """Load every clip listed in a clip directory's manifest, sorted by id."""
    clip_dir = Path(clip_dir)
    manifest_path = clip_dir / CLIP_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: invalid clip manifest: {exc}")
    entries = manifest.get("clips", []) if type(manifest) is dict else None
    if type(entries) is not list:
        raise ValidationError(f"{manifest_path}: 'clips' must be a list of clip entries")
    clips = []
    for i, raw in enumerate(entries):
        entry = schema.decoder(ClipEntry, f"{manifest_path}: clip entry {i}")(raw)
        traj = parse_pose_file(clip_dir / entry.file, entry.fps, traj_id=entry.clip_id)
        if len(traj) != entry.n_frames:
            raise ValidationError(
                f"{manifest_path}: clip entry {i} lists {entry.n_frames} frames, {entry.file} holds {len(traj)}"
            )
        clips.append(
            Clip(
                clip_id=entry.clip_id,
                source_id=entry.source_id,
                fps=traj.fps,
                timestamps=traj.timestamps,
                positions=traj.positions,
                quaternions=traj.quaternions,
                start_frame=entry.start_frame,
            )
        )
    return sorted(clips, key=lambda c: c.clip_id)
