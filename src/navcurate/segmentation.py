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
from .geometry import quat_conjugate, quat_multiply_many, quat_rotate
from .io import _FRAME_LIMIT, RawTrajectory, _write_text, parse_pose_file, write_pose_file

__all__ = ["Clip", "ClipEntry", "segment", "save_clips", "read_manifest", "load_clip", "load_clips"]

CLIP_MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ClipEntry:
    """One clip of a clip manifest: the pose file and what load_clip needs to rebuild the Clip.

    Every rule that the manifest alone can break is checked here, so a bad
    entry fails when the manifest is read, before any pose file is opened.
    """

    clip_id: str
    source_id: str
    fps: float
    start_frame: int
    n_frames: int
    file: str

    def __post_init__(self):
        if not self.clip_id or not self.source_id:
            raise ValidationError("clip_id and source_id must be non-empty")
        if not self.file:
            raise ValidationError("clip file must be non-empty")
        if not (math.isfinite(self.fps) and self.fps > 0.0):
            raise ValidationError(f"fps must be positive, got {self.fps!r}")
        if self.n_frames < 1:
            raise ValidationError(f"n_frames must be at least 1, got {self.n_frames}")
        if not 0 <= self.start_frame < _FRAME_LIMIT - self.n_frames:  # every source frame index fits in int64
            raise ValidationError(f"start_frame must be a non-negative int64 frame index, got {self.start_frame}")

    def __len__(self) -> int:
        return self.n_frames


@dataclass(frozen=True, eq=False)
class Clip:
    """A fixed-length pose window re-anchored to its first pose.

    Shares the columnar layout of RawTrajectory; pose 0 must be the
    identity within 1e-9. start_frame is the clip's offset into the
    source trajectory; ClipEntry checks the ids and start_frame of a
    loaded clip.
    """

    clip_id: str
    source_id: str
    fps: float
    timestamps: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray
    start_frame: int

    def __post_init__(self):
        base = RawTrajectory(self.clip_id, self.fps, self.timestamps, self.positions, self.quaternions)
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


def save_clips(clips, out_dir, extra: dict | None = None, map_tasks=map) -> Path:
    """Write one pose file per clip plus a manifest describing the set.

    Returns the manifest path. The manifest records fps, source ids and
    start frames, which load_clip needs to reconstruct Clip values;
    ``extra`` entries (tool info, config snapshot, digests) are merged in.
    ``map_tasks(fn, tasks)`` runs the per-clip writes (the CLI passes its
    process pool); the manifest is written after every pose file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = sorted(clips, key=lambda c: c.clip_id)
    entries = [
        ClipEntry(clip.clip_id, clip.source_id, clip.fps, clip.start_frame, len(clip), f"{clip.clip_id}.txt")
        for clip in clips
    ]
    list(map_tasks(_write_clip, [(clip, out_dir / entry.file) for clip, entry in zip(clips, entries)]))
    manifest = dict(extra or {})
    manifest["clips"] = [dataclasses.asdict(entry) for entry in entries]
    manifest_path = out_dir / CLIP_MANIFEST_NAME
    _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _write_clip(task) -> None:
    clip, path = task
    write_pose_file(RawTrajectory(clip.clip_id, clip.fps, clip.timestamps, clip.positions, clip.quaternions), path)


def read_manifest(clip_dir) -> list[ClipEntry]:
    """The entries of a clip directory's manifest, in manifest order."""
    manifest_path = Path(clip_dir) / CLIP_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: invalid clip manifest: {exc}")
    entries = manifest.get("clips", []) if type(manifest) is dict else None
    if type(entries) is not list:
        raise ValidationError(f"{manifest_path}: 'clips' must be a list of clip entries")
    return [schema.decoder(ClipEntry, f"{manifest_path}: clip entry {i}")(raw) for i, raw in enumerate(entries)]


def load_clip(clip_dir, entry: ClipEntry, index: int) -> Clip:
    """Parse the pose file of ``entry``, entry ``index`` of the clip directory's manifest."""
    clip_dir = Path(clip_dir)
    traj = parse_pose_file(clip_dir / entry.file, entry.fps, traj_id=entry.clip_id)
    if len(traj) != entry.n_frames:
        raise ValidationError(
            f"{clip_dir / CLIP_MANIFEST_NAME}: clip entry {index} lists {entry.n_frames} frames, "
            f"{entry.file} holds {len(traj)}"
        )
    return Clip(entry.clip_id, entry.source_id, traj.fps, traj.timestamps, traj.positions, traj.quaternions,
                entry.start_frame)


def load_clips(clip_dir) -> list[Clip]:
    """Load every clip listed in a clip directory's manifest, sorted by id."""
    return sorted((load_clip(clip_dir, e, i) for i, e in enumerate(read_manifest(clip_dir))), key=lambda c: c.clip_id)
