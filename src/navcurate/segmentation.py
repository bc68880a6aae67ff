"""Uniform clip segmentation with per-clip local re-anchoring.

A trajectory is cut into consecutive windows of round(clip_seconds * fps)
frames; a trailing partial window is dropped. Each clip's poses are
re-expressed in the frame of its first pose, so pose 0 is the identity
and the clip carries its own local world coordinate system.

A clip is a pair: its ClipEntry (id, source, fps, start frame, length,
file), which the clip manifest records, and a RawTrajectory of its
re-anchored poses whose id is the clip id.
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
from .geometry import quat_conjugate, quat_multiply, quat_rotate
from .io import _FRAME_LIMIT, RawTrajectory, parse_pose_file, read_text, write_pose_file, write_report

__all__ = ["ClipEntry", "segment", "save_clips", "read_manifest", "load_clip"]

CLIP_MANIFEST_NAME = "manifest.json"


@schema.record
@dataclass(frozen=True)
class ClipEntry:
    """A clip's metadata and one entry of a clip manifest; the poses live in its pose ``file``.

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
        schema.check(self)
        if not self.clip_id or not self.source_id:
            raise ValidationError("clip_id and source_id must be non-empty")
        if not self.file:
            raise ValidationError("clip file must be non-empty")
        if not self.fps > 0.0:
            raise ValidationError(f"fps must be positive, got {self.fps!r}")
        if self.n_frames < 1:
            raise ValidationError(f"n_frames must be at least 1, got {self.n_frames}")
        if not 0 <= self.start_frame < _FRAME_LIMIT - self.n_frames:  # every source frame index fits in int64
            raise ValidationError(f"start_frame must be a non-negative int64 frame index, got {self.start_frame}")


def clip_frame_count(clip_seconds: float, fps: float) -> int:
    return int(round(clip_seconds * fps))


def segment(traj: RawTrajectory, clip_seconds: float = 120.0) -> list[tuple[ClipEntry, RawTrajectory]]:
    """Cut a trajectory into re-anchored fixed-duration clips.

    Args:
        traj: source trajectory.
        clip_seconds: clip duration; frames per clip is
            round(clip_seconds * fps).

    Returns:
        One (entry, poses) pair per clip in source order; ids are
        ``<source_id>_<ordinal:04d>`` and pose file names ``<id>.txt``.

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
        rot = quat_rotate(anchor_quat, np.eye(3)).T
        delta = traj.positions[start:stop] - anchor_pos
        local_pos = delta @ rot
        local_quat = quat_multiply(quat_conjugate(anchor_quat), traj.quaternions[start:stop])
        clip_id = f"{traj.id}_{k:04d}"
        entry = ClipEntry(clip_id, traj.id, traj.fps, start, frames, f"{clip_id}.txt")
        clips.append((entry, RawTrajectory(clip_id, traj.fps, traj.timestamps[start:stop], local_pos, local_quat)))
    return clips


def save_clips(clips, out_dir, extra: dict | None = None, map_tasks=map) -> Path:
    """Write the pose file of each (entry, poses) pair from segment, plus a manifest of the entries.

    Returns the manifest path. The manifest lists the entries sorted by
    clip id; ``extra`` entries (tool info, config snapshot, digests) are
    merged in. ``map_tasks(fn, tasks)`` runs the per-clip writes (the CLI
    passes its process pool); the manifest is written after every pose
    file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = sorted(clips, key=lambda pair: pair[0].clip_id)
    list(map_tasks(_write_clip, [(traj, out_dir / entry.file) for entry, traj in clips]))
    manifest = dict(extra or {})
    manifest["clips"] = [dataclasses.asdict(entry) for entry, _ in clips]
    manifest_path = out_dir / CLIP_MANIFEST_NAME
    write_report(manifest, manifest_path)
    return manifest_path


def _write_clip(task) -> None:
    write_pose_file(*task)


def read_manifest(clip_dir) -> list[ClipEntry]:
    """The entries of a clip directory's manifest, in manifest order."""
    manifest_path = Path(clip_dir) / CLIP_MANIFEST_NAME
    try:
        manifest = json.loads(read_text(manifest_path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: invalid clip manifest: {exc}")
    entries = manifest.get("clips", []) if type(manifest) is dict else None
    if type(entries) is not list:
        raise ValidationError(f"{manifest_path}: 'clips' must be a list of clip entries")
    return [schema.decoder(ClipEntry, f"{manifest_path}: clip entry {i}")(raw) for i, raw in enumerate(entries)]


def load_clip(clip_dir, entry: ClipEntry, index: int) -> RawTrajectory:
    """The poses of ``entry``, entry ``index`` of the clip directory's manifest.

    The pose file must hold the entry's frame count, and its pose 0 must
    be the identity within 1e-9.
    """
    clip_dir = Path(clip_dir)
    traj = parse_pose_file(clip_dir / entry.file, entry.fps, traj_id=entry.clip_id)
    where = f"{clip_dir / CLIP_MANIFEST_NAME}: clip entry {index}"
    if len(traj) != entry.n_frames:
        raise ValidationError(f"{where} lists {entry.n_frames} frames, {entry.file} holds {len(traj)}")
    if float(np.linalg.norm(traj.positions[0])) > 1e-9:
        raise ValidationError(f"{where}: pose 0 of {entry.file} must sit at the local origin")
    if 1.0 - abs(float(traj.quaternions[0, 3])) > 1e-9:
        raise ValidationError(f"{where}: pose 0 of {entry.file} must have identity orientation")
    return traj
