"""Uniform clip segmentation with per-clip local re-anchoring.

A trajectory is cut into consecutive windows of round(clip_seconds * fps)
frames; a trailing partial window is dropped. Each clip's poses are
re-expressed in the frame of its first pose, so pose 0 is the identity
and the clip carries its own local world coordinate system.

A clip is its ClipEntry (id, source, fps, start frame, length, file and
the file's sha256), which the clip manifest records; cut_clip (from the
stream) and load_clip (from the pose file) give its re-anchored poses,
whose id is the clip id. The manifest pins each pose file by its digest,
so a pose file changed after ``segment`` wrote it fails to load.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import schema
from .errors import EmptyResult, ValidationError
from .geometry import quat_conjugate, quat_multiply, quat_rotate
# _FRAME_LIMIT and _name_fault are named in ClipEntry's rules, which resolve in this module.
from .io import (_FRAME_LIMIT, RawTrajectory, _name_fault, _reduce, file_digest, load_json, parse_pose_file,
                 remove_output, write_pose_file, write_report)

__all__ = ["ClipEntry", "segment", "cut_clip", "save_clips", "read_manifest", "load_clip"]

CLIP_MANIFEST_NAME = "manifest.json"


@schema.record
@dataclass(frozen=True)
class ClipEntry:
    """A clip's metadata and one entry of a clip manifest; the poses live in its pose ``file``.

    Every rule that the manifest alone can break is checked here, so a bad
    entry fails when the manifest is read, before any pose file is opened.
    ``sha256`` is the digest of the pose file: None in the entries that
    :func:`segment` plans before the file exists, and listed for every entry
    of a manifest.
    """

    clip_id: str
    source_id: str
    fps: float
    start_frame: int
    n_frames: int
    file: str
    sha256: str | None = None

    rules = (
        ("clip_id and source_id", "clip_id and source_id must be non-empty"),
        ("file", "clip file must be non-empty"),
        # The clip id is its clip's trajectory id, and the file is read from the clip directory.
        *((f"_name_fault({name!r}, {name}) is None", f"{{_name_fault({name!r}, {name})}}")
          for name in ("clip_id", "source_id", "file")),
        ("fps > 0.0", "fps must be positive, got {fps!r}"),
        ("n_frames >= 1", "n_frames must be at least 1, got {n_frames}"),
        ("0 <= start_frame < _FRAME_LIMIT - n_frames",  # every source frame index fits in int64
         "start_frame must be a non-negative int64 frame index, got {start_frame}"),
        ("sha256 is None or len(sha256) == 64 and not sha256.strip('0123456789abcdef')",
         "sha256 must be 64 lowercase hex digits, got {sha256!r}"),
    )
    __post_init__ = schema.check
    # A pool task carries its entry, pickled as a constructor call on its values rather than a dict keyed by name.
    __reduce__ = _reduce


def segment(traj: RawTrajectory, clip_seconds: float = 120.0) -> list[ClipEntry]:
    """Plan the fixed-duration clips of a trajectory.

    Args:
        traj: source trajectory.
        clip_seconds: clip duration; frames per clip is
            round(clip_seconds * fps).

    Returns:
        One ClipEntry per clip in source order; ids are
        ``<source_id>_<ordinal:04d>`` and pose file names ``<id>.txt``.

    Raises:
        EmptyResult: the trajectory is shorter than one clip; callers
            should skip the trajectory rather than abort.
    """
    if not (math.isfinite(clip_seconds) and clip_seconds > 0.0):
        raise ValidationError(f"clip_seconds must be positive, got {clip_seconds!r}")
    # A window past the stream, even one whose frame count overflows to inf, is one frame longer than the stream.
    frames = round(min(clip_seconds * traj.fps, len(traj) + 1))
    if frames < 1:
        raise ValidationError(f"clip window of {clip_seconds} s spans no frames at fps={traj.fps}")
    n_clips = len(traj) // frames
    if n_clips == 0:
        raise EmptyResult(f"trajectory {traj.id!r} has {len(traj)} frames, shorter than one clip of {clip_seconds} s "
                          f"at fps={traj.fps}")
    ids = [f"{traj.id}_{k:04d}" for k in range(n_clips)]
    return [ClipEntry(cid, traj.id, traj.fps, k * frames, frames, f"{cid}.txt") for k, cid in enumerate(ids)]


def cut_clip(traj: RawTrajectory, entry: ClipEntry) -> RawTrajectory:
    """The poses of ``entry``, a clip of ``traj``, re-anchored to its first pose; the id is the clip id."""
    start, stop = entry.start_frame, entry.start_frame + entry.n_frames
    anchor_pos = traj.positions[start]
    anchor_quat = traj.quaternions[start]
    # R_anchor^T d applied to every row d is the single matmul d @ R_anchor.
    rot = quat_rotate(anchor_quat, np.eye(3)).T
    with np.errstate(over="ignore", invalid="ignore"):  # RawTrajectory rejects what overflows
        local_pos = (traj.positions[start:stop] - anchor_pos) @ rot
    local_quat = quat_multiply(quat_conjugate(anchor_quat), traj.quaternions[start:stop])
    return RawTrajectory(entry.clip_id, traj.fps, traj.timestamps[start:stop], local_pos, local_quat)


def save_clips(traj: RawTrajectory, entries, out_dir, extra: dict | None = None, map_tasks=map) -> Path:
    """Write the pose file of each entry that segment planned for traj, plus a manifest of the entries.

    Returns the manifest path. The manifest lists the entries sorted by
    clip id, each with the sha256 of the pose file written; ``extra``
    entries (tool info, config snapshot, digests) are merged in.
    ``map_tasks(fn, tasks)`` runs the per-clip cuts and writes
    (the CLI passes its process pool), one entry per task. An old manifest
    is removed before the first pose file, and the new one is written after
    the last.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / CLIP_MANIFEST_NAME
    remove_output(manifest_path)
    entries = sorted(entries, key=lambda entry: entry.clip_id)
    digests = map_tasks(functools.partial(_write_clip, traj, out_dir), entries)
    manifest = dict(extra or {})
    manifest["clips"] = [{**dataclasses.asdict(entry), "sha256": digest} for entry, digest in zip(entries, digests)]
    write_report(manifest, manifest_path)
    return manifest_path


def _write_clip(traj: RawTrajectory, out_dir: Path, entry: ClipEntry) -> str:
    return write_pose_file(cut_clip(traj, entry), out_dir / entry.file)


def read_manifest(clip_dir) -> list[ClipEntry]:
    """The entries of a clip directory's manifest, in manifest order.

    Every entry lists the sha256 of its pose file, and no two share a clip
    id or a pose file.
    """
    manifest_path = Path(clip_dir) / CLIP_MANIFEST_NAME

    def decode(manifest):
        entries = manifest.get("clips") if type(manifest) is dict else None
        if type(entries) is not list:
            raise ValidationError(f"{manifest_path}: 'clips' must be a list of clip entries")
        entries = [schema.decoder(ClipEntry, f"clip entry {i}")(raw) for i, raw in enumerate(entries)]
        first: dict[tuple[str, str], int] = {}
        for i, entry in enumerate(entries):
            if entry.sha256 is None:
                raise ValidationError(f"{manifest_path}: clip entry {i} has no 'sha256'")
            for field in ("clip_id", "file"):
                value = getattr(entry, field)
                if (j := first.setdefault((field, value), i)) != i:
                    raise ValidationError(f"{manifest_path}: clip entries {j} and {i} share the {field} {value!r}")
        return entries

    return load_json(manifest_path, decode)[1]


def load_clip(clip_dir, entry: ClipEntry, index: int) -> RawTrajectory:
    """The poses of ``entry``, entry ``index`` of the clip directory's manifest.

    The pose file must hold the entry's frame count, its pose 0 must be
    the identity within 1e-9, and the bytes parsed must have the entry's
    sha256.
    """
    clip_dir = Path(clip_dir)
    path = clip_dir / entry.file
    traj = parse_pose_file(path, entry.fps, traj_id=entry.clip_id)
    where = f"{clip_dir / CLIP_MANIFEST_NAME}: clip entry {index}"
    if len(traj) != entry.n_frames:
        raise ValidationError(f"{where} lists {entry.n_frames} frames, {entry.file} holds {len(traj)}")
    if float(np.linalg.norm(traj.positions[0])) > 1e-9:
        raise ValidationError(f"{where}: pose 0 of {entry.file} must sit at the local origin")
    if 1.0 - abs(float(traj.quaternions[0, 3])) > 1e-9:
        raise ValidationError(f"{where}: pose 0 of {entry.file} must have identity orientation")
    if (digest := file_digest(path)) != entry.sha256:
        raise ValidationError(f"{where}: {entry.file} has sha256 {digest}, the manifest lists {entry.sha256}")
    return traj
