"""On-disk artifact formats: parsers and writers.

All files are UTF-8; a byte that is not raises ParseError naming the
file and the byte's line. Every reader opens its input once, through
``_open_input``, which hashes the bytes as they are read: ``file_digest``
gives the sha256 of the bytes a reader used, from a regular file or a pipe
alike, and no reader decompresses a file. Every writer streams its file through
``_atomic_file``: the chunks go to a sibling temporary file, which
replaces the file (``os.replace``) only once all of them are written, so
a killed or failing stage never leaves a truncated artifact behind, and
hashes them on the way: ``write_pose_file`` and ``write_samples`` return
the sha256 of the bytes written, which the clip and samples manifests
list, without reading the file again. A
symlink to a regular file keeps its place, and its target is replaced. A
stage removes its old manifest or report with ``remove_output`` before
its first write, so a killed stage leaves no manifest over newer outputs.
The writers format BLOCK_ROWS rows (pose lines, detection frames, record
lines) at a time, so their memory does not grow with the file. Pose
values are written with the exact bytes ``repr`` gives them. orjson reads
pose text and record lines; np.loadtxt or json decides what it does not take.

Pose files (TUM-style text):
    ``timestamp tx ty tz qx qy qz qw`` per line, single spaces, ``#``
    starts a comment that runs to the end of its line. Quaternions are (x, y, z, w) camera-to-world
    and are renormalized on load if their norm is within QUAT_NORM_TOL of 1;
    everything else is rejected, never repaired.

Record files (JSON lines, one compact record per line):
    Each record type is a frozen dataclass, and its fields are the
    record's schema: field names are the keys in order, annotations the
    exact JSON types, and the class's ``rules`` its invariants (see
    :mod:`navcurate.schema`). ``parse_landmarks`` and ``parse_samples``
    build each line's record through ``schema.decoder``;
    ``write_records`` (and its aliases ``write_landmarks`` and
    ``write_predictions``) writes the fields back in order. Each
    constructor checks its fields and rules with ``schema.check``, so a
    record built in code obeys the same rules as one read from a file.

    One rule holds for a rejected line in every record file, and
    :func:`_records`, the one pass over a record file's lines, is its only
    owner: the line is decoded through ``schema.decoder`` of its record
    class, with each number past the float range kept as written, and fails
    with the schema's error. A line of the wrong shape or JSON type raises
    ParseError with its line number; a well-typed record that breaks a
    rule of its dataclass (an empty instruction, bbox corners out of
    order) raises ValidationError naming ``path:line``. Keys that are not
    fields are ignored, in a detection's box too. Waypoints are tuples of
    ``(x, y)`` tuples of finite numbers, which json writes as ``[x, y]``.

Detections and predictions, the files read at scale, are parsed into
columns instead, and no object is built per record: the pass that
``schema.columns`` compiles from the record class tests each value's
type and the class's rules, and the first line it rejects fails by the
one rule. :func:`parse_detections` gives a :class:`DetectionTable`
(frames sorted, boxes as arrays); :func:`parse_predictions` gives a
:class:`PredictionTable` (waypoints in flat arrays, arrival values with
null masks). The tests compare the tables with the scalar records.
Detection and sample files are written from arrays, not records:
``synth.write_detection_file`` formats its lines from per-frame box
counts, and :func:`write_samples` takes the lines that
``sampling.build_clip_samples`` formats from arrays. Each writes byte for
byte what ``write_records`` writes for the equal records.
Detection frame indices count frames of the source trajectory; duplicate
frames merge by concatenation in file order (the one documented repair).

Reports are a single pretty-printed JSON document with sorted keys, so
identical inputs produce byte-identical files. Nothing is coerced on the
way out: a report holding a NaN, an infinity or a value json cannot
write (a numpy integer, say) raises.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import stat
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from io import BufferedReader, BytesIO, RawIOBase, TextIOWrapper
from itertools import chain, islice
from pathlib import Path
from typing import Annotated

import numpy as np
import orjson

from . import schema
from .errors import ParseError, SchemaError, ValidationError

__all__ = [
    "RawTrajectory",
    "Detection",
    "DetectionFrame",
    "DetectionTable",
    "LandmarkAnnotation",
    "TrainingSample",
    "PredictionRecord",
    "PredictionTable",
    "parse_pose_file",
    "write_pose_file",
    "parse_detections",
    "parse_landmarks",
    "write_landmarks",
    "parse_accepted",
    "parse_samples",
    "write_samples",
    "parse_predictions",
    "write_predictions",
    "write_records",
    "write_report",
    "file_digest",
]


# Quaternions with a smaller norm are rejected as garbage rather than renormalized.
MIN_QUAT_NORM = 1e-3
# A quaternion whose norm is further from 1 is rejected, never rescaled: text written at 6-7 digits drifts ~1e-6.
QUAT_NORM_TOL = 1e-3


def _name_fault(name: str, value: str) -> str | None:
    """Why a value is not one file name in one line, or None if it is.

    An id names its pose file (``<id>.txt``) inside the output directory,
    and a pose file's header and the accepted-clip list give it one line:
    so it holds no line break, no ``/`` and no NUL, and is not ``.`` or ``..``.
    """
    if "\n" in value or "\r" in value:
        return f"{name} must not hold a line break, got {value!r}"
    if "/" in value or "\0" in value or value in (".", ".."):
        return f"{name} must be one file name, without '/' or NUL and not '.' or '..', got {value!r}"
    return None


def _check_name(name: str, value: str) -> None:
    if (fault := _name_fault(name, value)) is not None:
        raise ValidationError(fault)


def _check_id_and_fps(traj_id: str, fps: float) -> None:
    if not traj_id:
        raise ValidationError("trajectory id must be non-empty")
    _check_name("trajectory id", traj_id)
    # An int fps is stored as a float (pose-file headers print fps=30.0); nothing else converts.
    if type(fps) not in (int, float) or not 0.0 < fps <= sys.float_info.max:
        raise ValidationError(f"fps must be a positive finite int or float, got {fps!r}")


def _reduce(self):
    """Pickle as a call of the constructor, which validates the fields and makes the columns read-only again."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class RawTrajectory:
    """An ordered pose stream with identity and frame-rate metadata.

    Pose data is stored columnar for throughput: timestamps (n,),
    positions (n, 3), quaternions (n, 4) in (x, y, z, w). The columns are
    read-only.
    """

    id: str
    fps: float
    timestamps: Annotated[np.ndarray, np.float64]
    positions: Annotated[np.ndarray, np.float64]
    quaternions: Annotated[np.ndarray, np.float64]

    def __post_init__(self):
        schema.check(self)
        _check_id_and_fps(self.id, self.fps)
        ts, pos, quat = self.timestamps, self.positions, self.quaternions
        n = ts.shape[0]
        if n == 0:
            raise ValidationError("trajectory must contain at least one pose")
        if ts.ndim != 1 or pos.shape != (n, 3) or quat.shape != (n, 4):
            raise ValidationError(
                f"inconsistent pose arrays: timestamps {ts.shape}, positions {pos.shape}, quaternions {quat.shape}"
            )
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(pos)) and np.all(np.isfinite(quat))):
            raise ValidationError("pose arrays must be finite")
        if np.any(ts < 0.0):
            raise ValidationError("timestamps must be non-negative")
        if n > 1 and not np.all(np.diff(ts) > 0.0):
            bad = int(np.argmin(np.diff(ts) > 0.0))
            raise ValidationError(f"timestamps must be strictly increasing (violated at index {bad + 1})")
        norms = np.linalg.norm(quat, axis=1)
        if np.any(norms < MIN_QUAT_NORM):
            bad = int(np.argmax(norms < MIN_QUAT_NORM))
            raise ValidationError(f"near-zero quaternion at index {bad}")
        off = np.abs(norms - 1.0)
        if np.any(off > QUAT_NORM_TOL):
            bad = int(np.argmax(off > QUAT_NORM_TOL))
            raise ValidationError(f"quaternion at index {bad} has norm {float(norms[bad])!r}, not within {QUAT_NORM_TOL} of 1")
        # Renormalize only rows that actually drifted, so writing and
        # re-parsing a trajectory is bit-exact (normalization idempotent).
        drift = off > 1e-12
        if np.any(drift):
            quat = quat.copy()
            quat[drift] = quat[drift] / norms[drift, None]
            quat.flags.writeable = False
            object.__setattr__(self, "quaternions", quat)
        object.__setattr__(self, "fps", float(self.fps))

    __reduce__ = _reduce

    def __len__(self) -> int:
        return self.timestamps.shape[0]


@schema.record
@dataclass(frozen=True)
class Detection:
    """One detector box: a string label, [x1, y1, x2, y2] pixels, a score in [0, 1].

    The scalar form of one DetectionTable row, under the same rules.
    """

    label: str
    bbox: tuple[float, float, float, float]
    score: float

    rules = (
        ("bbox[0] <= bbox[2] and bbox[1] <= bbox[3]", "bbox corners out of order: {bbox}"),
        ("0.0 <= score <= 1.0", "score must be in [0, 1], got {score!r}"),
    )
    __post_init__ = schema.check


_FRAME_LIMIT = 1 << 63  # frame indices are stored as int64


@schema.record
@dataclass(frozen=True)
class DetectionFrame:
    """The detections of one frame: the scalar form of one DetectionTable frame."""

    frame: int
    detections: tuple[Detection, ...]

    rules = (("0 <= frame < _FRAME_LIMIT", "frame must be a non-negative int64 frame index, got {frame!r}"),)
    __post_init__ = schema.check


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detection frames stored column-wise.

    ``frames`` (F,) int64 is strictly increasing. The boxes of frame i are
    rows ``offsets[i]:offsets[i + 1]`` of ``labels`` (B,) int64 codes into
    ``names``, ``scores`` (B,) float64 and ``bboxes`` (B, 4) float64;
    ``offsets`` (F + 1,) runs from 0 to B. The columns are read-only.
    """

    frames: Annotated[np.ndarray, np.int64]
    offsets: Annotated[np.ndarray, np.int64]
    labels: Annotated[np.ndarray, np.int64]
    names: tuple[str, ...]
    scores: Annotated[np.ndarray, np.float64]
    bboxes: Annotated[np.ndarray, np.float64]

    rules = ((
        "frames.ndim == labels.ndim == 1 and offsets.shape == (len(frames) + 1,) and scores.shape == labels.shape"
        " and bboxes.shape == (len(labels), 4) and offsets[0] == 0 and offsets[-1] == len(labels)"
        " and (offsets[1:] >= offsets[:-1]).all() and (frames[1:] > frames[:-1]).all()"
        " and (not len(labels) or 0 <= labels.min() <= labels.max() < len(names))",
        "inconsistent detection table arrays",
    ),)
    __post_init__ = schema.check

    @classmethod
    def _from_records(cls, frames, ends, labels, names, scores, bboxes) -> "DetectionTable":
        """Sort records by frame (stable) and merge duplicate frames.

        Record r holds box rows ``ends[r - 1]:ends[r]`` (from 0 for r = 0),
        so a merged frame keeps its boxes in record order.
        """
        if np.any(frames[1:] <= frames[:-1]):
            counts = np.diff(ends, prepend=0)
            order = np.argsort(frames, kind="stable")
            frames, starts, counts = frames[order], (ends - counts)[order], counts[order]
            ends = np.cumsum(counts)
            rows = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
            labels, scores, bboxes = labels[rows], scores[rows], bboxes[rows]
            last = np.append(frames[1:] != frames[:-1], True)  # each frame's last record
            frames, ends = frames[last], ends[last]
        return cls(frames, np.concatenate(([0], ends)), labels, names, scores, bboxes)

    def __len__(self) -> int:
        return self.frames.shape[0]

    # Only the benchmark's traced box count iterates a table as frames; it can go once that count reads len(scores).
    def __iter__(self):
        boxes = list(map(Detection, map(self.names.__getitem__, self.labels.tolist()),
                         map(tuple, self.bboxes.tolist()), self.scores.tolist()))
        offsets = self.offsets.tolist()
        for frame, s, e in zip(self.frames.tolist(), offsets, offsets[1:]):
            yield DetectionFrame(frame, tuple(boxes[s:e]))

    __reduce__ = _reduce

    def window(self, lo: int, hi: int) -> "DetectionTable":
        """Frames in [lo, hi), renumbered so frame lo becomes 0; box columns are views."""
        i, j = np.searchsorted(self.frames, (lo, hi))
        a, b = self.offsets[i], self.offsets[j]
        return DetectionTable(
            self.frames[i:j] - lo,
            self.offsets[i : j + 1] - a,
            self.labels[a:b],
            self.names,
            self.scores[a:b],
            self.bboxes[a:b],
        )


@schema.record
@dataclass(frozen=True)
class LandmarkAnnotation:
    """A navigation goal: a named, boxed scene element plus its instruction."""

    clip_id: str
    goal_frame: int
    bbox: tuple[float, float, float, float]
    name: str
    instruction: str

    rules = (
        ("clip_id", "clip_id must be non-empty"),
        ("goal_frame >= 0", "goal_frame must be non-negative, got {goal_frame!r}"),
        ("bbox[0] <= bbox[2] and bbox[1] <= bbox[3]", "bbox must have x1 <= x2 and y1 <= y2, got {bbox!r}"),
        ("instruction", "instruction must be non-empty"),
    )
    __post_init__ = schema.check


@schema.record
@dataclass(frozen=True)
class TrainingSample:
    """One supervision tuple: history frames, future waypoints, goal text, arrival flag."""

    sample_id: str
    clip_id: str
    instruction: str
    t: int
    t_g: int
    history_frames: tuple[int, ...]
    waypoints: tuple[tuple[float, float], ...]
    arrival: bool

    rules = (
        ("sample_id and clip_id", "sample_id and clip_id must be non-empty"),
        ("instruction", "instruction must be non-empty"),
        ("t >= 0 and t_g >= 0", "frame indices must be non-negative"),
        ("history_frames", "history_frames must be non-empty"),
        ("waypoints", "waypoints must be non-empty"),
    )
    __post_init__ = schema.check


@schema.record
@dataclass(frozen=True)
class PredictionRecord:
    """Predicted vs ground-truth waypoints for one evaluation sample."""

    sample_id: str
    predicted: tuple[tuple[float, float], ...]
    ground_truth: tuple[tuple[float, float], ...]
    predicted_arrival: float | None = None
    arrival_label: bool | None = None

    rules = (
        ("sample_id", "sample_id must be non-empty"),
        ("predicted and len(predicted) == len(ground_truth)",
         "predicted and ground_truth must have equal length >= 1, got {len(predicted)} vs {len(ground_truth)}"),
        ("predicted_arrival is None or 0.0 <= predicted_arrival <= 1.0",
         "predicted_arrival must be in [0, 1], got {predicted_arrival!r}"),
    )
    __post_init__ = schema.check


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Prediction records stored column-wise, in file order.

    Record i's sample id, ``sample_id(i)``, is ``id_text[id_offsets[i]:id_offsets[i + 1]]``: the ids are held joined
    in one string, not as one object per record. Its predicted and
    ground-truth waypoints are rows ``offsets[i]:offsets[i + 1]`` of
    ``predicted`` and ``ground_truth`` (W, 2) float64. Both offset columns
    (N + 1,) start at 0 and strictly increase: every id is non-empty and
    every record holds a waypoint. ``predicted_arrival`` (N,) float64 and
    ``arrival_label`` (N,) bool hold 0.0 and False where the masks
    ``predicted_arrival_null`` and ``arrival_label_null`` are True. The
    columns are read-only.
    """

    id_text: str
    id_offsets: Annotated[np.ndarray, np.int64]
    offsets: Annotated[np.ndarray, np.int64]
    predicted: Annotated[np.ndarray, np.float64]
    ground_truth: Annotated[np.ndarray, np.float64]
    predicted_arrival: Annotated[np.ndarray, np.float64]
    predicted_arrival_null: Annotated[np.ndarray, np.bool_]
    arrival_label: Annotated[np.ndarray, np.bool_]
    arrival_label_null: Annotated[np.ndarray, np.bool_]

    rules = ((
        "id_offsets.ndim == 1 and len(id_offsets) >= 1 and offsets.shape == id_offsets.shape"
        " and id_offsets[0] == 0 and id_offsets[-1] == len(id_text) and offsets[0] == 0"
        " and (id_offsets[1:] > id_offsets[:-1]).all() and (offsets[1:] > offsets[:-1]).all()"
        " and predicted.shape == ground_truth.shape == (offsets[-1], 2)"
        " and predicted_arrival.shape == predicted_arrival_null.shape == arrival_label.shape"
        " == arrival_label_null.shape == (len(id_offsets) - 1,)",
        "inconsistent prediction table arrays",
    ),)
    __post_init__ = schema.check
    __reduce__ = _reduce

    def __len__(self) -> int:
        return self.id_offsets.shape[0] - 1

    def sample_id(self, i: int) -> str:
        return self.id_text[self.id_offsets[i] : self.id_offsets[i + 1]]


def _check_utf8(text: str, path, first_line: int = 1) -> str:
    """text, read from path with errors="surrogateescape" from line first_line on, if every byte was UTF-8.

    Otherwise raise ParseError naming the first byte that is not and its
    line. An ASCII text, the common case, is passed at once.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xDC00  # surrogateescape keeps byte b as U+DC00 + b
            line = first_line + text.count("\n", 0, exc.start)
            raise ParseError(f"not UTF-8 text: byte 0x{byte:02x}", path=str(path), line=line) from None
    return text


# The sha256 of the last whole read of each input, by absolute path (see
# _open_input); cli.main empties it, so it holds the reads of one stage.
_digests: dict[str, str] = {}


def _open_input(path) -> BufferedReader:
    """A binary stream of path's bytes, the one way an input is opened.

    Each byte is hashed when it is first read, and reading to the end
    records the sha256 for file_digest(path). The stream can be rewound, so
    a pipe (``/dev/stdin``) is read whole and held, once.
    """
    key = os.path.abspath(path)
    _digests.pop(key, None)  # a read that stops early leaves no digest
    source = open(path, "rb", buffering=0)
    if not stat.S_ISREG(os.fstat(source.fileno()).st_mode):
        with source:
            source = BytesIO(source.read())
    return BufferedReader(_Hashed(source, key))


class _Hashed(RawIOBase):
    """source read through sha256; it is only ever rewound, so every byte before the hashed end was hashed."""

    def __init__(self, source, key: str):
        self._source, self._key, self._sha, self._hashed = source, key, hashlib.sha256(), 0

    def readable(self) -> bool:
        return True

    seekable = readable

    def seek(self, *args) -> int:
        return self._source.seek(*args)

    def readinto(self, buffer) -> int:
        pos = self._source.tell()
        n = self._source.readinto(buffer)
        if pos + n > self._hashed:
            self._sha.update(memoryview(buffer)[self._hashed - pos : n])
            self._hashed = pos + n
        elif n == 0:
            _digests[self._key] = self._sha.hexdigest()
        return n

    def close(self) -> None:
        self._source.close()
        super().close()


def read_text(path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ParseError naming its line."""
    with _open_input(path) as fh:
        return _check_utf8(fh.read().decode("utf-8", "surrogateescape"), path)


# ---------------------------------------------------------------------------
# Pose files
# ---------------------------------------------------------------------------

def parse_pose_file(path, fps: float, traj_id: str | None = None) -> RawTrajectory:
    """Parse a TUM-style pose file into a RawTrajectory.

    The trajectory id defaults to the filename stem. np.loadtxt decides
    what is accepted, reading the opened stream as strict UTF-8; orjson
    reads a subset of that language to the same bits (see
    :func:`_pose_values`), and any other file goes to np.loadtxt whole.
    When it rejects it, the rewound stream's first bad line raises
    ParseError (see :func:`_check_pose_lines`). ValidationError names the
    file for negative or non-monotonic timestamps or bad quaternions.
    """
    path = Path(path)
    with _open_input(path) as fh:
        if (data := _pose_values(fh)) is None:
            fh.seek(0)
            with TextIOWrapper(fh, encoding="utf-8") as text:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # loadtxt warns on empty input
                        data = np.loadtxt(text, comments="#", dtype=float, ndmin=2)
                    if data.size and data.shape[1] != 8:
                        raise ValueError(f"expected 8 columns, found {data.shape[1]}")
                    if data.size and not np.all(np.isfinite(data)):
                        raise ValueError("non-finite value")
                except ValueError as exc:  # a byte that is not UTF-8 too (UnicodeDecodeError)
                    text.seek(0)
                    text.reconfigure(errors="surrogateescape")
                    _check_pose_lines(text, path)
                    raise ParseError(str(exc), path=str(path)) from None
    if data.size == 0:
        raise ValidationError(f"{path}: pose file contains no poses")
    traj_id = path.stem if traj_id is None else traj_id
    _check_id_and_fps(traj_id, fps)  # faults of the arguments, not of the file
    try:
        return RawTrajectory(traj_id, fps, data[:, 0], data[:, 1:4], data[:, 4:8])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


#: Bytes a reader reads at a time: a block of pose text (then cut at a line end), or of a record file scanned for "\r".
READ_BYTES = 1 << 15
# Pose text as JSON: a space becomes ","; digits, ".eE+-" and "\n" stay; any other byte (a tab, "\r", "#") is "!".
_POSE_JSON = bytes(44 if b == 32 else b if b in b"0123456789.eE+-\n" else 33 for b in range(256))
# Each value's "." and exponent as ".", a separator as ","; digits and signs go, so an int token leaves ",,".
_POSE_MARKS = bytes.maketrans(b" \neE", b",,..")


def _pose_values(fh) -> np.ndarray | None:
    """The (n, 8) values of the pose file fh, read by orjson; None if fh holds a line outside the subset it takes.

    The subset: leading ``#`` lines of UTF-8 without ``"\\r"``, then lines of 8 finite JSON numbers
    one space apart, each with a fraction or an exponent (JSON ``-0`` is an int, and loses its
    sign), which np.loadtxt reads to the same bits. The rows go into one array sized from a
    newline count, never a list of blocks, so the stream's values are held once.
    """
    read = functools.partial(fh.read, READ_BYTES)
    data, n, rest = np.empty((sum(block.count(b"\n") for block in iter(read, b"")) + 1, 8)), 0, b""
    fh.seek(0)
    try:
        while fh.peek(1)[:1] == b"#":
            if "\r" in fh.readline().decode("utf-8"):
                return None
        for block in chain(iter(read, b""), [b"\n"]):  # the "\n" ends a last line that has none
            block, _, rest = (rest + block).rpartition(b"\n")
            if not block:
                continue
            if b",," in b"," + block.translate(_POSE_MARKS, b"0123456789+-") + b",":
                return None
            values = np.array(orjson.loads(b"[[" + block.translate(_POSE_JSON).replace(b"\n", b"],[") + b"]]"), float)
            if values.shape[1] != 8 or not np.isfinite(values).all():
                return None
            data[n : n + len(values)] = values
            n += len(values)
    except ValueError:  # a leading line that is not UTF-8, a block that is not JSON, rows of unequal length
        return None
    return data[:n]


def _check_pose_lines(lines, path) -> None:
    """Raise ParseError naming the first line (read with errors="surrogateescape") that np.loadtxt(comments="#") rejects.

    A ``#`` starts a comment anywhere on a line, a line holding nothing else
    is skipped, and a line holds 8 finite numbers, each ASCII without an
    underscore (float() alone also reads ``1_000`` and non-ASCII digits).
    """
    for lineno, line in enumerate(lines, 1):
        text = _check_utf8(line, path, lineno).partition("#")[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 8:
            raise ParseError(f"expected 8 fields, found {len(fields)}", path=str(path), line=lineno)
        try:
            if "_" in text or not all(f.isascii() for f in fields):
                raise ValueError
            values = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"non-numeric field in {text!r}", path=str(path), line=lineno)
        if not all(math.isfinite(v) for v in values):
            raise ParseError("non-finite value", path=str(path), line=lineno)


def write_pose_file(traj: RawTrajectory, path) -> str:
    """Write a RawTrajectory in the TUM-style text format; return the sha256 of the bytes written.

    Each value is written with the bytes repr gives it (shortest exact
    round-trip), so write-then-parse reproduces the arrays bit for bit.
    The rows are formatted in blocks of BLOCK_ROWS and written in order.
    """
    header = f"# {traj.id} fps={traj.fps!r}\n# timestamp tx ty tz qx qy qz qw\n"
    return _write_blocks(path, header, functools.partial(_pose_rows, traj), len(traj))


# orjson prints the shortest round-trip digits, as repr does, in another layout: repr signs
# an exponent and gives it two digits or more (1e16 -> 1e+16, 1e-7 -> 1e-07), and writes
# 1e-5 <= |x| < 1e-4 with an exponent (0.000015 -> 1.5e-05), not inside a longer number.
# A RawTrajectory holds no NaN or infinity, which orjson would write as null.
_EXP_SIGN = re.compile(rb"e(?=\d)")
_EXP_DIGIT = re.compile(rb"(e[+-])(\d)\b")
_BAND = re.compile(rb"0\.0000(?<![\d.]0\.0000)(\d)(\d*)")


def _pose_rows(traj: RawTrajectory, bounds) -> bytes:
    lo, hi = bounds
    values = np.column_stack([traj.timestamps[lo:hi], traj.positions[lo:hi], traj.quaternions[lo:hi]])
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b"],[", b"\n").replace(b",", b" ")
    if b"e" in text:
        text = _EXP_DIGIT.sub(rb"\g<1>0\2", _EXP_SIGN.sub(b"e+", text))
    if b"0.0000" in text:
        text = _BAND.sub(lambda m: m[1] + (b"." + m[2] if m[2] else b"") + b"e-05", text)
    return text + b"\n"


# ---------------------------------------------------------------------------
# JSON-lines records
# ---------------------------------------------------------------------------

class _Literal(str):
    """A number past the float range as written, for an error message: no type rule takes it, and its repr is the literal."""

    __repr__ = str.__str__


_as_written = functools.partial(json.loads, parse_float=lambda s: float(s) if math.isfinite(float(s)) else _Literal(s))


def _loads(text: str, path, line: int | None = None, loads=json.loads):
    """loads(text); invalid JSON raises ParseError naming path and line (default: the fault's line in text).

    A value nested past the interpreter's recursion limit is a parse error
    too, as the decoder recurses into it.
    """
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=line or exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON value nested too deep", path=str(path), line=line) from None


def load_json(path, decode):
    """(doc, decode(doc)) for the JSON document doc in path; invalid JSON raises ParseError naming its line.

    Each number past the float range is kept as written (``_as_written``),
    so no type rule takes it and the error quotes the file's ``1e400``, not
    ``Infinity``. A value of the wrong type (SchemaError) names the file.
    """
    doc = _loads(read_text(path), path, loads=_as_written)
    try:
        return doc, decode(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def parse_detections(path) -> DetectionTable:
    """Parse detection records into a DetectionTable, sorted by frame.

    Duplicate frames merge by concatenation in file order. One streaming
    pass (``schema.columns``) tests each record's types and rules; the first
    line it rejects fails as every record file does (see :func:`_records`).
    """
    take, cols = schema.columns(DetectionFrame, coded=["detections.label"])
    _records(path, DetectionFrame, take)
    return DetectionTable._from_records(
        np.frombuffer(cols["frame"], dtype=np.int64),
        np.frombuffer(cols["detections.ends"], dtype=np.int64),
        np.frombuffer(cols["detections.label"], dtype=np.int64),
        tuple(cols["detections.label.names"]),
        np.frombuffer(cols["detections.score"]),
        np.frombuffer(cols["detections.bbox"]).reshape(-1, 4),
    )


def parse_predictions(path) -> PredictionTable:
    """Parse prediction records into a PredictionTable, in file order.

    One streaming pass (``schema.columns``) tests each record's types and
    rules; the first line it rejects fails as every record file does (see
    :func:`_records`).
    """
    take, cols = schema.columns(PredictionRecord)
    _records(path, PredictionRecord, take)
    ids = cols["sample_id"]
    return PredictionTable(
        "".join(ids),
        np.concatenate(([0], np.cumsum(np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))))),
        np.concatenate(([0], np.frombuffer(cols["predicted.ends"], dtype=np.int64))),
        np.frombuffer(cols["predicted"]).reshape(-1, 2),
        np.frombuffer(cols["ground_truth"]).reshape(-1, 2),
        np.frombuffer(cols["predicted_arrival"]),
        # The array("b") columns hold only 0 and 1, so their bytes read as booleans.
        np.frombuffer(cols["predicted_arrival.null"], dtype=bool),
        np.frombuffer(cols["arrival_label"], dtype=bool),
        np.frombuffer(cols["arrival_label.null"], dtype=bool),
    )


def _records(path, cls, take) -> None:
    """Run take(obj) on the JSON value of each line of path, in file order; a line take rejects fails as cls's schema says.

    orjson decodes each byte line to the value json.loads gives it. A line it rejects (a NaN, a
    number past the float range, a BOM) is decoded as UTF-8, stripped and given to json.loads, which
    decides. A file holding a "\r" is split into lines by TextIOWrapper.

    take raises KeyError, TypeError, ValueError, OverflowError or
    ValidationError for a line it rejects. That line is decoded again
    through ``schema.decoder(cls)``, each number past the float range kept
    as written (``_as_written``), so its error names the fault from the
    line's text: a value of the wrong JSON type (SchemaError) raises
    ParseError naming the line, a well-typed record that breaks an
    invariant of cls raises ValidationError naming ``path:line``.
    """
    with _open_input(path) as fh:
        # A lone "\r" ends a line for TextIOWrapper, whose line numbers an error names, but not a byte line.
        cr = any(b"\r" in block for block in iter(functools.partial(fh.read, READ_BYTES), b""))
        fh.seek(0)
        lines = fh if not cr else (line.encode("utf-8", "surrogateescape")
                                   for line in TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape"))
        for lineno, line in enumerate(lines, 1):
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError:
                if not (text := _check_utf8(line.decode("utf-8", "surrogateescape"), path, lineno).strip()):
                    continue
                obj = _loads(text, path, lineno)
            try:
                take(obj)
            except (KeyError, TypeError, ValueError, OverflowError, ValidationError):
                try:
                    schema.decoder(cls)(_loads(line.decode("utf-8").strip(), path, lineno, _as_written))
                except SchemaError as exc:
                    raise ParseError(str(exc), path=str(path), line=lineno) from None
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
                # take is meant to reject exactly what the schema rejects; a line only take rejects still fails.
                raise ParseError(f"invalid {cls.__name__} record", path=str(path), line=lineno) from None


def _parse_records(cls, path) -> list:
    """The records of one dataclass in file order, each line read through schema.decoder (see :func:`_records`)."""
    decode = schema.decoder(cls)
    records = []
    _records(path, cls, lambda obj: records.append(decode(obj)))
    return records


_record_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False, default=schema.to_json).encode


def write_records(records, path) -> None:
    """Write records of any record dataclass as JSON lines, keys in field order."""
    _write_lines(path, (_record_json(r) + "\n" for r in records))


write_landmarks = write_predictions = write_records

def write_samples(lines, path) -> str:
    """Write sample lines, JSON text as ``sampling.build_clip_samples`` formats it, in the order given.

    Returns the sha256 of the bytes written.
    """
    return _write_lines(path, lines)


def parse_landmarks(path) -> list[LandmarkAnnotation]:
    return _parse_records(LandmarkAnnotation, path)


def parse_accepted(path) -> set[str]:
    """The clip ids of an accepted list, one per "\n" as filter writes it: an id may hold another Unicode line break.

    A non-empty line that is not one file name (see :func:`_check_name`)
    raises ValidationError naming ``path:line``.
    """
    ids = set()
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if line:
            try:
                _check_name("accepted clip id", line)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            ids.add(line)
    return ids


def parse_samples(path) -> list[TrainingSample]:
    return _parse_records(TrainingSample, path)


#: Rows (pose lines, detection frames, record lines) that a writer formats and writes at a time.
BLOCK_ROWS = 4096


def _replaced(path) -> Path | None:
    """The file that _atomic_file replaces to write path: path, or the regular file a symlink leads to, so the link stays.

    None if path exists and is not a regular file (a pipe, a device, or a
    link to one), or is the file this process's stdout or stderr writes to
    (``/dev/stdout`` redirected to a file): that is written in place, never
    replaced or removed. A dangling link is replaced as it is.
    """
    path = Path(path)
    if not path.exists():
        return path
    st = path.stat()
    if not stat.S_ISREG(st.st_mode) or any(os.path.samestat(st, s) for s in _std_stats()):
        return None
    return path.resolve() if path.is_symlink() else path


def _std_stats():
    for fd in (1, 2):
        try:
            yield os.fstat(fd)
        except OSError:  # the stream is closed
            pass


def remove_output(path) -> None:
    """Remove what _atomic_file would replace at path, so a stage killed before it writes path leaves no stale copy."""
    if (target := _replaced(path)) is not None:
        target.unlink(missing_ok=True)


@contextmanager
def _atomic_file(path):
    """A binary file to write path's new content to, chunk by chunk.

    The chunks go to a sibling temporary file, which replaces path
    (``os.replace``) when the block ends. If the block raises, the
    temporary file is removed and path is left as it was. So a killed or
    failing writer leaves no truncated file (no fsync: a power loss is out
    of scope). A symlink's target is replaced next to itself, and the link
    stays. A pipe or other file that is not regular, and the file stdout
    writes to, are written in place (see :func:`_replaced`).
    """
    target = _replaced(path)
    if target is None:
        with open(path, "wb") as out:
            yield out
        return
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            yield out
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_chunks(path, chunks) -> str:
    """Write an iterable of byte chunks through _atomic_file; return the sha256 of the bytes written."""
    sha = hashlib.sha256()
    with _atomic_file(path) as out:
        for chunk in chunks:
            sha.update(chunk)
            out.write(chunk)
    return sha.hexdigest()


def _write_blocks(path, head: str, fn, n: int) -> str:
    """Write head, then the bytes fn((lo, hi)) of each block of BLOCK_ROWS rows of range(n), in order.

    Returns the sha256 of the bytes written.
    """
    blocks = map(fn, ((lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)))
    return _write_chunks(path, chain([head.encode()], blocks))


def _write_lines(path, lines) -> str:
    """Write an iterable of text lines, BLOCK_ROWS lines at a time; return the sha256 of the bytes written."""
    lines = iter(lines)
    blocks = iter(lambda: list(islice(lines, BLOCK_ROWS)), [])  # until no line is left
    return _write_chunks(path, ("".join(block).encode() for block in blocks))


def write_report(report: dict, path) -> None:
    """Write a structured report as pretty-printed JSON with sorted keys.

    Identical report content yields byte-identical files. A NaN or an
    infinity raises ValueError, a value json cannot write (a numpy
    integer) TypeError, and the file is left as it was.
    """
    _write_chunks(path, [(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()])


def file_digest(path) -> str:
    """Hex sha256 of the bytes this process last read whole from path (see :func:`_open_input`); if none, it reads them.

    The digest is of that read, not of the file on disk now: a file
    rewritten since gives the digest of the bytes that were read.
    """
    if (key := os.path.abspath(path)) not in _digests:
        with _open_input(path) as fh:
            while fh.read(1 << 20):
                pass
    return _digests[key]
