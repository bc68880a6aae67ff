"""On-disk artifact formats: parsers and writers.

All files are UTF-8 and every writer replaces its file atomically (a
sibling temporary file, then ``os.replace``), so a killed stage never
leaves a truncated artifact behind.

Pose files (TUM-style text):
    ``timestamp tx ty tz qx qy qz qw`` per line, single spaces, ``#``
    starts a comment line. Quaternions are (x, y, z, w) camera-to-world
    and are renormalized on load; everything else is rejected, never
    repaired.

Record files (JSON lines, one compact record per line):
    Each record type is a frozen dataclass, and its fields are the
    record's schema: field names are the keys in order, annotations the
    exact JSON types (see :mod:`navcurate.schema`). ``parse_landmarks``,
    ``parse_samples`` and ``parse_predictions`` read every line through
    ``schema.decoder``; the ``write_*`` functions write the fields back in
    order. A line of the wrong shape or JSON type raises ParseError with
    its line number; a well-typed record that breaks an invariant of its
    dataclass (an empty instruction, bbox corners out of order) raises
    ValidationError naming ``path:line``. Keys that are not fields are
    ignored. Waypoints are tuples of plain ``(x, y)`` float tuples, which
    json writes as ``[x, y]``; the record constructors turn any pairs of
    real numbers into that form and reject a non-pair or non-finite value.

Detections are the exception, for speed: :func:`parse_detections` reads
them in one streaming pass into a columnar :class:`DetectionTable`
(frames sorted, boxes as arrays) under the same exact JSON types, and
reports every invalid line, range errors included, as ParseError.
:class:`Detection` and :class:`DetectionFrame` are the per-box and
per-frame scalar forms and the schema ``write_detections`` writes.
Detection frame indices count frames of the source trajectory; duplicate
frames merge by concatenation in file order (the one documented repair).

Reports are a single pretty-printed JSON document with sorted keys, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
import os
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

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
    "parse_pose_file",
    "write_pose_file",
    "parse_detections",
    "write_detections",
    "parse_landmarks",
    "write_landmarks",
    "parse_samples",
    "write_samples",
    "parse_predictions",
    "write_predictions",
    "write_records",
    "write_report",
    "file_digest",
]


@dataclass(frozen=True, eq=False)
class RawTrajectory:
    """An ordered pose stream with identity and frame-rate metadata.

    Pose data is stored columnar for throughput: timestamps (n,),
    positions (n, 3), quaternions (n, 4) in (x, y, z, w).
    """

    id: str
    fps: float
    timestamps: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        if not self.id:
            raise ValidationError("trajectory id must be non-empty")
        fps = float(self.fps)
        if not math.isfinite(fps) or fps <= 0.0:
            raise ValidationError(f"fps must be positive, got {self.fps!r}")
        ts = np.ascontiguousarray(self.timestamps, dtype=float)
        pos = np.ascontiguousarray(self.positions, dtype=float)
        quat = np.ascontiguousarray(self.quaternions, dtype=float)
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
        if np.any(norms < 1e-3):
            bad = int(np.argmax(norms < 1e-3))
            raise ValidationError(f"near-zero quaternion at index {bad}")
        # Renormalize only rows that actually drifted, so writing and
        # re-parsing a trajectory is bit-exact (normalization idempotent).
        drift = np.abs(norms - 1.0) > 1e-12
        if np.any(drift):
            quat = quat.copy()
            quat[drift] = quat[drift] / norms[drift, None]
        for arr in (ts, pos, quat):
            arr.flags.writeable = False
        object.__setattr__(self, "fps", fps)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "quaternions", quat)

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    @property
    def duration(self) -> float:
        """Last minus first timestamp, seconds."""
        return float(self.timestamps[-1] - self.timestamps[0])


# json.loads gives a number as exactly int or float (true/false are bool),
# so exact type tests suffice for parsed values.
_JSON_NUMBERS = frozenset((float, int))


@dataclass(frozen=True)
class Detection:
    """One detector box: a string label, [x1, y1, x2, y2] pixels, a score in [0, 1].

    The scalar form of one DetectionTable row, under the same rules:
    bbox entries and score must be real numbers, never bool or str.
    """

    label: str
    bbox: tuple[float, float, float, float]
    score: float

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValidationError(f"label must be a string, got {self.label!r}")
        try:
            bbox = tuple(self.bbox)
        except TypeError:
            bbox = ()
        # Exact int/float first: the ABC test in _is_number is slow per box.
        if len(bbox) != 4 or not (_JSON_NUMBERS.issuperset(map(type, bbox)) or all(map(_is_number, bbox))):
            raise ValidationError(f"bbox must be 4 numbers, got {self.bbox!r}")
        score = self.score
        if not (type(score) in _JSON_NUMBERS or _is_number(score)):
            raise ValidationError(f"score must be a number, got {score!r}")
        try:
            x1, y1, x2, y2 = bbox = tuple(map(float, bbox))
        except OverflowError:  # an integer beyond the float range
            x1 = y1 = x2 = y2 = math.nan
        # One chained comparison per axis is both the finiteness and the order test.
        if not (-math.inf < x1 <= x2 < math.inf and -math.inf < y1 <= y2 < math.inf):
            if all(map(math.isfinite, (x1, y1, x2, y2))):
                raise ValidationError(f"bbox corners out of order: {bbox}")
            raise ValidationError("bbox entries must be finite")
        try:
            score = float(score)
        except OverflowError:
            score = math.inf
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"score must be in [0, 1], got {self.score!r}")
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "score", score)


_FRAME_LIMIT = 1 << 63  # frame indices are stored as int64


@dataclass(frozen=True)
class DetectionFrame:
    """The detections of one frame: the scalar form of one DetectionTable frame."""

    frame: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        frame = self.frame
        if not (_is_integer(frame) and 0 <= frame < _FRAME_LIMIT):
            raise ValidationError(f"frame must be a non-negative integer, got {frame!r}")
        object.__setattr__(self, "frame", int(frame))
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True, eq=False)
class DetectionTable(Sequence):
    """Detection frames stored column-wise: the batch form of a list of DetectionFrame.

    ``frames`` (F,) int64 is strictly increasing. The boxes of frame i are
    rows ``offsets[i]:offsets[i + 1]`` of ``labels`` (B,) int64 codes into
    ``names``, ``scores`` (B,) float64 and ``bboxes`` (B, 4) float64;
    ``offsets`` (F + 1,) runs from 0 to B. The table is a read-only
    sequence of DetectionFrame, built on demand, and compares equal to a
    list of equal frames.
    """

    frames: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
    names: tuple[str, ...]
    scores: np.ndarray
    bboxes: np.ndarray

    def __post_init__(self):
        frames = np.ascontiguousarray(self.frames, dtype=np.int64)
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        scores = np.ascontiguousarray(self.scores, dtype=float)
        bboxes = np.ascontiguousarray(self.bboxes, dtype=float)
        n, m = frames.shape[0], labels.shape[0]
        names = tuple(self.names)
        if (
            frames.ndim != 1
            or offsets.shape != (n + 1,)
            or labels.shape != (m,)
            or scores.shape != (m,)
            or bboxes.shape != (m, 4)
            or offsets[0] != 0
            or offsets[-1] != m
            or np.any(offsets[1:] < offsets[:-1])
            or np.any(frames[1:] <= frames[:-1])
            or (m and not 0 <= labels.min() <= labels.max() < len(names))
        ):
            raise ValidationError("inconsistent detection table arrays")
        columns = {"frames": frames, "offsets": offsets, "labels": labels, "scores": scores, "bboxes": bboxes}
        for name, arr in columns.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "names", names)

    @classmethod
    def from_frames(cls, frames) -> "DetectionTable":
        """The table of a sequence of DetectionFrame; duplicate frames merge as in parse_detections."""
        frames = list(frames)
        dets = [d for f in frames for d in f.detections]
        names: dict[str, int] = {}
        return cls._from_records(
            np.array([f.frame for f in frames], dtype=np.int64),
            np.cumsum([len(f.detections) for f in frames], dtype=np.int64),
            np.array([names.setdefault(d.label, len(names)) for d in dets], dtype=np.int64),
            tuple(names),
            np.array([d.score for d in dets], dtype=float),
            np.array([d.bbox for d in dets], dtype=float).reshape(-1, 4),
        )

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

    def __getitem__(self, i) -> DetectionFrame:
        i = range(len(self))[operator.index(i)]
        return next(self._build_frames(i, i + 1))

    def __iter__(self):
        return self._build_frames(0, len(self))

    def _build_frames(self, lo: int, hi: int):
        offsets = self.offsets[lo : hi + 1].tolist()
        a, b = offsets[0], offsets[-1]
        labels = list(map(self.names.__getitem__, self.labels[a:b].tolist()))
        bboxes = list(map(tuple, self.bboxes[a:b].tolist()))
        scores = self.scores[a:b].tolist()
        for frame, start, stop in zip(self.frames[lo:hi].tolist(), offsets, offsets[1:]):
            s, e = start - a, stop - a
            yield DetectionFrame(frame, tuple(map(Detection, labels[s:e], bboxes[s:e], scores[s:e])))

    def __eq__(self, other):
        if not isinstance(other, (DetectionTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __reduce__(self):
        # Raw column bytes skip numpy's per-array pickle header, so a clip's
        # slice, often empty, stays small when sent to a pool worker.
        columns = (self.frames, self.offsets, self.labels, self.scores, self.bboxes)
        return _table_from_bytes, (self.names, *(c.tobytes() for c in columns))

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


def _table_from_bytes(names, frames, offsets, labels, scores, bboxes) -> DetectionTable:
    return DetectionTable(
        np.frombuffer(frames, dtype=np.int64),
        np.frombuffer(offsets, dtype=np.int64),
        np.frombuffer(labels, dtype=np.int64),
        names,
        np.frombuffer(scores, dtype=float),
        np.frombuffer(bboxes, dtype=float).reshape(-1, 4),
    )


_INF = math.inf


@dataclass(frozen=True)
class LandmarkAnnotation:
    """A navigation goal: a named, boxed scene element plus its instruction."""

    clip_id: str
    goal_frame: int
    bbox: tuple[float, float, float, float]
    name: str
    instruction: str

    def __post_init__(self):
        if not self.clip_id:
            raise ValidationError("clip_id must be non-empty")
        goal = self.goal_frame
        if int(goal) != goal or goal < 0:
            raise ValidationError(f"goal_frame must be a non-negative integer, got {goal!r}")
        bbox = tuple(map(float, self.bbox))
        # One chained comparison per axis is both the finiteness and the order test.
        if len(bbox) != 4 or not (-_INF < bbox[0] <= bbox[2] < _INF and -_INF < bbox[1] <= bbox[3] < _INF):
            raise ValidationError(f"bbox must be 4 finite numbers with x1 <= x2 and y1 <= y2, got {self.bbox!r}")
        if not self.instruction:
            raise ValidationError("instruction must be non-empty")
        if type(goal) is not int:
            object.__setattr__(self, "goal_frame", int(goal))
        object.__setattr__(self, "bbox", bbox)


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

    def __post_init__(self):
        if not self.sample_id or not self.clip_id:
            raise ValidationError("sample_id and clip_id must be non-empty")
        if not self.instruction:
            raise ValidationError("instruction must be non-empty")
        if self.t < 0 or self.t_g < 0:
            raise ValidationError("frame indices must be non-negative")
        if not self.history_frames:
            raise ValidationError("history_frames must be non-empty")
        if not self.waypoints:
            raise ValidationError("waypoints must be non-empty")
        object.__setattr__(self, "history_frames", tuple(map(int, self.history_frames)))
        object.__setattr__(self, "waypoints", _as_pairs("waypoints", self.waypoints))
        object.__setattr__(self, "arrival", bool(self.arrival))


@dataclass(frozen=True)
class PredictionRecord:
    """Predicted vs ground-truth waypoints for one evaluation sample."""

    sample_id: str
    predicted: tuple[tuple[float, float], ...]
    ground_truth: tuple[tuple[float, float], ...]
    predicted_arrival: float | None = None
    arrival_label: bool | None = None

    def __post_init__(self):
        # The JSON types of the fields are checked by the schema (parse_predictions).
        if not self.sample_id:
            raise ValidationError("sample_id must be non-empty")
        predicted = _as_pairs("predicted", self.predicted)
        ground_truth = _as_pairs("ground_truth", self.ground_truth)
        if len(predicted) == 0 or len(predicted) != len(ground_truth):
            raise ValidationError(
                f"predicted and ground_truth must have equal length >= 1, got {len(predicted)} vs {len(ground_truth)}"
            )
        if self.predicted_arrival is not None:
            if not 0.0 <= self.predicted_arrival <= 1.0:
                raise ValidationError(f"predicted_arrival must be in [0, 1], got {self.predicted_arrival!r}")
            object.__setattr__(self, "predicted_arrival", float(self.predicted_arrival))
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "ground_truth", ground_truth)


_TUPLE = frozenset((tuple,))
_TWO = frozenset((2,))
_FLOAT = frozenset((float,))


def _as_pairs(name: str, seq) -> tuple[tuple[float, float], ...]:
    """Waypoints as exact (x, y) tuples of finite floats, from any pairs of real numbers.

    Exact float pairs, as the parsers and the sampler build them, pass
    through C-level scans without a per-item Python call. Raises
    ValidationError naming the first item that is not a pair of finite
    real numbers.
    """
    seq = tuple(seq)
    if (
        _TUPLE.issuperset(map(type, seq))
        and _TWO.issuperset(map(len, seq))
        and _FLOAT.issuperset(map(type, chain.from_iterable(seq)))
        and all(map(math.isfinite, chain.from_iterable(seq)))
    ):
        return seq
    pairs = []
    for w in seq:
        try:
            x, y = w
            ok = _is_number(x) and _is_number(y) and math.isfinite(x) and math.isfinite(y)
        except (TypeError, ValueError, OverflowError):  # not a pair, or an integer beyond the float range
            ok = False
        if not ok:
            raise ValidationError(f"{name}[{len(pairs)}] must be a pair of finite numbers, got {w!r}")
        pairs.append((float(x), float(y)))
    return tuple(pairs)


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true/false parse as Python bools).

    float and int are tested before the slow numbers.Real ABC check.
    """
    return not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))


def _is_integer(value) -> bool:
    """An integer that is not a bool; exact int is tested before the slow numbers.Integral check."""
    return type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))


# ---------------------------------------------------------------------------
# Pose files
# ---------------------------------------------------------------------------

def parse_pose_file(path, fps: float, traj_id: str | None = None) -> RawTrajectory:
    """Parse a TUM-style pose file into a RawTrajectory.

    The trajectory id defaults to the filename stem. Raises ParseError
    with the offending line number for malformed lines, ValidationError
    for non-monotonic timestamps or near-zero quaternions.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on empty input
            data = np.loadtxt(path, comments="#", dtype=float, ndmin=2)
        if data.size and data.shape[1] != 8:
            raise ValueError(f"expected 8 columns, found {data.shape[1]}")
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("non-finite value")
    except OSError:
        raise
    except ValueError:
        data = _parse_pose_lines(path)
    if data.size == 0:
        raise ValidationError(f"{path}: pose file contains no poses")
    return RawTrajectory(
        traj_id or path.stem,
        fps,
        data[:, 0],
        data[:, 1:4],
        data[:, 4:8],
    )


def _parse_pose_lines(path: Path) -> np.ndarray:
    """Line-by-line fallback that pinpoints the first malformed line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != 8:
                raise ParseError(f"expected 8 fields, found {len(fields)}", path=str(path), line=lineno)
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise ParseError(f"non-numeric field in {text!r}", path=str(path), line=lineno)
            if not all(math.isfinite(v) for v in values):
                raise ParseError("non-finite value", path=str(path), line=lineno)
            rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, 8)


def write_pose_file(traj: RawTrajectory, path) -> None:
    """Write a RawTrajectory in the TUM-style text format.

    Values are formatted with repr (shortest exact round-trip), so
    write-then-parse reproduces the arrays bit for bit.
    """
    lines = [f"# {traj.id} fps={traj.fps!r}\n# timestamp tx ty tz qx qy qz qw\n"]
    rows = np.column_stack([traj.timestamps, traj.positions, traj.quaternions]).tolist()
    for row in rows:
        lines.append(" ".join(repr(v) for v in row) + "\n")
    _write_text(path, "".join(lines))


# ---------------------------------------------------------------------------
# JSON-lines records
# ---------------------------------------------------------------------------

# The C scanner behind JSONDecoder.raw_decode: it returns (value, end) or
# raises StopIteration (no value) or JSONDecodeError.
_scan_once = json.JSONDecoder().scan_once


def _iter_json_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            # The scanner skips json.loads' wrappers; a line it cannot take
            # whole goes through json.loads for the canonical error.
            try:
                obj, end = _scan_once(text, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(text):
                try:
                    obj = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=lineno)
            yield lineno, obj


def parse_detections(path) -> DetectionTable:
    """Parse detection records into a DetectionTable, sorted by frame.

    Duplicate frames merge by concatenation in file order. The first
    invalid line raises ParseError with the message of the schema or of
    the scalar Detection/DetectionFrame constructors, which apply the
    same rules.
    """
    frames, ends, lines = array("q"), array("q"), array("q")
    labels, scores, bboxes = array("q"), array("d"), array("d")
    names: dict[str, int] = {}
    try:
        for lineno, obj in _iter_json_lines(path):
            # Exact JSON type tests per value; the range checks run vectorised below.
            try:
                frame = obj["frame"]
                dets = obj["detections"]
                if type(frame) is not int or type(dets) is not list:
                    raise TypeError
                for d in dets:
                    label = d["label"]
                    bbox = d["bbox"]
                    score = d["score"]
                    if (
                        type(label) is not str
                        or type(score) not in _JSON_NUMBERS
                        or type(bbox) is not list
                        or len(bbox) != 4
                        or type(bbox[0]) not in _JSON_NUMBERS
                        or type(bbox[1]) not in _JSON_NUMBERS
                        or type(bbox[2]) not in _JSON_NUMBERS
                        or type(bbox[3]) not in _JSON_NUMBERS
                    ):
                        raise TypeError
                    labels.append(names.setdefault(label, len(names)))
                    scores.append(score)
                    bboxes.extend(bbox)
                frames.append(frame)
            except (KeyError, TypeError, OverflowError):
                try:
                    schema.decoder(DetectionFrame)(obj)  # the schema and the scalar constructors name the fault
                except ValidationError as exc:
                    raise ParseError(str(exc), path=str(path), line=lineno) from None
                raise ParseError("invalid detection record", path=str(path), line=lineno) from None
            ends.append(len(scores))
            lines.append(lineno)
    except ParseError:
        _check_detection_ranges(frames, ends, lines, labels, names, scores, bboxes, path)
        raise
    table = _check_detection_ranges(frames, ends, lines, labels, names, scores, bboxes, path)
    return DetectionTable._from_records(*table)


def _check_detection_ranges(frames, ends, lines, labels, names, scores, bboxes, path):
    """Vectorised range checks over the complete records parsed so far.

    Returns the record columns (frames, ends, labels, names, scores,
    bboxes); an out-of-range value raises ParseError naming its line.
    """
    n = len(ends)
    m = ends[-1] if n else 0
    frames = np.frombuffer(frames, dtype=np.int64, count=n)
    ends = np.frombuffer(ends, dtype=np.int64, count=n)
    labels = np.frombuffer(labels, dtype=np.int64, count=m)
    scores = np.frombuffer(scores, dtype=float, count=m)
    bboxes = np.frombuffer(bboxes, dtype=float, count=4 * m).reshape(m, 4)
    bad_box = ~(
        np.isfinite(bboxes).all(axis=1)
        & (bboxes[:, 0] <= bboxes[:, 2])
        & (bboxes[:, 1] <= bboxes[:, 3])
        & (scores >= 0.0)
        & (scores <= 1.0)
    )
    bad = frames < 0
    if bad_box.any():
        bad[np.searchsorted(ends, np.argmax(bad_box), side="right")] = True
    if bad.any():
        r = int(np.argmax(bad))
        a, b = (int(ends[r - 1]) if r else 0), int(ends[r])
        label_names = list(names)
        try:
            DetectionFrame(
                int(frames[r]),
                [
                    Detection(label_names[c], bbox, score)
                    for c, bbox, score in zip(labels[a:b].tolist(), bboxes[a:b].tolist(), scores[a:b].tolist())
                ],
            )
        except ValidationError as exc:
            raise ParseError(str(exc), path=str(path), line=lines[r]) from None
        raise ParseError("invalid detection record", path=str(path), line=lines[r])
    return frames, ends, labels, tuple(names), scores, bboxes


def _parse_records(cls, path) -> list:
    """The records of one dataclass in file order, each line read through schema.decoder.

    A line that is not JSON, not an object, lacks a field or holds a value
    of the wrong JSON type raises ParseError naming the line. A well-typed
    record that breaks an invariant of cls (an empty instruction, bbox
    corners out of order) raises ValidationError naming path:line.
    """
    decode = schema.decoder(cls)
    records = []
    for lineno, obj in _iter_json_lines(path):
        try:
            records.append(decode(obj))
        except SchemaError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from None
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return records


_record_json = json.JSONEncoder(
    separators=(",", ":"),
    allow_nan=False,
    default=lambda value: value.item() if isinstance(value, np.generic) else schema.to_json(value),
).encode


def write_records(records, path) -> None:
    """Write records of any record dataclass as JSON lines, keys in field order."""
    _write_text(path, "".join([_record_json(r) + "\n" for r in records]))


write_detections = write_landmarks = write_samples = write_predictions = write_records


def parse_landmarks(path) -> list[LandmarkAnnotation]:
    return _parse_records(LandmarkAnnotation, path)


def parse_samples(path) -> list[TrainingSample]:
    return _parse_records(TrainingSample, path)


def parse_predictions(path) -> list[PredictionRecord]:
    return _parse_records(PredictionRecord, path)


def _write_text(path, text: str) -> None:
    """Write text to path through a sibling temporary file and os.replace, so a killed writer leaves no
    truncated file (no fsync: a power loss is out of scope). A pipe or other non-regular file is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_text(text, encoding="utf-8")
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _jsonable(value):
    """Coerce numpy scalars and NaN so json output is strict and deterministic."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_report(report: dict, path) -> None:
    """Write a structured report as pretty-printed JSON with sorted keys.

    Non-finite floats are emitted as null; identical report content
    yields byte-identical files.
    """
    _write_text(path, json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n")


def file_digest(path) -> str:
    """Hex sha256 of a file's content."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
