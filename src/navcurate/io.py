"""On-disk artifact formats: parsers and writers.

All files are UTF-8. Two families of formats:

Pose files (TUM-style text):
    ``timestamp tx ty tz qx qy qz qw`` per line, single spaces, ``#``
    starts a comment line. Quaternions are (x, y, z, w) camera-to-world
    and are renormalized on load; everything else is rejected, never
    repaired.

Record files (JSON lines, one record per line, fixed key order):
    detections:  {"frame", "detections": [{"label", "bbox", "score"}, ...]}
    landmarks:   {"clip_id", "goal_frame", "bbox", "name", "instruction"}
    samples:     {"sample_id", "clip_id", "instruction", "t", "t_g",
                  "history_frames", "waypoints", "arrival"}
    predictions: {"sample_id", "predicted", "ground_truth",
                  "predicted_arrival", "arrival_label"}

``bbox`` is [x1, y1, x2, y2] in pixels; waypoints are [x, y] meter pairs.
Detection frame indices count frames of the source trajectory. Duplicate
detection frames are merged by concatenation (the one documented repair);
every other malformed or invariant-violating record raises ParseError
with its line number. Reports are a single pretty-printed JSON document
with sorted keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import EgoWaypoint, Pose

__all__ = [
    "RawTrajectory",
    "Detection",
    "DetectionFrame",
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
    "write_report",
    "file_digest",
]


@dataclass(frozen=True, eq=False)
class RawTrajectory:
    """An ordered pose stream with identity and frame-rate metadata.

    Pose data is stored columnar for throughput: timestamps (n,),
    positions (n, 3), quaternions (n, 4) in (x, y, z, w). Use
    :meth:`pose` / :meth:`iter_poses` for the per-pose view.
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

    def pose(self, i: int) -> Pose:
        return Pose(float(self.timestamps[i]), self.positions[i].copy(), self.quaternions[i].copy())


@dataclass(frozen=True)
class Detection:
    label: str
    bbox: tuple[float, float, float, float]
    score: float

    def __post_init__(self):
        bbox = tuple(float(v) for v in self.bbox)
        if len(bbox) != 4:
            raise ValidationError(f"bbox must have 4 entries, got {len(bbox)}")
        x1, y1, x2, y2 = bbox
        if not all(math.isfinite(v) for v in bbox):
            raise ValidationError("bbox entries must be finite")
        if x1 > x2 or y1 > y2:
            raise ValidationError(f"bbox corners out of order: {bbox}")
        score = float(self.score)
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"score must be in [0, 1], got {self.score!r}")
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "score", score)


@dataclass(frozen=True)
class DetectionFrame:
    frame: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if int(self.frame) != self.frame or self.frame < 0:
            raise ValidationError(f"frame must be a non-negative integer, got {self.frame!r}")
        object.__setattr__(self, "frame", int(self.frame))
        object.__setattr__(self, "detections", tuple(self.detections))


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
        if int(self.goal_frame) != self.goal_frame or self.goal_frame < 0:
            raise ValidationError(f"goal_frame must be a non-negative integer, got {self.goal_frame!r}")
        bbox = tuple(float(v) for v in self.bbox)
        if len(bbox) != 4 or bbox[0] > bbox[2] or bbox[1] > bbox[3]:
            raise ValidationError(f"malformed bbox: {self.bbox!r}")
        if not self.instruction:
            raise ValidationError("instruction must be non-empty")
        object.__setattr__(self, "goal_frame", int(self.goal_frame))
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
    waypoints: tuple[EgoWaypoint, ...]
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
        object.__setattr__(self, "history_frames", tuple(int(f) for f in self.history_frames))
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        object.__setattr__(self, "arrival", bool(self.arrival))


@dataclass(frozen=True)
class PredictionRecord:
    """Predicted vs ground-truth waypoints for one evaluation sample."""

    sample_id: str
    predicted: tuple[EgoWaypoint, ...]
    ground_truth: tuple[EgoWaypoint, ...]
    predicted_arrival: float | None = None
    arrival_label: bool | None = None

    def __post_init__(self):
        if not isinstance(self.sample_id, str) or not self.sample_id:
            raise ValidationError(f"sample_id must be a non-empty string, got {self.sample_id!r}")
        predicted = _as_waypoints(self.predicted)
        ground_truth = _as_waypoints(self.ground_truth)
        if len(predicted) == 0 or len(predicted) != len(ground_truth):
            raise ValidationError(
                f"predicted and ground_truth must have equal length >= 1, got {len(predicted)} vs {len(ground_truth)}"
            )
        if self.predicted_arrival is not None:
            if not _is_number(self.predicted_arrival) or not (0.0 <= float(self.predicted_arrival) <= 1.0):
                raise ValidationError(f"predicted_arrival must be a number in [0, 1], got {self.predicted_arrival!r}")
            object.__setattr__(self, "predicted_arrival", float(self.predicted_arrival))
        if self.arrival_label is not None and not isinstance(self.arrival_label, bool):
            raise ValidationError(f"arrival_label must be a bool or null, got {self.arrival_label!r}")
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "ground_truth", ground_truth)


def _as_waypoints(seq) -> tuple[EgoWaypoint, ...]:
    """EgoWaypoints as given; (x, y) pairs become EgoWaypoint(x, y)."""
    return tuple(w if isinstance(w, EgoWaypoint) else EgoWaypoint(*w) for w in seq)


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true/false parse as Python bools).

    float and int are tested before the slow numbers.Real ABC check.
    """
    return not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))


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
    Path(path).write_text("".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# JSON-lines records
# ---------------------------------------------------------------------------

def _iter_json_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                yield lineno, json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=lineno)


def _record_field(obj: dict, key: str, path, lineno: int):
    if not isinstance(obj, dict):
        raise ParseError(f"record must be a JSON object, got {type(obj).__name__}", path=str(path), line=lineno)
    if key not in obj:
        raise ParseError(f"missing field {key!r}", path=str(path), line=lineno)
    return obj[key]


def parse_detections(path) -> list[DetectionFrame]:
    """Parse detection records, sorted by frame; duplicate frames merge by concatenation."""
    by_frame: dict[int, list[Detection]] = {}
    for lineno, obj in _iter_json_lines(path):
        frame = _record_field(obj, "frame", path, lineno)
        raw_dets = _record_field(obj, "detections", path, lineno)
        try:
            dets = [
                Detection(
                    _record_field(d, "label", path, lineno),
                    _record_field(d, "bbox", path, lineno),
                    _record_field(d, "score", path, lineno),
                )
                for d in raw_dets
            ]
            probe = DetectionFrame(frame, dets)
        except (ValidationError, TypeError) as exc:
            raise ParseError(str(exc), path=str(path), line=lineno)
        by_frame.setdefault(probe.frame, []).extend(probe.detections)
    return [DetectionFrame(frame, tuple(dets)) for frame, dets in sorted(by_frame.items())]


def write_detections(frames, path) -> None:
    lines = []
    for frame in frames:
        lines.append(
            _dump_line(
                {
                    "frame": frame.frame,
                    "detections": [
                        {"label": d.label, "bbox": list(d.bbox), "score": d.score} for d in frame.detections
                    ],
                }
            )
        )
    Path(path).write_text("".join(lines), encoding="utf-8")


def parse_landmarks(path) -> list[LandmarkAnnotation]:
    """Parse landmark records in file order.

    A missing field is a ParseError; a present-but-empty instruction is a
    ValidationError (the record is well-formed, its content is not).
    """
    landmarks = []
    for lineno, obj in _iter_json_lines(path):
        instruction = _record_field(obj, "instruction", path, lineno)
        if not instruction:
            raise ValidationError(f"{path}:{lineno}: instruction must be non-empty")
        try:
            landmarks.append(
                LandmarkAnnotation(
                    _record_field(obj, "clip_id", path, lineno),
                    _record_field(obj, "goal_frame", path, lineno),
                    _record_field(obj, "bbox", path, lineno),
                    _record_field(obj, "name", path, lineno),
                    instruction,
                )
            )
        except (ValidationError, TypeError) as exc:
            raise ParseError(str(exc), path=str(path), line=lineno)
    return landmarks


def write_landmarks(landmarks, path) -> None:
    lines = [
        _dump_line(
            {
                "clip_id": lm.clip_id,
                "goal_frame": lm.goal_frame,
                "bbox": list(lm.bbox),
                "name": lm.name,
                "instruction": lm.instruction,
            }
        )
        for lm in landmarks
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


def parse_samples(path) -> list[TrainingSample]:
    samples = []
    for lineno, obj in _iter_json_lines(path):
        try:
            samples.append(
                TrainingSample(
                    _record_field(obj, "sample_id", path, lineno),
                    _record_field(obj, "clip_id", path, lineno),
                    _record_field(obj, "instruction", path, lineno),
                    _record_field(obj, "t", path, lineno),
                    _record_field(obj, "t_g", path, lineno),
                    tuple(_record_field(obj, "history_frames", path, lineno)),
                    tuple(EgoWaypoint(w[0], w[1]) for w in _record_field(obj, "waypoints", path, lineno)),
                    _record_field(obj, "arrival", path, lineno),
                )
            )
        except (ValidationError, TypeError, IndexError) as exc:
            raise ParseError(str(exc), path=str(path), line=lineno)
    return samples


def write_samples(samples, path) -> None:
    lines = [
        _dump_line(
            {
                "sample_id": s.sample_id,
                "clip_id": s.clip_id,
                "instruction": s.instruction,
                "t": s.t,
                "t_g": s.t_g,
                "history_frames": list(s.history_frames),
                "waypoints": [[w.x, w.y] for w in s.waypoints],
                "arrival": s.arrival,
            }
        )
        for s in samples
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


_JSON_NUMBERS = (float, int)


def _waypoint_pairs(obj: dict, key: str, path, lineno: int) -> tuple[EgoWaypoint, ...]:
    """A record's waypoint list: every entry exactly two finite numbers [x, y].

    json.loads gives a number as exactly int or float (true/false are
    bool), so exact type tests suffice here.
    """
    value = _record_field(obj, key, path, lineno)
    if type(value) is not list:
        raise ParseError(f"{key} must be a list of [x, y] number pairs", path=str(path), line=lineno)
    points = []
    for w in value:
        if type(w) is not list or len(w) != 2 or type(w[0]) not in _JSON_NUMBERS or type(w[1]) not in _JSON_NUMBERS:
            raise ParseError(f"{key} must be a list of [x, y] number pairs", path=str(path), line=lineno)
        points.append(EgoWaypoint(w[0], w[1]))
    return tuple(points)


def parse_predictions(path) -> list[PredictionRecord]:
    """Parse prediction records in file order.

    Waypoints must be [x, y] pairs of finite numbers, predicted_arrival a
    number in [0, 1] or null, arrival_label a bool or null and sample_id
    a non-empty string; anything else is a ParseError, never coerced.
    """
    records = []
    for lineno, obj in _iter_json_lines(path):
        try:
            records.append(
                PredictionRecord(
                    _record_field(obj, "sample_id", path, lineno),
                    _waypoint_pairs(obj, "predicted", path, lineno),
                    _waypoint_pairs(obj, "ground_truth", path, lineno),
                    obj.get("predicted_arrival"),
                    obj.get("arrival_label"),
                )
            )
        except (ValidationError, OverflowError) as exc:
            raise ParseError(str(exc), path=str(path), line=lineno)
    return records


def write_predictions(records, path) -> None:
    lines = [
        _dump_line(
            {
                "sample_id": r.sample_id,
                "predicted": [[w.x, w.y] for w in r.predicted],
                "ground_truth": [[w.x, w.y] for w in r.ground_truth],
                "predicted_arrival": r.predicted_arrival,
                "arrival_label": r.arrival_label,
            }
        )
        for r in records
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _dump_line(obj: dict) -> str:
    return json.dumps(_jsonable(obj), separators=(",", ":"), allow_nan=False) + "\n"


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
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def file_digest(path) -> str:
    """Hex sha256 of a file's content."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
