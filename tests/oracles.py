"""Scalar reference implementations that the tests compare the package with.

The package has one implementation of each metric and projection, a
kernel over arrays. The forms here work on one pose, one waypoint or one
record at a time, in the plainest arithmetic, and tests require the
kernels to reproduce them: bit for bit for the ego projection, the
metrics and sample building. The one-record metrics (``ade``, ``aoe``,
``maoe``, ``discrete_frechet``) exist only here; the tests run the
package's kernels on one-row batches to compare with them.

The package takes detections only as a DetectionTable and predictions
only as a PredictionTable; ``table_of`` / ``frames_of`` and
``prediction_table_of`` / ``records_of`` convert between a table and the
DetectionFrame or PredictionRecord list that tests write and compare, and
``detection_frames`` is the per-object generator that
``synth.generate_detections`` must reproduce as a table.
Sample lines are compared with the TrainingSample that ``build_sample``
builds one draw at a time. ``without_orjson`` gives the readers with
np.loadtxt and json deciding every pose file and record line, as they
did before orjson read a subset of them, and ``outcome`` makes what a
reader gives comparable bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import types
from dataclasses import dataclass
from typing import NamedTuple
from unittest import mock

import numpy as np
import orjson

from navcurate import io as tio
from navcurate import schema
from navcurate.errors import NavcurateError, ValidationError
from navcurate.geometry import (
    DEFAULT_CONVENTION,
    GIMBAL_EPS,
    AxisConvention,
    normalize_angle_deg,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_rotate,
)
from navcurate.io import (
    MIN_QUAT_NORM,
    Detection,
    DetectionFrame,
    DetectionTable,
    LandmarkAnnotation,
    PredictionRecord,
    PredictionTable,
    RawTrajectory,
    TrainingSample,
)
from navcurate.metrics import ARRIVAL_THRESHOLD, ZERO_STEP
from navcurate.sampling import SamplerConfig

# ---------------------------------------------------------------------------
# Quaternion helpers only the tests need
# ---------------------------------------------------------------------------


class GimbalDegenerate(NavcurateError):
    """Yaw is undefined: the camera forward vector is (near) vertical."""


def quat_normalize(q) -> np.ndarray:
    """Return q scaled to unit norm. Raises ValidationError below MIN_QUAT_NORM.

    Already-unit inputs (within 1e-12) pass through unchanged so repeated
    normalization is bit-stable.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValidationError(f"quaternion must have shape (4,), got {q.shape}")
    norm = math.sqrt(float(q @ q))
    if not math.isfinite(norm) or norm < MIN_QUAT_NORM:
        raise ValidationError(f"quaternion norm {norm:.3g} is below {MIN_QUAT_NORM}")
    if abs(norm - 1.0) <= 1e-12:
        return q
    return q / norm


def quat_between(u, v) -> np.ndarray:
    """Minimal rotation taking unit vector u onto unit vector v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = float(u @ v)
    if d < -1.0 + 1e-12:
        # Antiparallel: rotate 180 degrees about any axis orthogonal to u.
        helper = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = np.cross(u, helper)
        return quat_from_axis_angle(axis, 180.0)
    xyz = np.cross(u, v)
    return quat_normalize(np.array([xyz[0], xyz[1], xyz[2], 1.0 + d]))


# ---------------------------------------------------------------------------
# Detection tables as lists of frames
# ---------------------------------------------------------------------------


def table_of(frames) -> DetectionTable:
    """The table of a sequence of DetectionFrame; duplicate frames merge as in parse_detections."""
    frames = list(frames)
    dets = [d for f in frames for d in f.detections]
    names: dict[str, int] = {}
    return DetectionTable._from_records(
        np.array([f.frame for f in frames], dtype=np.int64),
        np.cumsum([len(f.detections) for f in frames], dtype=np.int64),
        np.array([names.setdefault(d.label, len(names)) for d in dets], dtype=np.int64),
        tuple(names),
        np.array([d.score for d in dets], dtype=float),
        np.array([d.bbox for d in dets], dtype=float).reshape(-1, 4),
    )


def frames_of(table: DetectionTable) -> list[DetectionFrame]:
    """The frames of a table in order, each with its boxes in row order."""
    offsets = table.offsets.tolist()
    labels = [table.names[code] for code in table.labels.tolist()]
    bboxes = [tuple(bbox) for bbox in table.bboxes.tolist()]
    scores = table.scores.tolist()
    return [
        DetectionFrame(frame, tuple(map(Detection, labels[a:b], bboxes[a:b], scores[a:b])))
        for frame, a, b in zip(table.frames.tolist(), offsets, offsets[1:])
    ]


def detection_frames(frame_count: int, count_schedule) -> list[DetectionFrame]:
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


# ---------------------------------------------------------------------------
# File text in one string: the writers before they formatted in blocks
# ---------------------------------------------------------------------------


def pose_lines(values: np.ndarray) -> str:
    """Pose lines of an (n, 8) array from one %-format: each value as repr writes it."""
    return ("%r %r %r %r %r %r %r %r\n" * len(values)) % tuple(values.ravel().tolist())


def pose_file_text(traj: RawTrajectory) -> str:
    """A pose file's text from one %-format over every value of the trajectory."""
    header = f"# {traj.id} fps={traj.fps!r}\n# timestamp tx ty tz qx qy qz qw\n"
    return header + pose_lines(np.column_stack([traj.timestamps, traj.positions, traj.quaternions]))


_BOX_FORMAT = '{"label":%s,"bbox":[%s,%s,%s,%s],"score":%s}'


def detection_file_text(table: DetectionTable) -> str:
    """A detection file's text from one %-format over the whole table: each frame's number, then six values per box."""
    counts = np.diff(table.offsets)
    n, m = len(table), len(table.scores)
    bits, inverse = np.unique(np.column_stack([table.bboxes, table.scores]).view(np.int64), return_inverse=True)
    floats = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    inverse = inverse.reshape(m, 5)
    values = np.empty(n + 6 * m, dtype=object)
    values[table.offsets[:-1] * 6 + np.arange(n)] = table.frames
    at = 6 * np.arange(m) + np.repeat(np.arange(n), counts) + 1
    values[at] = np.array(list(map(json.dumps, table.names)), dtype=object)[table.labels]
    for k in range(5):
        values[at + 1 + k] = floats[inverse[:, k]]
    formats = {c: '{"frame":%d,"detections":[' + ",".join([_BOX_FORMAT] * c) + "]}\n" for c in set(counts.tolist())}
    return "".join(map(formats.__getitem__, counts.tolist())) % tuple(values.tolist())


# ---------------------------------------------------------------------------
# The readers without orjson: np.loadtxt and json decide every input
# ---------------------------------------------------------------------------


def _orjson_takes_nothing(data):
    raise orjson.JSONDecodeError("not taken", "", 0)


@contextlib.contextmanager
def without_orjson():
    """navcurate.io with orjson taking no input, so every pose file goes to np.loadtxt whole and every record line to json.

    These are the readers as they were before orjson read a subset of
    their language: the package must give the same values, bit for bit,
    or the same error from them.
    """
    stub = types.SimpleNamespace(**{**vars(orjson), "loads": _orjson_takes_nothing})
    with mock.patch.object(tio, "orjson", stub):
        yield


def loadtxt_pose_file(path, fps: float = 10.0) -> RawTrajectory:
    """parse_pose_file with np.loadtxt reading the whole file: its values, or the error naming the first line it rejects."""
    with without_orjson():
        return tio.parse_pose_file(path, fps)


def outcome(parse, *args):
    """What parse(*args) gives, comparable with ==: each array field's bits and each other field, or the error.

    An error is its class, message and line (for a ParseError).
    """
    try:
        value = parse(*args)
    except NavcurateError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return {name: (item.dtype.str, item.shape, item.tobytes()) if isinstance(item, np.ndarray) else item
            for name, item in vars(value).items()}


# ---------------------------------------------------------------------------
# Prediction tables as lists of records
# ---------------------------------------------------------------------------


def prediction_table_of(records) -> PredictionTable:
    """The table of a sequence of PredictionRecord, as parse_predictions gives it for their file."""
    records = list(records)
    return PredictionTable(
        "".join(r.sample_id for r in records),
        np.cumsum([0] + [len(r.sample_id) for r in records]),
        np.cumsum([0] + [len(r.predicted) for r in records]),
        np.array([w for r in records for w in r.predicted], dtype=float).reshape(-1, 2),
        np.array([w for r in records for w in r.ground_truth], dtype=float).reshape(-1, 2),
        np.array([0.0 if r.predicted_arrival is None else r.predicted_arrival for r in records], dtype=float),
        np.array([r.predicted_arrival is None for r in records], dtype=bool),
        np.array([r.arrival_label is True for r in records], dtype=bool),
        np.array([r.arrival_label is None for r in records], dtype=bool),
    )


def records_of(table: PredictionTable) -> list[PredictionRecord]:
    """The records of a table in order; an arrival value comes back as a float."""
    offsets = table.offsets.tolist()
    predicted = [tuple(w) for w in table.predicted.tolist()]
    ground_truth = [tuple(w) for w in table.ground_truth.tolist()]
    arrival = [None if null else p for p, null in zip(table.predicted_arrival.tolist(), table.predicted_arrival_null.tolist())]
    labels = [None if null else b for b, null in zip(table.arrival_label.tolist(), table.arrival_label_null.tolist())]
    return [
        PredictionRecord(sample_id, tuple(predicted[a:b]), tuple(ground_truth[a:b]), p, label)
        for sample_id, a, b, p, label in zip(map(table.sample_id, range(len(table))), offsets, offsets[1:], arrival, labels)
    ]


# ---------------------------------------------------------------------------
# Poses and the ego projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pose:
    """A timestamped camera pose in the world frame.

    position is a 3-vector in meters; orientation is the camera-to-world
    unit quaternion (x, y, z, w). As in RawTrajectory, a quaternion whose
    norm is within io.QUAT_NORM_TOL of 1 is renormalized at construction;
    any other is rejected.
    """

    timestamp: float
    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        ts = float(self.timestamp)
        if not math.isfinite(ts) or ts < 0.0:
            raise ValidationError(f"timestamp must be a non-negative real, got {self.timestamp!r}")
        pos = np.asarray(self.position, dtype=float).reshape(-1)
        if pos.shape != (3,):
            raise ValidationError(f"position must be a 3-vector, got shape {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValidationError("position components must be finite")
        quat = quat_normalize(self.orientation)
        norm = float(np.linalg.norm(self.orientation))
        if abs(norm - 1.0) > tio.QUAT_NORM_TOL:
            raise ValidationError(f"quaternion has norm {norm!r}, not within {tio.QUAT_NORM_TOL} of 1")
        pos.flags.writeable = False
        quat.flags.writeable = False
        object.__setattr__(self, "timestamp", ts)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)

    @classmethod
    def identity(cls, timestamp: float = 0.0) -> "Pose":
        return cls(timestamp, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))


def pose_at(traj, i: int) -> Pose:
    """Pose i of a RawTrajectory."""
    return Pose(float(traj.timestamps[i]), traj.positions[i].copy(), traj.quaternions[i].copy())


class EgoWaypoint(NamedTuple):
    """A ground-plane point relative to a reference pose: x forward, y left, meters.

    It equals the plain pair ``(x, y)`` that records hold.
    """

    x: float
    y: float


def pitch_of(pose: Pose, convention: AxisConvention = DEFAULT_CONVENTION) -> float:
    """Elevation of the camera forward vector above the ground plane, degrees in [-90, +90]."""
    forward = quat_rotate(pose.orientation, convention.forward_vec)
    f_up = float(forward @ convention.up_vec)
    return math.degrees(math.asin(max(-1.0, min(1.0, f_up))))


def yaw_of(pose: Pose, convention: AxisConvention = DEFAULT_CONVENTION) -> float:
    """Heading of the camera forward vector in the ground plane, degrees in (-180, +180].

    0 is along e1 and +90 along e2.

    Raises:
        GimbalDegenerate: forward is within ~1e-6 of vertical.
    """
    forward = quat_rotate(pose.orientation, convention.forward_vec)
    e1, e2 = convention.ground_axes
    h1 = float(forward @ e1)
    h2 = float(forward @ e2)
    if math.hypot(h1, h2) < GIMBAL_EPS:
        raise GimbalDegenerate("camera forward vector is vertical; yaw undefined")
    return normalize_angle_deg(math.degrees(math.atan2(h2, h1)))


def relative_pose(anchor: Pose, p: Pose) -> Pose:
    """p expressed in the frame of anchor; the timestamp is kept.

    position becomes R_anchor^T (p.position - anchor.position) and
    orientation becomes q_anchor^-1 (x) q_p.
    """
    delta = p.position - anchor.position
    qa = anchor.orientation
    local = quat_rotate(quat_conjugate(qa), delta)
    orientation = quat_multiply(quat_conjugate(qa), p.orientation)
    return Pose(p.timestamp, local, orientation)


def to_ego_waypoint(
    reference: Pose,
    target_position,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> EgoWaypoint:
    """A world position in the reference pose's ground-plane frame.

    The vertical component is discarded; the horizontal offset is rotated
    by -yaw(reference) so x points where the camera looks and y points
    left of it.

    Raises:
        GimbalDegenerate: reference yaw is undefined.
    """
    yaw_deg = yaw_of(reference, convention)
    target = np.asarray(target_position, dtype=float)
    delta = target - reference.position
    e1, e2 = convention.ground_axes
    dx = float(delta @ e1)
    dy = float(delta @ e2)
    yaw = math.radians(yaw_deg)
    c = math.cos(yaw)
    s = math.sin(yaw)
    return EgoWaypoint(c * dx + s * dy, -s * dx + c * dy)


class OutOfBounds(NavcurateError):
    """A requested frame range runs past the end of the clip (build_sample's failure; the package counts it as a skip)."""


def build_sample(
    clip: RawTrajectory,
    landmark: LandmarkAnnotation,
    t: int,
    config: SamplerConfig,
    convention: AxisConvention = DEFAULT_CONVENTION,
    sample_id: str | None = None,
) -> TrainingSample:
    """The sample for start frame t, one to_ego_waypoint call per waypoint.

    Waypoint i is pose(t + (i+1)*stride)'s position in the ground-plane
    frame of pose(t).

    Raises:
        OutOfBounds: the future horizon runs past the clip end.
        GimbalDegenerate: pose(t) has no defined yaw.
    """
    k = config.horizon
    stride = config.waypoint_stride
    if t < 0 or t + k * stride >= len(clip):
        raise OutOfBounds(
            f"start {t} with horizon {k} and stride {stride} exceeds clip of {len(clip)} frames"
        )
    reference = pose_at(clip, t)
    waypoints = tuple(
        to_ego_waypoint(reference, clip.positions[t + (i + 1) * stride], convention) for i in range(k)
    )
    return training_sample(
        clip, landmark, t, waypoints, config, sample_id or f"{clip.id}:g{landmark.goal_frame}:t{t}"
    )


def samples_of(lines) -> list[TrainingSample]:
    """The TrainingSample of each sample line, read back through the schema."""
    decode = schema.decoder(TrainingSample)
    return [decode(json.loads(line)) for line in lines]


def training_sample(
    clip: RawTrajectory,
    landmark: LandmarkAnnotation,
    t: int,
    waypoints: tuple[tuple[float, float], ...],
    config: SamplerConfig,
    sample_id: str,
) -> TrainingSample:
    """The sample for start frame t; history frames run back from t in stride steps, clamped at 0."""
    stride = config.waypoint_stride
    history = tuple(max(0, t - (config.history_len - 1 - j) * stride) for j in range(config.history_len))
    t_g = landmark.goal_frame
    return TrainingSample(
        sample_id=sample_id,
        clip_id=clip.id,
        instruction=landmark.instruction,
        t=t,
        t_g=t_g,
        history_frames=history,
        waypoints=waypoints,
        arrival=(t_g - t) <= config.arrival_window,
    )


# ---------------------------------------------------------------------------
# Metrics of one record
# ---------------------------------------------------------------------------


class AllUndefined(NavcurateError):
    """No step of a waypoint pair has a direction on both sides (the package reports such a record as not oriented)."""


def _as_xy(waypoints) -> np.ndarray:
    """A waypoint sequence ((x, y) pairs or an array) as an (n, 2) float array."""
    arr = np.asarray(waypoints, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"waypoints must be an (n, 2) sequence, got shape {arr.shape}")
    return arr


def step_directions(waypoints) -> tuple[np.ndarray, np.ndarray]:
    """Unit motion directions between consecutive waypoints.

    An origin (0, 0) precedes the first waypoint. Returns (directions,
    defined): directions is (k, 2) with zero rows where defined is False,
    i.e. where the step displacement is below 1e-9 m.
    """
    pts = _as_xy(waypoints)
    if pts.shape[0] < 1:
        raise ValidationError("need at least one waypoint")
    disp = np.diff(np.vstack([np.zeros((1, 2)), pts]), axis=0)
    norms = np.linalg.norm(disp, axis=1)
    defined = norms >= ZERO_STEP
    directions = np.zeros_like(disp)
    directions[defined] = disp[defined] / norms[defined, None]
    return directions, defined


def orientation_errors(pred, gt) -> np.ndarray:
    """Per-step angles in [0, 180] degrees between motion directions.

    Steps undefined on either side are excluded; the returned array holds
    only defined steps.

    Raises:
        AllUndefined: no step has a direction on both sides.
    """
    dp, mp = step_directions(pred)
    dg, mg = step_directions(gt)
    if dp.shape[0] != dg.shape[0]:
        raise ValidationError(f"prediction has {dp.shape[0]} steps, ground truth {dg.shape[0]}")
    both = mp & mg
    if not np.any(both):
        raise AllUndefined("every step has near-zero displacement on at least one side")
    a = dp[both]
    b = dg[both]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    dot = np.sum(a * b, axis=1)
    return np.degrees(np.arctan2(np.abs(cross), dot))


def aoe(pred, gt) -> float:
    """Mean per-step orientation error, degrees."""
    return float(np.mean(orientation_errors(pred, gt)))


def maoe(pred, gt) -> float:
    """Maximum per-step orientation error, degrees."""
    return float(np.max(orientation_errors(pred, gt)))


def ade(pred, gt) -> float:
    """Mean Euclidean distance between corresponding waypoints, meters."""
    p = _as_xy(pred)
    g = _as_xy(gt)
    if p.shape[0] != g.shape[0]:
        raise ValidationError(f"prediction has {p.shape[0]} waypoints, ground truth {g.shape[0]}")
    return float(np.mean(np.linalg.norm(p - g, axis=1)))


def discrete_frechet(pred, gt) -> float:
    """Discrete Frechet distance between the two paths with the origin prepended, by the scalar DP."""
    p = np.vstack([np.zeros((1, 2)), _as_xy(pred)])
    g = np.vstack([np.zeros((1, 2)), _as_xy(gt)])
    dist = np.linalg.norm(p[:, None, :] - g[None, :, :], axis=2)
    n, m = dist.shape
    acc = np.empty((n, m))
    acc[0, 0] = dist[0, 0]
    for i in range(1, n):
        acc[i, 0] = max(acc[i - 1, 0], dist[i, 0])
    for j in range(1, m):
        acc[0, j] = max(acc[0, j - 1], dist[0, j])
    for i in range(1, n):
        for j in range(1, m):
            acc[i, j] = max(dist[i, j], min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]))
    return float(acc[n - 1, m - 1])


@dataclass(frozen=True)
class SampleMetrics:
    """Metrics for one prediction record; orientation fields are None when
    no step direction is defined on both sides."""

    aoe_deg: float | None
    maoe_deg: float | None
    ade_m: float
    made_m: float
    arrival_correct: bool | None


def sample_metrics(record: PredictionRecord) -> SampleMetrics:
    """All four metrics plus the arrival call for one record."""
    try:
        errors = orientation_errors(record.predicted, record.ground_truth)
        aoe_deg: float | None = float(np.mean(errors))
        maoe_deg: float | None = float(np.max(errors))
    except AllUndefined:
        aoe_deg = None
        maoe_deg = None
    arrival_correct = None
    if record.predicted_arrival is not None and record.arrival_label is not None:
        arrival_correct = (record.predicted_arrival >= ARRIVAL_THRESHOLD) == record.arrival_label
    return SampleMetrics(
        aoe_deg=aoe_deg,
        maoe_deg=maoe_deg,
        ade_m=ade(record.predicted, record.ground_truth),
        made_m=discrete_frechet(record.predicted, record.ground_truth),
        arrival_correct=arrival_correct,
    )
