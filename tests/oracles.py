"""Scalar reference implementations that the tests compare the package with.

The package has one implementation of each metric and projection, a
kernel over arrays. The forms here work on one pose, one waypoint or one
record at a time, in the plainest arithmetic, and tests require the
kernels to reproduce them: bit for bit for the ego projection, the
metrics and sample building.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from navcurate.errors import AllUndefined, GimbalDegenerate, LengthMismatch, OutOfBounds, ValidationError
from navcurate.geometry import (
    DEFAULT_CONVENTION,
    GIMBAL_EPS,
    AxisConvention,
    normalize_angle_deg,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_rotate,
)
from navcurate.io import LandmarkAnnotation, PredictionRecord, TrainingSample
from navcurate.metrics import ARRIVAL_THRESHOLD, ZERO_STEP
from navcurate.sampling import SamplerConfig, _training_sample
from navcurate.segmentation import Clip

# ---------------------------------------------------------------------------
# Poses and the ego projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pose:
    """A timestamped camera pose in the world frame.

    position is a 3-vector in meters; orientation is the camera-to-world
    unit quaternion (x, y, z, w). Inputs are renormalized at construction;
    a quaternion with norm below 1e-3 is rejected.
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
        pos.flags.writeable = False
        quat.flags.writeable = False
        object.__setattr__(self, "timestamp", ts)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)

    @classmethod
    def identity(cls, timestamp: float = 0.0) -> "Pose":
        return cls(timestamp, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))


def pose_at(traj, i: int) -> Pose:
    """Pose i of a RawTrajectory or Clip."""
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


def build_sample(
    clip: Clip,
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
    return _training_sample(
        clip, landmark, t, waypoints, config, sample_id or f"{clip.clip_id}:g{landmark.goal_frame}:t{t}"
    )


# ---------------------------------------------------------------------------
# Metrics of one record
# ---------------------------------------------------------------------------


def _as_xy(waypoints) -> np.ndarray:
    """A waypoint sequence ((x, y) pairs or an array) as an (n, 2) float array."""
    arr = np.asarray(waypoints, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise LengthMismatch(f"waypoints must be an (n, 2) sequence, got shape {arr.shape}")
    return arr


def step_directions(waypoints) -> tuple[np.ndarray, np.ndarray]:
    """Unit motion directions between consecutive waypoints.

    An origin (0, 0) precedes the first waypoint. Returns (directions,
    defined): directions is (k, 2) with zero rows where defined is False,
    i.e. where the step displacement is below 1e-9 m.
    """
    pts = _as_xy(waypoints)
    if pts.shape[0] < 1:
        raise LengthMismatch("need at least one waypoint")
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
        raise LengthMismatch(f"prediction has {dp.shape[0]} steps, ground truth {dg.shape[0]}")
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
        raise LengthMismatch(f"prediction has {p.shape[0]} waypoints, ground truth {g.shape[0]}")
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
