"""Pose and rotation math for egocentric trajectory processing.

Conventions used throughout the package:

- Quaternions are stored as (x, y, z, w) and encode the camera-to-world
  rotation: ``world_vector = rotate(q, camera_vector)``.
- Which camera axis points "forward" and which world axis points "up" is
  not fixed by upstream pose estimators, so every angle operation takes an
  :class:`AxisConvention` (default: camera +Z forward, world +Z up).
- Angles are degrees, normalized to the half-open interval (-180, +180].
- Pitch is the elevation of the rotated forward vector above the world
  ground plane (positive = looking up). Yaw is the heading of the forward
  vector within the ground plane and is undefined (``GimbalDegenerate``)
  when forward is within ~1e-6 of vertical.

Scalar operations work on single :class:`Pose` values; the ``*_many``
kernels operate on (n, 4) quaternion / (n, 3) position arrays and are the
throughput path used by segmentation, filtering and sampling. The scalar
:func:`to_ego_waypoint` is kept as the reference that
:func:`ego_waypoints_many` must reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GimbalDegenerate, ValidationError

__all__ = [
    "AxisConvention",
    "DEFAULT_CONVENTION",
    "EgoWaypoint",
    "Pose",
    "normalize_angle_deg",
    "pitch_of",
    "yaw_of",
    "relative_pose",
    "to_ego_waypoint",
    "ego_waypoints_many",
    "pitch_many",
    "yaw_many",
    "quat_normalize",
    "quat_conjugate",
    "quat_multiply",
    "quat_multiply_many",
    "quat_rotate",
    "quat_rotate_many",
    "quat_from_axis_angle",
    "quat_between",
]

# Minimum quaternion norm accepted at construction; below this the input is
# treated as garbage rather than renormalized.
MIN_QUAT_NORM = 1e-3

# Horizontal forward-vector norm below which yaw is declared degenerate.
GIMBAL_EPS = 1e-6

_AXIS_VECTORS = {
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
}


def normalize_angle_deg(angle):
    """Normalize an angle (or array of angles) in degrees to (-180, +180]."""
    return 180.0 - (180.0 - angle) % 360.0


@dataclass(frozen=True)
class AxisConvention:
    """Names the camera forward axis and the world up axis.

    Both are signed axis names from {+x, -x, +y, -y, +z, -z}. The ground
    plane is spanned by two world axes (e1, e2) chosen so that
    (e1, e2, up) is right-handed; yaw 0 points along e1 and yaw +90 along
    e2, which makes e2 the "leftward" direction of a yaw-0 pose.
    """

    camera_forward: str = "+z"
    world_up: str = "+z"

    def __post_init__(self):
        for name, value in (("camera_forward", self.camera_forward), ("world_up", self.world_up)):
            if value not in _AXIS_VECTORS:
                raise ValidationError(f"{name} must be one of {sorted(_AXIS_VECTORS)}, got {value!r}")

    @property
    def forward_vec(self) -> np.ndarray:
        return np.array(_AXIS_VECTORS[self.camera_forward])

    @property
    def up_vec(self) -> np.ndarray:
        return np.array(_AXIS_VECTORS[self.world_up])

    @property
    def ground_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """World-frame (e1, e2) unit vectors spanning the ground plane."""
        sign = 1.0 if self.world_up[0] == "+" else -1.0
        k = "xyz".index(self.world_up[1])
        e1 = np.zeros(3)
        e2 = np.zeros(3)
        e1[(k + 1) % 3] = 1.0
        e2[(k + 2) % 3] = sign
        return e1, e2

    def to_dict(self) -> dict:
        return {"camera_forward": self.camera_forward, "world_up": self.world_up}

    @classmethod
    def from_dict(cls, data: dict) -> "AxisConvention":
        unknown = set(data) - {"camera_forward", "world_up"}
        if unknown:
            raise ValidationError(f"unknown AxisConvention keys: {sorted(unknown)}")
        return cls(**data)


DEFAULT_CONVENTION = AxisConvention()


# ---------------------------------------------------------------------------
# Quaternion helpers (x, y, z, w)
# ---------------------------------------------------------------------------

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


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([-q[0], -q[1], -q[2], q[3]])


def quat_multiply(q1, q2) -> np.ndarray:
    """Hamilton product q1 (x) q2 in (x, y, z, w) storage."""
    x1, y1, z1, w1 = np.asarray(q1, dtype=float)
    x2, y2, z2, w2 = np.asarray(q2, dtype=float)
    return np.array(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ]
    )


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v by unit quaternion q (camera-to-world application)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = q[:3]
    w = q[3]
    uv = np.cross(u, v)
    return v + 2.0 * (w * uv + np.cross(u, uv))


def quat_from_axis_angle(axis, angle_deg: float) -> np.ndarray:
    """Unit quaternion rotating by angle_deg about the given axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise ValidationError("rotation axis must be nonzero")
    half = math.radians(angle_deg) / 2.0
    s = math.sin(half) / norm
    return np.array([axis[0] * s, axis[1] * s, axis[2] * s, math.cos(half)])


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
# Value types
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


@dataclass(frozen=True)
class EgoWaypoint:
    """A ground-plane point relative to a reference pose: x forward, y left, meters."""

    x: float
    y: float

    def __post_init__(self):
        x = float(self.x)
        y = float(self.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"waypoint components must be finite, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


# ---------------------------------------------------------------------------
# Scalar pose operations
# ---------------------------------------------------------------------------

def pitch_of(pose: Pose, convention: AxisConvention = DEFAULT_CONVENTION) -> float:
    """Elevation of the camera forward vector above the ground plane.

    Args:
        pose: pose whose orientation is inspected.
        convention: axis convention naming forward and up.

    Returns:
        Pitch in degrees within [-90, +90]; positive means looking up.
    """
    forward = quat_rotate(pose.orientation, convention.forward_vec)
    f_up = float(forward @ convention.up_vec)
    return math.degrees(math.asin(max(-1.0, min(1.0, f_up))))


def yaw_of(pose: Pose, convention: AxisConvention = DEFAULT_CONVENTION) -> float:
    """Heading of the camera forward vector within the ground plane.

    Args:
        pose: pose whose orientation is inspected.
        convention: axis convention naming forward and up.

    Returns:
        Yaw in degrees, normalized to (-180, +180]; 0 along e1, +90 along e2.

    Raises:
        GimbalDegenerate: forward is within ~1e-6 of vertical.
    """
    forward = quat_rotate(pose.orientation, convention.forward_vec)
    e1, e2 = convention.ground_axes
    return _heading_deg(float(forward @ e1), float(forward @ e2))


def _heading_deg(h1: float, h2: float) -> float:
    """Yaw in degrees of a forward vector with ground-plane components (h1, h2)."""
    if math.hypot(h1, h2) < GIMBAL_EPS:
        raise GimbalDegenerate("camera forward vector is vertical; yaw undefined")
    return normalize_angle_deg(math.degrees(math.atan2(h2, h1)))


def relative_pose(anchor: Pose, p: Pose) -> Pose:
    """Express p in the coordinate frame of anchor.

    position becomes R_anchor^T (p.position - anchor.position) and
    orientation becomes q_anchor^-1 (x) q_p; the timestamp is preserved.
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
    """Project a world position into the reference pose's ground-plane frame.

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


# ---------------------------------------------------------------------------
# Vectorized kernels (throughput path)
# ---------------------------------------------------------------------------

def quat_rotate_many(quats: np.ndarray, v) -> np.ndarray:
    """Rotate one vector v by each quaternion in an (n, 4) array."""
    quats = np.asarray(quats, dtype=float)
    v = np.asarray(v, dtype=float)
    u = quats[:, :3]
    w = quats[:, 3:4]
    uv = np.cross(u, v[None, :])
    return v[None, :] + 2.0 * (w * uv + np.cross(u, uv))


def quat_multiply_many(q1s, q2s) -> np.ndarray:
    """Row-wise Hamilton product; either argument may be a single (4,) quaternion."""
    q1s = np.atleast_2d(np.asarray(q1s, dtype=float))
    q2s = np.atleast_2d(np.asarray(q2s, dtype=float))
    x1, y1, z1, w1 = q1s[:, 0], q1s[:, 1], q1s[:, 2], q1s[:, 3]
    x2, y2, z2, w2 = q2s[:, 0], q2s[:, 1], q2s[:, 2], q2s[:, 3]
    return np.stack(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ],
        axis=1,
    )


def pitch_many(quats: np.ndarray, convention: AxisConvention = DEFAULT_CONVENTION) -> np.ndarray:
    """Per-row pitch in degrees for an (n, 4) quaternion array."""
    forward = quat_rotate_many(quats, convention.forward_vec)
    f_up = forward @ convention.up_vec
    return np.degrees(np.arcsin(np.clip(f_up, -1.0, 1.0)))


def yaw_many(quats: np.ndarray, convention: AxisConvention = DEFAULT_CONVENTION) -> np.ndarray:
    """Per-row yaw in degrees for an (n, 4) quaternion array.

    Rows whose forward vector is (near) vertical come back as NaN instead
    of raising, so callers can skip them.

    Not bit-identical to :func:`yaw_of`: ``np.arctan2`` runs numpy's own
    vectorised arctangent, which differs from the C library's ``atan2``
    behind ``math.atan2`` in the last ulp for a fraction of inputs. That
    is harmless for thresholding (the filters), but it changes the
    shortest repr of derived waypoints, so :func:`ego_waypoints_many`
    takes its yaw through the scalar path instead.
    """
    forward = quat_rotate_many(quats, convention.forward_vec)
    e1, e2 = convention.ground_axes
    h1 = forward @ e1
    h2 = forward @ e2
    yaw = normalize_angle_deg(np.degrees(np.arctan2(h2, h1)))
    yaw = np.where(np.hypot(h1, h2) < GIMBAL_EPS, np.nan, yaw)
    return yaw


def ego_waypoints_many(
    quats: np.ndarray,
    origins: np.ndarray,
    targets: np.ndarray,
    convention: AxisConvention = DEFAULT_CONVENTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of :func:`to_ego_waypoint` over n reference poses.

    Args:
        quats: (n, 4) reference orientations.
        origins: (n, 3) reference positions.
        targets: (n, k, 3) world positions; row i is projected into the
            ground-plane frame of reference pose i.
        convention: axis convention naming forward and up.

    Returns:
        (waypoints, defined): waypoints is (n, k, 2) holding (x forward,
        y left); defined is (n,) and False where the reference yaw is
        undefined, whose rows are zero. Every defined value equals
        ``to_ego_waypoint`` bit for bit: the arithmetic is the same, and
        the yaw goes through the scalar ``math.atan2`` once per pose (see
        :func:`yaw_many` for why not ``np.arctan2``).
    """
    forward = quat_rotate_many(quats, convention.forward_vec)
    e1, e2 = convention.ground_axes
    n = forward.shape[0]
    cos = np.zeros(n)
    sin = np.zeros(n)
    defined = np.ones(n, dtype=bool)
    for i, (h1, h2) in enumerate(zip((forward @ e1).tolist(), (forward @ e2).tolist())):
        try:
            yaw = math.radians(_heading_deg(h1, h2))
        except GimbalDegenerate:
            defined[i] = False
            continue
        cos[i] = math.cos(yaw)
        sin[i] = math.sin(yaw)
    delta = np.asarray(targets, dtype=float) - np.asarray(origins, dtype=float)[:, None, :]
    dx = delta @ e1
    dy = delta @ e2
    c = cos[:, None]
    s = sin[:, None]
    return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1), defined
