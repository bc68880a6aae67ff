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

Poses are handled as columns: the ``*_many`` kernels operate on (n, 4)
quaternion / (n, 3) position arrays and are the one implementation of
pitch, yaw and the ego projection that segmentation, filtering and
sampling use. The ``quat_*`` helpers act on one quaternion (clip anchors,
synthetic streams). The per-pose forms the tests compare the kernels with
live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GimbalDegenerate, ValidationError

__all__ = [
    "AxisConvention",
    "DEFAULT_CONVENTION",
    "normalize_angle_deg",
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
# Vectorized kernels (throughput path)
# ---------------------------------------------------------------------------

def _heading_deg(h1: float, h2: float) -> float:
    """Yaw in degrees of a forward vector with ground-plane components (h1, h2)."""
    if math.hypot(h1, h2) < GIMBAL_EPS:
        raise GimbalDegenerate("camera forward vector is vertical; yaw undefined")
    return normalize_angle_deg(math.degrees(math.atan2(h2, h1)))


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

    ``np.arctan2`` runs numpy's own vectorised arctangent, which differs
    from the C library's ``atan2`` behind ``math.atan2`` in the last ulp
    for a fraction of inputs. That is harmless for thresholding (the
    filters), but it changes the shortest repr of derived waypoints, so
    :func:`ego_waypoints_many` takes its yaw through ``math.atan2``
    instead.
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
    """Project world positions into the ground-plane frames of n reference poses.

    The vertical component is discarded; the horizontal offset from the
    reference position is rotated by -yaw(reference), so x points where
    the camera looks and y points left of it.

    Args:
        quats: (n, 4) reference orientations.
        origins: (n, 3) reference positions.
        targets: (n, k, 3) world positions; row i is projected into the
            ground-plane frame of reference pose i.
        convention: axis convention naming forward and up.

    Returns:
        (waypoints, defined): waypoints is (n, k, 2) holding (x forward,
        y left); defined is (n,) and False where the reference yaw is
        undefined, whose rows are zero. The yaw goes through the scalar
        ``math.atan2`` once per pose (see :func:`yaw_many` for why not
        ``np.arctan2``).
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
