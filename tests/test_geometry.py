import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcurate.errors import ValidationError
from navcurate.geometry import (
    AxisConvention,
    ego_waypoints_many,
    normalize_angle_deg,
    pitch_many,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_rotate,
    yaw_many,
)

from conftest import quat_close, random_pose, random_unit_quat
from oracles import (
    EgoWaypoint,
    GimbalDegenerate,
    Pose,
    pitch_of,
    quat_between,
    relative_pose,
    to_ego_waypoint,
    yaw_of,
)


def quat_to_matrix(q):
    """Independent rotation-matrix construction for oracle checks."""
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def pose_with_quat(q) -> Pose:
    return Pose(0.0, np.zeros(3), q)


LEVEL_FORWARD_X = quat_from_axis_angle([0.0, 1.0, 0.0], 90.0)  # camera +Z -> world +X


class TestPose:
    def test_renormalizes_quaternion(self):
        p = Pose(1.0, np.zeros(3), [0.0, 0.0, 0.0, 2.0])
        assert np.allclose(p.orientation, [0.0, 0.0, 0.0, 1.0])

    def test_rejects_near_zero_quaternion(self):
        with pytest.raises(ValidationError):
            Pose(0.0, np.zeros(3), [0.0, 0.0, 0.0, 1e-4])

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValidationError):
            Pose(-1.0, np.zeros(3), [0.0, 0.0, 0.0, 1.0])

    def test_rejects_nonfinite_position(self):
        with pytest.raises(ValidationError):
            Pose(0.0, [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])

    def test_immutable_arrays(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            p.position[0] = 1.0


class TestAxisConvention:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValidationError):
            AxisConvention(camera_forward="+w")

    @pytest.mark.parametrize("up", ["+x", "-x", "+y", "-y", "+z", "-z"])
    def test_ground_axes_right_handed(self, up):
        conv = AxisConvention(world_up=up)
        e1, e2 = conv.ground_axes
        assert np.allclose(np.cross(e1, e2), conv.up_vec)


class TestPitch:
    def test_identity_looks_straight_up(self):
        # Default convention: camera forward +Z coincides with world up +Z.
        assert pitch_of(Pose.identity()) == pytest.approx(90.0)

    def test_level_forward_is_zero(self):
        assert pitch_of(pose_with_quat(LEVEL_FORWARD_X)) == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degree_tilt(self):
        # Oracle: apply the rotation matrix directly and check the up
        # component of the forward vector equals sin(30 deg).
        q = quat_multiply(quat_from_axis_angle([0.0, -1.0, 0.0], 30.0), LEVEL_FORWARD_X)
        forward = quat_to_matrix(q) @ np.array([0.0, 0.0, 1.0])
        assert forward[2] == pytest.approx(math.sin(math.radians(30.0)), abs=1e-12)
        assert pitch_of(pose_with_quat(q)) == pytest.approx(30.0, abs=1e-9)

    def test_translation_invariance(self, rng):
        for _ in range(50):
            q = random_unit_quat(rng)
            a = Pose(0.0, np.zeros(3), q)
            b = Pose(0.0, rng.uniform(-100, 100, 3), q)
            assert pitch_of(a) == pitch_of(b)


class TestYaw:
    def test_forward_x_is_zero(self):
        assert yaw_of(pose_with_quat(LEVEL_FORWARD_X)) == pytest.approx(0.0, abs=1e-12)

    def test_forward_y_is_ninety(self):
        q = quat_between(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert yaw_of(pose_with_quat(q)) == pytest.approx(90.0, abs=1e-9)

    def test_diagonal_back_left(self):
        target = np.array([-1.0, -1.0, 0.0]) / math.sqrt(2.0)
        q = quat_between(np.array([0.0, 0.0, 1.0]), target)
        assert yaw_of(pose_with_quat(q)) == pytest.approx(-135.0, abs=1e-9)

    def test_vertical_forward_raises(self):
        with pytest.raises(GimbalDegenerate):
            yaw_of(Pose.identity())

    def test_translation_invariance(self, rng):
        for _ in range(50):
            q = random_unit_quat(rng)
            try:
                expected = yaw_of(Pose(0.0, np.zeros(3), q))
            except GimbalDegenerate:
                continue
            assert yaw_of(Pose(0.0, rng.uniform(-100, 100, 3), q)) == expected


class TestRelativePose:
    def test_self_anchor_is_identity(self, rng):
        p = random_pose(rng)
        rel = relative_pose(p, p)
        assert np.allclose(rel.position, 0.0, atol=1e-12)
        assert quat_close(rel.orientation, [0.0, 0.0, 0.0, 1.0], tol=1e-12)

    def test_identity_anchor_returns_pose(self, rng):
        p = random_pose(rng, timestamp=3.5)
        rel = relative_pose(Pose.identity(), p)
        assert np.allclose(rel.position, p.position, atol=1e-12)
        assert quat_close(rel.orientation, p.orientation, tol=1e-12)
        assert rel.timestamp == p.timestamp

    def test_yawed_anchor(self):
        # Hand oracle: R(-90 deg about +Z) @ (1, 0, 0) = (0, -1, 0).
        anchor = pose_with_quat(quat_from_axis_angle([0.0, 0.0, 1.0], 90.0))
        p = Pose(0.0, np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 0.0, 1.0])
        rel = relative_pose(anchor, p)
        assert np.allclose(rel.position, [0.0, -1.0, 0.0], atol=1e-9)

    def test_round_trip(self, rng):
        for _ in range(200):
            anchor = random_pose(rng)
            p = random_pose(rng)
            rel = relative_pose(anchor, p)
            back_pos = anchor.position + quat_rotate(anchor.orientation, rel.position)
            back_quat = quat_multiply(anchor.orientation, rel.orientation)
            assert np.allclose(back_pos, p.position, atol=1e-9)
            assert quat_close(back_quat, p.orientation, tol=1e-9)


class TestToEgoWaypoint:
    def test_zero_displacement(self, rng):
        p = random_pose(rng)
        try:
            wp = to_ego_waypoint(p, p.position)
        except GimbalDegenerate:
            return
        assert wp == EgoWaypoint(0.0, 0.0)

    def test_aligned_axes(self):
        ref = pose_with_quat(LEVEL_FORWARD_X)
        wp = to_ego_waypoint(ref, [2.0, 0.0, 0.0])
        assert wp.x == pytest.approx(2.0, abs=1e-12)
        assert wp.y == pytest.approx(0.0, abs=1e-12)

    def test_yawed_reference(self):
        # Rotate (1, 0) by -90 deg -> (0, -1).
        q = quat_multiply(quat_from_axis_angle([0.0, 0.0, 1.0], 90.0), LEVEL_FORWARD_X)
        wp = to_ego_waypoint(pose_with_quat(q), [1.0, 0.0, 0.0])
        assert wp.x == pytest.approx(0.0, abs=1e-9)
        assert wp.y == pytest.approx(-1.0, abs=1e-9)

    def test_left_is_positive_y(self):
        wp = to_ego_waypoint(pose_with_quat(LEVEL_FORWARD_X), [0.0, 3.0, 0.0])
        assert wp.y == pytest.approx(3.0, abs=1e-12)

    def test_yaw_equivariance(self, rng):
        # Pre-rotating both reference and target by any world yaw leaves
        # the ego waypoint unchanged.
        for _ in range(200):
            q = random_unit_quat(rng)
            ref = Pose(0.0, rng.uniform(-10, 10, 3), q)
            target = rng.uniform(-10, 10, 3)
            try:
                base = to_ego_waypoint(ref, target)
            except GimbalDegenerate:
                continue
            theta = rng.uniform(-180.0, 180.0)
            q_rot = quat_from_axis_angle([0.0, 0.0, 1.0], theta)
            ref_rot = Pose(0.0, quat_rotate(q_rot, ref.position), quat_multiply(q_rot, q))
            rotated = to_ego_waypoint(ref_rot, quat_rotate(q_rot, target))
            assert rotated.x == pytest.approx(base.x, abs=1e-9)
            assert rotated.y == pytest.approx(base.y, abs=1e-9)


class TestVectorKernels:
    def test_pitch_many_matches_scalar(self, rng):
        quats = np.stack([random_unit_quat(rng) for _ in range(64)])
        batch = pitch_many(quats)
        for i in range(64):
            assert batch[i] == pytest.approx(pitch_of(pose_with_quat(quats[i])), abs=1e-12)

    def test_yaw_many_matches_scalar(self, rng):
        quats = np.stack([random_unit_quat(rng) for _ in range(64)])
        quats[0] = [0.0, 0.0, 0.0, 1.0]  # degenerate row
        batch = yaw_many(quats)
        for i in range(64):
            try:
                expected = yaw_of(pose_with_quat(quats[i]))
            except GimbalDegenerate:
                assert np.isnan(batch[i])
                continue
            assert batch[i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("up", ["+z", "-y", "+x"])
    def test_ego_waypoints_many_is_bit_identical_to_scalar(self, rng, up):
        # Enough headings that np.arctan2 in place of math.atan2 would
        # change some last bit (it does for ~1.5% of poses).
        convention = AxisConvention(camera_forward="+z", world_up=up)
        n, k = 2000, 3
        quats = np.stack([random_unit_quat(rng) for _ in range(n)])
        quats[0] = quat_between(convention.forward_vec, convention.up_vec)  # degenerate row
        origins = rng.uniform(-50.0, 50.0, size=(n, 3))
        targets = origins[:, None, :] + rng.uniform(-5.0, 5.0, size=(n, k, 3))
        targets[1] = origins[1]  # zero-length offsets: the sign of zero must match too
        waypoints, defined = ego_waypoints_many(quats, origins, targets, convention)
        for i in range(n):
            reference = Pose(0.0, origins[i], quats[i])
            try:
                want = [to_ego_waypoint(reference, target, convention) for target in targets[i]]
            except GimbalDegenerate:
                assert not defined[i]
                continue
            assert defined[i]
            assert repr([[w.x, w.y] for w in want]) == repr(waypoints[i].tolist())
        assert not defined[0]

    def test_quat_rotate_matches_matrix(self, rng):
        for _ in range(50):
            q = random_unit_quat(rng)
            v = rng.standard_normal(3)
            assert np.allclose(quat_rotate(q, v), quat_to_matrix(q) @ v, atol=1e-12)

    def test_conjugate_inverts(self, rng):
        q = random_unit_quat(rng)
        assert quat_close(quat_multiply(q, quat_conjugate(q)), [0, 0, 0, 1], tol=1e-12)

    def test_broadcast_kernels_equal_per_row_calls(self, rng):
        n = 500
        quats = np.stack([random_unit_quat(rng) for _ in range(n)])
        others = np.stack([random_unit_quat(rng) for _ in range(n)])
        v = rng.standard_normal(3)
        rotated = quat_rotate(quats, v)
        products = quat_multiply(quats, others)
        anchored = quat_multiply(quat_conjugate(quats[0]), others)
        for i in range(n):
            assert np.array_equal(rotated[i], quat_rotate(quats[i], v))
            assert np.array_equal(products[i], quat_multiply(quats[i], others[i]))
            assert np.array_equal(anchored[i], quat_multiply(quat_conjugate(quats[0]), others[i]))

    def test_rotation_matrix_equals_per_axis_stack(self, rng):
        # segment and synth build a clip anchor's matrix with one call.
        for _ in range(200):
            q = random_unit_quat(rng)
            matrix = quat_rotate(q, np.eye(3)).T
            assert np.array_equal(matrix, np.stack([quat_rotate(q, e) for e in np.eye(3)], axis=1))
            assert np.allclose(matrix, quat_to_matrix(q), atol=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_normalize_angle_range(angle):
    result = normalize_angle_deg(angle)
    assert -180.0 < result <= 180.0
    # Same angle modulo 360.
    assert math.isclose(math.cos(math.radians(result)), math.cos(math.radians(angle)), abs_tol=1e-6)
    assert math.isclose(math.sin(math.radians(result)), math.sin(math.radians(angle)), abs_tol=1e-6)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_relative_pose_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    anchor = random_pose(rng)
    p = random_pose(rng)
    rel = relative_pose(anchor, p)
    back_pos = anchor.position + quat_rotate(anchor.orientation, rel.position)
    back_quat = quat_multiply(anchor.orientation, rel.orientation)
    assert np.allclose(back_pos, p.position, atol=1e-9)
    assert quat_close(back_quat, p.orientation, tol=1e-9)
