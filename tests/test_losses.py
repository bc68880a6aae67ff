import math

import numpy as np
import pytest

from navcurate.errors import ValidationError
from navcurate.losses import LossWeights, loss_arr, loss_hall, loss_ori, loss_reg, loss_total


def central_diff(f, x, h=1e-6):
    grad = np.zeros_like(x, dtype=float)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def rel_error(a, b):
    scale = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / scale


def nondegenerate_waypoints(rng, k=8, min_step=0.05):
    steps = rng.uniform(min_step, 1.0, size=(k, 2)) * rng.choice([-1.0, 1.0], size=(k, 2))
    while np.any(np.linalg.norm(steps, axis=1) < min_step):
        steps = rng.uniform(min_step, 1.0, size=(k, 2)) * rng.choice([-1.0, 1.0], size=(k, 2))
    return np.cumsum(steps, axis=0)


class TestLossReg:
    def test_identical_zero(self):
        wps = np.array([[1.0, 2.0], [3.0, 4.0]])
        value, grad = loss_reg(wps, wps)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_closed_form_single(self):
        value, grad = loss_reg([[1.0, 0.0]], [[0.0, 0.0]])
        assert value == pytest.approx(1.0)
        assert np.allclose(grad, [[2.0, 0.0]])

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 9))
            pred = rng.uniform(-3, 3, size=(k, 2))
            gt = rng.uniform(-3, 3, size=(k, 2))
            _, grad = loss_reg(pred, gt)
            fd = central_diff(lambda x: loss_reg(x, gt)[0], pred)
            assert rel_error(grad, fd) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=r"waypoint shapes differ: \(1, 2\) vs \(2, 2\)"):
            loss_reg([[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]])

    def test_non_negative(self, rng):
        for _ in range(20):
            value, _ = loss_reg(rng.uniform(-5, 5, (4, 2)), rng.uniform(-5, 5, (4, 2)))
            assert value >= 0.0


class TestLossOri:
    def test_perfect_alignment_exact(self):
        # 3-4-5 steps: norms and dots are exact in floating point.
        steps = np.array([[3.0, 4.0], [4.0, -3.0], [6.0, 8.0], [-3.0, 4.0]])
        wps = np.cumsum(steps, axis=0)
        value, _ = loss_ori(wps, wps.copy())
        assert value == -1.0

    def test_perfect_alignment_random(self, rng):
        wps = nondegenerate_waypoints(rng)
        value, _ = loss_ori(wps, wps.copy())
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_antiparallel(self):
        pred = np.array([[float(i), 0.0] for i in range(1, 9)])
        value, _ = loss_ori(pred, -pred)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            value, _ = loss_ori(nondegenerate_waypoints(rng), nondegenerate_waypoints(rng))
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    def test_scale_invariance(self, rng):
        pred = nondegenerate_waypoints(rng)
        gt = nondegenerate_waypoints(rng)
        base, _ = loss_ori(pred, gt)
        scaled, _ = loss_ori(7.5 * pred, 7.5 * gt)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 9))
            pred = nondegenerate_waypoints(rng, k)
            gt = nondegenerate_waypoints(rng, k)
            _, grad = loss_ori(pred, gt)
            fd = central_diff(lambda x: loss_ori(x, gt)[0], pred)
            assert rel_error(grad, fd) < 1e-5

    def test_gradient_with_clamped_gt_step(self, rng):
        # A zero ground-truth step exercises the eps clamp on that side.
        pred = nondegenerate_waypoints(rng, 4)
        gt = nondegenerate_waypoints(rng, 4)
        gt[2] = gt[1]
        _, grad = loss_ori(pred, gt)
        fd = central_diff(lambda x: loss_ori(x, gt)[0], pred)
        assert rel_error(grad, fd) < 1e-5


@pytest.mark.parametrize("loss", [loss_reg, loss_ori])
@pytest.mark.parametrize(
    "pred, gt, message",
    [
        ([], [(1.0, 0.0)], r"pred_waypoints must be a \(k, 2\) array with k >= 1, got shape \(0,\)"),
        ([(1.0, 0.0)], [], r"gt_waypoints must be a \(k, 2\) array with k >= 1, got shape \(0,\)"),
        ([(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0)], r"pred_waypoints .* got shape \(1, 3\)"),
        ([1.0, 0.0], [1.0, 0.0], r"pred_waypoints .* got shape \(2,\)"),
        ([(1.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], r"waypoint shapes differ: \(1, 2\) vs \(2, 2\)"),
    ],
    ids=["empty-pred", "empty-gt", "three-columns", "flat", "unequal-lengths"],
)
def test_waypoint_pairs_rejected(loss, pred, gt, message):
    # One check serves both waypoint losses.
    with pytest.raises(ValidationError, match=message):
        loss(pred, gt)


class TestLossArr:
    def test_ln2_at_zero(self):
        value, grad = loss_arr(0.0, 1)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        assert grad == pytest.approx(-0.5, abs=1e-12)

    def test_saturation_no_overflow(self):
        value, grad = loss_arr(50.0, 1)
        assert value == pytest.approx(0.0, abs=1e-20)
        assert grad == pytest.approx(0.0, abs=1e-20)
        value, grad = loss_arr(-745.0, 0)
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-300)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            z = float(rng.uniform(-10.0, 10.0))
            y = int(rng.integers(0, 2))
            _, grad = loss_arr(z, y)
            h = 1e-6
            fd = (loss_arr(z + h, y)[0] - loss_arr(z - h, y)[0]) / (2.0 * h)
            assert abs(grad - fd) / max(abs(fd), 1e-12) < 1e-8

    def test_label_domain(self):
        with pytest.raises(ValidationError):
            loss_arr(0.0, 2)

    def test_non_negative(self, rng):
        for _ in range(50):
            value, _ = loss_arr(float(rng.uniform(-20, 20)), int(rng.integers(0, 2)))
            assert value >= 0.0


class TestLossHall:
    def test_identical_zero(self, rng):
        feats = rng.uniform(-1, 1, size=(8, 16))
        value, grad = loss_hall(feats, feats.copy())
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_arithmetic(self):
        value, grad = loss_hall([[0.5, -0.5]], [[0.0, 0.0]])
        assert value == pytest.approx(1.0)
        assert np.allclose(grad, [[1.0, -1.0]])

    def test_sign_zero_is_zero(self):
        _, grad = loss_hall([[0.0, 1.0]], [[0.0, 0.0]])
        assert grad[0, 0] == 0.0

    def test_subgradient_away_from_kinks(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 12))
            gt = rng.uniform(-2, 2, size=(k, d))
            offset = rng.uniform(0.01, 1.0, size=(k, d)) * rng.choice([-1.0, 1.0], size=(k, d))
            pred = gt + offset  # all |diff| >= 0.01, far from the kink
            _, grad = loss_hall(pred, gt)
            fd = central_diff(lambda x: loss_hall(x, gt)[0], pred)
            assert rel_error(grad, fd) < 1e-5

    def test_shape_mismatch(self):
        message = r"feature shapes must match as \(k, d\) with k, d >= 1, got \(2, 3\) vs \(2, 4\)"
        with pytest.raises(ValidationError, match=message):
            loss_hall(np.zeros((2, 3)), np.zeros((2, 4)))


class TestLossTotal:
    def test_zero_weights(self):
        weights = LossWeights(0.0, 0.0, 0.0, 0.0)
        assert loss_total((1.0, 2.0, 3.0, 4.0), weights) == 0.0

    def test_unit_weights(self):
        assert loss_total((1.0, -1.0, 0.5, 0.25)) == pytest.approx(0.75)

    def test_weight_homogeneity(self):
        components = (0.3, -0.2, 1.1, 0.7)
        w1 = LossWeights(1.0, 2.0, 0.5, 3.0)
        w2 = LossWeights(2.0, 4.0, 1.0, 6.0)
        assert loss_total(components, w2) == pytest.approx(2.0 * loss_total(components, w1))

    def test_linear_in_components(self):
        a = (1.0, 0.0, 0.0, 0.0)
        b = (0.0, 1.0, 0.0, 0.0)
        w = LossWeights(0.4, 0.6, 1.0, 1.0)
        total_sum = loss_total((1.0, 1.0, 0.0, 0.0), w)
        assert total_sum == pytest.approx(loss_total(a, w) + loss_total(b, w))

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            LossWeights(lambda_reg=-0.1)
