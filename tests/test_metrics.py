import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcurate.errors import EmptyResult, ValidationError
from navcurate.io import PredictionRecord
from navcurate.metrics import MetricReport, _ade_many, _frechet_many, _orientation_many, evaluate

import oracles
from oracles import AllUndefined, EgoWaypoint, orientation_errors, prediction_table_of, sample_metrics, step_directions


def one_row(kernel, pred, gt):
    """A metric kernel run on pred and gt as one-row batches: its value for that row, or a tuple of them."""
    out = kernel(np.asarray(pred, dtype=float)[None], np.asarray(gt, dtype=float)[None])
    return out[0].item() if isinstance(out, np.ndarray) else tuple(a[0].item() for a in out)


def brute_force_frechet(P, Q):
    """Exhaustive search over all monotone couplings (branch-and-bound)."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2)
    n, m = d.shape
    best = [math.inf]

    def walk(i, j, cur):
        cur = max(cur, d[i, j])
        if cur >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cur
            return
        if i + 1 < n:
            walk(i + 1, j, cur)
        if j + 1 < m:
            walk(i, j + 1, cur)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cur)

    walk(0, 0, 0.0)
    return best[0]


def prepend_origin(points):
    return np.vstack([np.zeros((1, 2)), np.asarray(points, dtype=float)])


class TestStepDirections:
    def test_straight_line(self):
        dirs, defined = step_directions([(1.0, 0.0), (2.0, 0.0)])
        assert np.allclose(dirs, [[1, 0], [1, 0]])
        assert defined.all()

    def test_repeated_point_undefined(self):
        dirs, defined = step_directions([(1.0, 0.0), (1.0, 0.0)])
        assert list(defined) == [True, False]
        assert np.allclose(dirs[1], [0, 0])

    def test_single_diagonal(self):
        dirs, defined = step_directions([(1.0, 1.0)])
        assert defined.all()
        assert np.allclose(dirs[0], [math.sqrt(2) / 2, math.sqrt(2) / 2])

    def test_accepts_waypoint_objects(self):
        dirs, _ = step_directions([EgoWaypoint(2.0, 0.0)])
        assert np.allclose(dirs, [[1, 0]])


class TestOrientationErrors:
    def test_identical_zero(self):
        wps = [(1.0, 0.0), (2.0, 1.0), (3.0, 1.0)]
        assert np.allclose(orientation_errors(wps, wps), 0.0)

    def test_antiparallel_is_180(self):
        pred = [(1.0, 0.0), (2.0, 0.0)]
        gt = [(-1.0, 0.0), (-2.0, 0.0)]
        assert np.allclose(orientation_errors(pred, gt), 180.0)

    def test_hand_geometry_case(self):
        pred = [(1.0, 0.0), (1.0, 1.0)]
        gt = [(1.0, 0.0), (2.0, 0.0)]
        assert np.allclose(orientation_errors(pred, gt), [0.0, 90.0])

    def test_undefined_steps_excluded(self):
        pred = [(1.0, 0.0), (1.0, 0.0)]
        gt = [(1.0, 0.0), (2.0, 0.0)]
        errors = orientation_errors(pred, gt)
        assert errors.shape == (1,)

    def test_all_undefined_raises(self):
        pred = [(0.0, 0.0), (0.0, 0.0)]
        gt = [(1.0, 0.0), (2.0, 0.0)]
        with pytest.raises(AllUndefined):
            orientation_errors(pred, gt)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="prediction has 1 steps, ground truth 2"):
            orientation_errors([(1.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)])


class TestAoeMaoe:
    def test_identical(self):
        wps = [(1.0, 0.0), (2.0, 0.0)]
        assert one_row(_orientation_many, wps, wps) == (0.0, 0.0, True)

    def test_zero_and_ninety(self):
        pred = [(1.0, 0.0), (1.0, 1.0)]
        gt = [(1.0, 0.0), (2.0, 0.0)]
        aoe_deg, maoe_deg, oriented = one_row(_orientation_many, pred, gt)
        assert aoe_deg == pytest.approx(45.0)
        assert maoe_deg == pytest.approx(90.0)
        assert oriented

    def test_uniform_rotation(self, rng):
        gt = np.cumsum(rng.uniform(0.2, 1.0, size=(8, 2)), axis=0)
        theta = math.radians(10.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        pred = gt @ rot.T
        aoe_deg, maoe_deg, _ = one_row(_orientation_many, pred, gt)
        assert aoe_deg == pytest.approx(10.0, abs=1e-9)
        assert maoe_deg == pytest.approx(10.0, abs=1e-9)

    def test_maoe_at_least_aoe(self, rng):
        for _ in range(50):
            pred = rng.uniform(-5, 5, size=(6, 2))
            gt = rng.uniform(-5, 5, size=(6, 2))
            aoe_deg, maoe_deg, _ = one_row(_orientation_many, pred, gt)
            assert maoe_deg >= aoe_deg


class TestAde:
    def test_identical(self):
        wps = [(1.0, 2.0), (3.0, 4.0)]
        assert one_row(_ade_many, wps, wps) == 0.0

    def test_arithmetic(self):
        assert one_row(_ade_many, [(1.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)]) == pytest.approx(1.5)

    def test_uniform_translation(self, rng):
        gt = rng.uniform(-5, 5, size=(8, 2))
        pred = gt + np.array([0.0, 3.0])
        assert one_row(_ade_many, pred, gt) == pytest.approx(3.0, abs=1e-12)


class TestDiscreteFrechet:
    def test_identical_zero(self):
        wps = [(1.0, 0.0), (2.0, 0.0), (3.0, 1.0)]
        assert one_row(_frechet_many, wps, wps) == 0.0

    def test_parallel_lines(self):
        p = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        q = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        assert one_row(_frechet_many, p, q) == pytest.approx(1.0, abs=1e-12)
        assert brute_force_frechet(prepend_origin(p), prepend_origin(q)) == pytest.approx(1.0, abs=1e-12)

    def test_detour_couples_with_endpoint(self):
        p = [(0.0, 0.0), (2.0, 0.0)]
        q = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        expected = brute_force_frechet(prepend_origin(p), prepend_origin(q))
        assert expected == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert one_row(_frechet_many, p, q) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            p = rng.uniform(-10, 10, size=(n, 2))
            q = rng.uniform(-10, 10, size=(m, 2))
            got = one_row(_frechet_many, p, q)
            want = brute_force_frechet(prepend_origin(p), prepend_origin(q))
            assert abs(got - want) <= 1e-12

    def test_symmetry(self, rng):
        for _ in range(50):
            p = rng.uniform(-10, 10, size=(int(rng.integers(1, 7)), 2))
            q = rng.uniform(-10, 10, size=(int(rng.integers(1, 7)), 2))
            assert one_row(_frechet_many, p, q) == pytest.approx(one_row(_frechet_many, q, p), abs=1e-12)

    def test_hausdorff_lower_bound(self, rng):
        for _ in range(50):
            p = prepend_origin(rng.uniform(-10, 10, size=(5, 2)))
            q = prepend_origin(rng.uniform(-10, 10, size=(4, 2)))
            d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
            hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
            assert one_row(_frechet_many, p[1:], q[1:]) >= hausdorff - 1e-12

    def test_rigid_rotation_invariance(self, rng):
        p = rng.uniform(-5, 5, size=(6, 2))
        q = rng.uniform(-5, 5, size=(6, 2))
        theta = math.radians(37.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        for kernel in (_frechet_many, _ade_many):
            assert one_row(kernel, p @ rot.T, q @ rot.T) == pytest.approx(one_row(kernel, p, q), abs=1e-9)


def record(pred, gt, sample_id="s", predicted_arrival=None, arrival_label=None):
    # Records take plain floats only (numpy scalars are rejected), so array rows go through tolist.
    return PredictionRecord(
        sample_id,
        tuple(EgoWaypoint(*w) for w in np.asarray(pred, dtype=float).tolist()),
        tuple(EgoWaypoint(*w) for w in np.asarray(gt, dtype=float).tolist()),
        predicted_arrival,
        arrival_label,
    )


class TestEvaluate:
    def test_perfect_records(self):
        wps = [(1.0, 0.0), (2.0, 0.0)]
        records = [record(wps, wps, f"s{i}", 0.9, True) for i in range(3)]
        report = evaluate(prediction_table_of(records))
        assert report.n_samples == 3
        assert report.aoe_deg == 0.0
        assert report.maoe_deg == 0.0
        assert report.ade_m == 0.0
        assert report.made_m == 0.0
        assert report.arrival_accuracy == 1.0

    def test_mean_ade(self):
        a = record([(1.0, 0.0)], [(0.0, 0.0)], "a")
        b = record([(2.0, 0.0)], [(0.0, 0.0)], "b")
        report = evaluate(prediction_table_of([a, b]))
        assert report.ade_m == pytest.approx(1.5)

    def test_empty_raises(self):
        with pytest.raises(EmptyResult, match="no prediction records to evaluate"):
            evaluate(prediction_table_of([]))

    def test_arrival_threshold(self):
        r1 = record([(1.0, 0.0)], [(1.0, 0.0)], "a", predicted_arrival=0.5, arrival_label=True)
        r2 = record([(1.0, 0.0)], [(1.0, 0.0)], "b", predicted_arrival=0.49, arrival_label=True)
        report = evaluate(prediction_table_of([r1, r2]))
        assert report.arrival_accuracy == pytest.approx(0.5)
        assert report.n_arrival_scored == 2

    def test_unlabeled_records_not_scored(self):
        report = evaluate(prediction_table_of([record([(1.0, 0.0)], [(1.0, 0.0)], "a")]))
        assert report.arrival_accuracy is None
        assert report.n_arrival_scored == 0

    def test_orientation_excluded_counted(self):
        stuck = record([(0.0, 0.0), (0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)], "stuck")
        moving = record([(1.0, 0.0)], [(1.0, 0.0)], "ok")
        report = evaluate(prediction_table_of([stuck, moving]))
        assert report.n_orientation_excluded == 1
        assert report.aoe_deg == 0.0

    def test_deterministic_repeat(self, rng):
        records = [
            record(rng.uniform(-3, 3, (8, 2)), rng.uniform(-3, 3, (8, 2)), f"s{i}") for i in range(10)
        ]
        assert evaluate(prediction_table_of(records)) == evaluate(prediction_table_of(records))

    @pytest.mark.parametrize(
        "pred, gt",
        [
            ([(1e200, 0.0)], [(1.0, 0.0)]),  # ADE and MADE overflow
            ([(-9e307, 0.0), (9e307, 0.0)], [(-9e307, 0.0), (9e307, 0.0)]),  # ADE and MADE 0, the step overflows
        ],
        ids=["overflowing-distance", "overflowing-step"],
    )
    def test_non_finite_metric_names_first_record(self, pred, gt):
        ok = record([(1.0, 0.0)], [(1.0, 0.0)], "ok")
        # Runs with RuntimeWarning as an error (pyproject.toml), so a warning from the kernels fails here too.
        with pytest.raises(ValidationError, match="'bad1'"):
            evaluate(prediction_table_of([ok, record(pred, gt, "bad1"), record(pred, gt, "bad2")]))

    def test_plain_pair_waypoints(self):
        pairs = PredictionRecord("p", ((1.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (2.0, 0.0)), 0.2, False)
        expected = record([(1.0, 0.0), (1.0, 1.0)], [(1.0, 0.0), (2.0, 0.0)], "p", 0.2, False)
        assert evaluate(prediction_table_of([pairs])) == evaluate(prediction_table_of([expected]))

    def test_sample_metrics_fields(self):
        m = sample_metrics(record([(1.0, 0.0)], [(0.0, 1.0)], "x", 0.2, False))
        assert m.aoe_deg == pytest.approx(90.0)
        assert m.made_m == pytest.approx(math.sqrt(2.0))
        assert m.arrival_correct is True


def fold_sample_metrics(records):
    """evaluate spelled out as dataset means over per-record sample_metrics."""
    per_sample = [sample_metrics(r) for r in records]
    aoe_values = [m.aoe_deg for m in per_sample if m.aoe_deg is not None]
    maoe_values = [m.maoe_deg for m in per_sample if m.maoe_deg is not None]
    calls = [m.arrival_correct for m in per_sample if m.arrival_correct is not None]
    return MetricReport(
        n_samples=len(records),
        aoe_deg=float(np.mean(aoe_values)) if aoe_values else None,
        maoe_deg=float(np.mean(maoe_values)) if maoe_values else None,
        ade_m=float(np.mean([m.ade_m for m in per_sample])),
        made_m=float(np.mean([m.made_m for m in per_sample])),
        arrival_accuracy=float(np.mean(calls)) if calls else None,
        n_orientation_excluded=len(records) - len(aoe_values),
        n_arrival_scored=len(calls),
    )


_coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@st.composite
def _waypoint_pair(draw, horizons):
    """Equal-length (pred, gt) waypoint lists; some predictions are all zero or repeat a waypoint."""
    k = draw(horizons)
    points = st.lists(st.tuples(_coord, _coord), min_size=k, max_size=k)
    pred = draw(points)
    gt = draw(points)
    shape = draw(st.sampled_from(["free", "zero_prediction", "repeated_waypoint"]))
    if shape == "zero_prediction":
        pred = [(0.0, 0.0)] * k
    elif shape == "repeated_waypoint" and k > 1:
        i = draw(st.integers(min_value=1, max_value=k - 1))
        pred[i] = pred[i - 1]
    return pred, gt


@st.composite
def _eval_record(draw):
    pred, gt = draw(_waypoint_pair(st.sampled_from([1, 8, 32])))
    return record(
        pred,
        gt,
        sample_id="s",
        predicted_arrival=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
        arrival_label=draw(st.one_of(st.none(), st.booleans())),
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_eval_record(), min_size=1, max_size=12))
def test_evaluate_equals_sample_metrics_fold(records):
    assert repr(evaluate(prediction_table_of(records))) == repr(fold_sample_metrics(records))


def test_evaluate_equals_fold_across_batches(rng):
    # More k=32 records than one batch holds, in shuffled horizon order.
    records = []
    for i in range(700):
        k = int(rng.choice([1, 8, 32], p=[0.1, 0.5, 0.4]))
        gt = np.cumsum(rng.uniform(-0.5, 1.0, size=(k, 2)), axis=0)
        pred = gt + rng.normal(0.0, 0.2, size=(k, 2))
        if i % 29 == 0:
            pred[:] = 0.0
        elif i % 7 == 0 and k > 1:
            pred[k // 2] = pred[k // 2 - 1]
        records.append(
            record(pred, gt, f"s{i}", None if i % 5 == 0 else float(rng.random()), None if i % 11 == 0 else bool(i % 2))
        )
    assert repr(evaluate(prediction_table_of(records))) == repr(fold_sample_metrics(records))


def _waypoints(k):
    return st.lists(st.tuples(_coord, _coord), min_size=k, max_size=k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(_waypoints), st.integers(1, 8).flatmap(_waypoints))
def test_discrete_frechet_equals_scalar_dp(pred, gt):
    assert repr(one_row(_frechet_many, pred, gt)) == repr(oracles.discrete_frechet(pred, gt))


def _oracle_orientation(pred, gt):
    """(AOE, MAOE, oriented) by the scalar forms, with the kernel's (0.0, 0.0, False) where no step counts."""
    try:
        return oracles.aoe(pred, gt), oracles.maoe(pred, gt), True
    except AllUndefined:
        return 0.0, 0.0, False


@settings(max_examples=200, deadline=None)
@given(_waypoint_pair(st.integers(1, 8)))
def test_one_row_metrics_equal_scalar_forms(pair):
    pred, gt = pair
    assert repr(one_row(_ade_many, pred, gt)) == repr(oracles.ade(pred, gt))
    assert repr(one_row(_orientation_many, pred, gt)) == repr(_oracle_orientation(pred, gt))
