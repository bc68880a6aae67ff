"""Waypoint-prediction metrics: AOE, MAOE, ADE, MADE and arrival accuracy.

Orientation errors compare per-step motion directions (displacements
between consecutive waypoints, with an implicit origin before the first
one). Steps shorter than 1e-9 m have no direction and are excluded. MADE
is the discrete Frechet distance between the two waypoint polylines with
the origin prepended to both, so the metric covers the full path from
the agent.

Batch path: :func:`evaluate` stacks the records of each horizon k into
(N, k, 2) arrays and computes every metric over N at once, with the
Frechet recurrence (Eiter & Mannila 1994) run cell by cell over N.
Scalar reference: :func:`step_directions`, :func:`orientation_errors`,
:func:`aoe`, :func:`maoe`, :func:`ade`, :func:`discrete_frechet` and
:func:`sample_metrics` score one record; tests require ``evaluate`` to
equal, bit for bit, the mean of ``sample_metrics`` over the records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllUndefined, EmptyInput, LengthMismatch
from .io import PredictionRecord

__all__ = [
    "SampleMetrics",
    "MetricReport",
    "step_directions",
    "orientation_errors",
    "aoe",
    "maoe",
    "ade",
    "discrete_frechet",
    "sample_metrics",
    "evaluate",
]

# Displacements below this have no meaningful direction.
ZERO_STEP = 1e-9

ARRIVAL_THRESHOLD = 0.5

# Rows per batch are capped so that one batch holds about this many
# Frechet cells ((k + 1)^2 per record), which bounds the temporaries.
BATCH_CELLS = 1 << 18


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
    # atan2 of (|cross|, dot) is exact at 0 and 180 degrees, where arccos
    # of a rounded dot product is not.
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
    """Discrete Frechet distance between the two paths, meters (= MADE).

    A leading origin point is prepended to both sequences, so even
    single-waypoint predictions compare full paths from the agent.
    """
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


@dataclass(frozen=True)
class MetricReport:
    """Dataset-level unweighted means plus arrival accuracy."""

    n_samples: int
    aoe_deg: float | None
    maoe_deg: float | None
    ade_m: float
    made_m: float
    arrival_accuracy: float | None
    n_orientation_excluded: int
    n_arrival_scored: int


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


def _horizon_metrics(pred: np.ndarray, gt: np.ndarray):
    """Per-record (ADE, MADE, AOE, MAOE, oriented) for (N, k, 2) arrays.

    Each value equals its scalar counterpart on the same record: the
    elementwise arithmetic and the per-row reductions are the ones the
    scalar functions run, and min/max are exact. AOE/MAOE are vectorised
    only over rows where every step is defined on both sides; a row with
    some zero-length step goes through :func:`orientation_errors`, whose
    mean over the defined steps only would sum in another order if
    masked. oriented is False where no step is defined on both sides.
    """
    n, k, _ = pred.shape
    ade_m = np.linalg.norm(pred - gt, axis=2).mean(axis=1)

    origin = np.zeros((n, 1, 2))
    p = np.concatenate([origin, pred], axis=1)
    g = np.concatenate([origin, gt], axis=1)
    dist = np.linalg.norm(p[:, :, None, :] - g[:, None, :, :], axis=3)
    acc = np.empty_like(dist)
    acc[:, 0, 0] = dist[:, 0, 0]
    for i in range(1, k + 1):
        acc[:, i, 0] = np.maximum(acc[:, i - 1, 0], dist[:, i, 0])
        acc[:, 0, i] = np.maximum(acc[:, 0, i - 1], dist[:, 0, i])
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            best = np.minimum(np.minimum(acc[:, i - 1, j], acc[:, i, j - 1]), acc[:, i - 1, j - 1])
            acc[:, i, j] = np.maximum(dist[:, i, j], best)
    made_m = acc[:, k, k]

    disp_p = np.diff(pred, axis=1, prepend=0.0)
    disp_g = np.diff(gt, axis=1, prepend=0.0)
    norm_p = np.linalg.norm(disp_p, axis=2)
    norm_g = np.linalg.norm(disp_g, axis=2)
    both = (norm_p >= ZERO_STEP) & (norm_g >= ZERO_STEP)
    full = both.all(axis=1)
    aoe_deg = np.zeros(n)
    maoe_deg = np.zeros(n)
    a = disp_p[full] / norm_p[full][:, :, None]
    b = disp_g[full] / norm_g[full][:, :, None]
    cross = a[:, :, 0] * b[:, :, 1] - a[:, :, 1] * b[:, :, 0]
    dot = np.sum(a * b, axis=2)
    errors = np.degrees(np.arctan2(np.abs(cross), dot))
    aoe_deg[full] = errors.mean(axis=1)
    maoe_deg[full] = errors.max(axis=1)
    oriented = both.any(axis=1)
    for row in np.flatnonzero(oriented & ~full):
        errors = orientation_errors(pred[row], gt[row])
        aoe_deg[row] = np.mean(errors)
        maoe_deg[row] = np.max(errors)
    return ade_m, made_m, aoe_deg, maoe_deg, oriented


def evaluate(records: list[PredictionRecord]) -> MetricReport:
    """Aggregate per-sample metrics into dataset means, in input order.

    Samples whose orientation error is entirely undefined contribute to
    ADE/MADE only and are counted in n_orientation_excluded. Arrival
    accuracy covers records carrying both a predicted arrival probability
    (thresholded at 0.5) and a label; it is None when no record does.

    Batch path: equals the same means taken over :func:`sample_metrics`.

    Raises:
        EmptyInput: records is empty.
    """
    if not records:
        raise EmptyInput("no prediction records to evaluate")
    n = len(records)
    ade_m = np.empty(n)
    made_m = np.empty(n)
    aoe_deg = np.empty(n)
    maoe_deg = np.empty(n)
    oriented = np.empty(n, dtype=bool)
    by_horizon: dict[int, list[int]] = {}
    for index, r in enumerate(records):
        by_horizon.setdefault(len(r.predicted), []).append(index)
    for k, indices in by_horizon.items():
        rows = max(1, BATCH_CELLS // (k + 1) ** 2)
        for start in range(0, len(indices), rows):
            batch = indices[start : start + rows]
            pred = np.array([records[i].predicted for i in batch], dtype=float)
            gt = np.array([records[i].ground_truth for i in batch], dtype=float)
            (ade_m[batch], made_m[batch], aoe_deg[batch], maoe_deg[batch], oriented[batch]) = _horizon_metrics(
                pred, gt
            )
    arrival_calls = np.array(
        [
            (r.predicted_arrival >= ARRIVAL_THRESHOLD) == r.arrival_label
            for r in records
            if r.predicted_arrival is not None and r.arrival_label is not None
        ],
        dtype=bool,
    )
    n_oriented = int(np.count_nonzero(oriented))
    return MetricReport(
        n_samples=n,
        aoe_deg=float(np.mean(aoe_deg[oriented])) if n_oriented else None,
        maoe_deg=float(np.mean(maoe_deg[oriented])) if n_oriented else None,
        ade_m=float(np.mean(ade_m)),
        made_m=float(np.mean(made_m)),
        arrival_accuracy=float(np.mean(arrival_calls)) if arrival_calls.size else None,
        n_orientation_excluded=n - n_oriented,
        n_arrival_scored=int(arrival_calls.size),
    )
