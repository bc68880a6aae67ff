"""Waypoint-prediction metrics: AOE, MAOE, ADE, MADE and arrival accuracy.

Orientation errors compare per-step motion directions (displacements
between consecutive waypoints, with an implicit origin before the first
one). Steps shorter than 1e-9 m have no direction and are excluded. MADE
is the discrete Frechet distance between the two waypoint polylines with
the origin prepended to both, so the metric covers the full path from
the agent.

Each metric has one implementation, a kernel over (N, k, 2) waypoint
batches: ``_ade_many``, ``_orientation_many`` and ``_frechet_many`` (the
Eiter & Mannila 1994 recurrence, run cell by cell over N). :func:`evaluate`
takes a columnar :class:`~navcurate.io.PredictionTable`, gathers the
records of each horizon k from its flat waypoint columns and runs the
kernels over them; no per-record object is built. It is the one metric API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import EmptyResult, ValidationError
from .io import PredictionTable

__all__ = ["MetricReport", "evaluate"]

# Displacements below this have no meaningful direction.
ZERO_STEP = 1e-9

ARRIVAL_THRESHOLD = 0.5

# Rows per batch are capped so that one batch holds about this many
# Frechet cells ((k + 1)^2 per record), which bounds the temporaries: the
# distance step holds ~5 float64 values per cell, ~2.6 MB per batch. Every
# row's metrics are the same at any batch size.
BATCH_CELLS = 1 << 16


def _ade_many(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-row ADE of (N, k, 2) waypoint batches."""
    return np.linalg.norm(pred - gt, axis=2).mean(axis=1)


def _frechet_many(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-row MADE of (N, n, 2) and (N, m, 2) waypoint batches.

    The origin is prepended to both paths, and the recurrence runs cell by
    cell over all N rows at once; max and min are exact, so each value is
    the one the scalar recurrence gives for its row.
    """
    origin = np.zeros((pred.shape[0], 1, 2))
    p = np.concatenate([origin, pred], axis=1)
    g = np.concatenate([origin, gt], axis=1)
    dist = np.linalg.norm(p[:, :, None, :] - g[:, None, :, :], axis=3)
    _, n, m = dist.shape
    acc = np.empty_like(dist)
    acc[:, 0, 0] = dist[:, 0, 0]
    for i in range(1, n):
        acc[:, i, 0] = np.maximum(acc[:, i - 1, 0], dist[:, i, 0])
    for j in range(1, m):
        acc[:, 0, j] = np.maximum(acc[:, 0, j - 1], dist[:, 0, j])
    for i in range(1, n):
        for j in range(1, m):
            best = np.minimum(np.minimum(acc[:, i - 1, j], acc[:, i, j - 1]), acc[:, i - 1, j - 1])
            acc[:, i, j] = np.maximum(dist[:, i, j], best)
    return acc[:, n - 1, m - 1]


def _orientation_many(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (AOE, MAOE, oriented) of (N, k, 2) waypoint batches.

    A step counts where its displacement is at least ZERO_STEP on both
    sides. Rows where every step counts are reduced in one call. A row
    where only some do is reduced on its own over the counted errors, in
    step order: a masked reduction over the whole row would sum in another
    order. oriented is False, and AOE/MAOE 0, where no step counts.
    """
    disp_p = np.diff(pred, axis=1, prepend=0.0)
    disp_g = np.diff(gt, axis=1, prepend=0.0)
    norm_p = np.linalg.norm(disp_p, axis=2)
    norm_g = np.linalg.norm(disp_g, axis=2)
    both = (norm_p >= ZERO_STEP) & (norm_g >= ZERO_STEP)
    # Uncounted steps divide by 1 rather than by a zero norm; their errors are never read.
    a = disp_p / np.where(both, norm_p, 1.0)[:, :, None]
    b = disp_g / np.where(both, norm_g, 1.0)[:, :, None]
    # atan2 of (|cross|, dot) is exact at 0 and 180 degrees, where arccos
    # of a rounded dot product is not.
    cross = a[:, :, 0] * b[:, :, 1] - a[:, :, 1] * b[:, :, 0]
    dot = np.sum(a * b, axis=2)
    errors = np.degrees(np.arctan2(np.abs(cross), dot))
    full = both.all(axis=1)
    oriented = both.any(axis=1)
    aoe_deg = np.zeros(pred.shape[0])
    maoe_deg = np.zeros(pred.shape[0])
    full_errors = errors[full]
    aoe_deg[full] = full_errors.mean(axis=1)
    maoe_deg[full] = full_errors.max(axis=1)
    for row in np.flatnonzero(oriented & ~full):
        counted = errors[row][both[row]]
        aoe_deg[row] = np.mean(counted)
        maoe_deg[row] = np.max(counted)
    return aoe_deg, maoe_deg, oriented


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

    __post_init__ = schema.check


def evaluate(table: PredictionTable) -> MetricReport:
    """Aggregate per-sample metrics into dataset means, in input order.

    Samples whose orientation error is entirely undefined contribute to
    ADE/MADE only and are counted in n_orientation_excluded. Arrival
    accuracy covers records carrying both a predicted arrival probability
    (thresholded at 0.5) and a label; it is None when no record does.

    The records of each horizon k are gathered from the table's flat
    waypoint columns in batches of at most BATCH_CELLS Frechet cells; only
    the per-record metric arrays are kept, and each mean is one np.mean
    over its whole array.

    Raises:
        EmptyResult: the table holds no records.
        ValidationError: a record's waypoints are so large that one of
            its metrics overflows; the first such record is named.
    """
    n = len(table)
    if not n:
        raise EmptyResult("no prediction records to evaluate")
    ade_m = np.empty(n)
    made_m = np.empty(n)
    aoe_deg = np.empty(n)
    maoe_deg = np.empty(n)
    oriented = np.empty(n, dtype=bool)
    starts = table.offsets[:-1]
    horizons = np.diff(table.offsets)
    # Overflow gives inf or nan, which the check below rejects instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.unique(horizons).tolist():
            indices = np.flatnonzero(horizons == k)
            rows = max(1, BATCH_CELLS // (k + 1) ** 2)
            for start in range(0, len(indices), rows):
                batch = indices[start : start + rows]
                cells = starts[batch, None] + np.arange(k)
                pred = table.predicted[cells]
                gt = table.ground_truth[cells]
                ade_m[batch] = _ade_many(pred, gt)
                made_m[batch] = _frechet_many(pred, gt)
                aoe_deg[batch], maoe_deg[batch], oriented[batch] = _orientation_many(pred, gt)
    finite = np.isfinite(ade_m) & np.isfinite(made_m) & np.isfinite(aoe_deg) & np.isfinite(maoe_deg)
    if not finite.all():
        bad = table.sample_id(int(np.argmin(finite)))
        raise ValidationError(f"prediction {bad!r} has a non-finite ADE, MADE or AOE: its waypoints overflow")
    scored = ~table.predicted_arrival_null & ~table.arrival_label_null
    arrival_calls = (table.predicted_arrival[scored] >= ARRIVAL_THRESHOLD) == table.arrival_label[scored]
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
