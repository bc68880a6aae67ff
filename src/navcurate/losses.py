"""Reference loss kernels with analytic gradients.

Numeric ground truth for any downstream training stack: each kernel
returns (value, gradient with respect to the prediction argument) and is
verified against central finite differences in the test suite.

- waypoint regression: mean squared L2 distance over the horizon.
- orientation: mean negative cosine similarity between per-step motion
  directions, displacements taken against an implicit origin.
- arrival: binary cross-entropy on a logit, computed in the
  overflow-safe form max(z,0) - z*y + log(1 + exp(-|z|)).
- feature hallucination: mean L1 distance between feature vectors over
  the horizon; the subgradient uses sign(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import ValidationError

__all__ = [
    "LossWeights",
    "LossInput",
    "loss_reg",
    "loss_ori",
    "loss_arr",
    "loss_hall",
    "loss_total",
]


@dataclass(frozen=True)
class LossWeights:
    lambda_reg: float = 1.0
    lambda_ori: float = 1.0
    lambda_arr: float = 1.0
    lambda_hall: float = 1.0

    rules = tuple((f"{name} >= 0.0", f"{name} must be non-negative, got {{{name}!r}}")
                  for name in ("lambda_reg", "lambda_ori", "lambda_arr", "lambda_hall"))
    __post_init__ = schema.check


@schema.record
@dataclass(frozen=True)
class LossInput:
    """The ``loss`` command's input document; keys that are not fields are ignored.

    The arrival loss needs both arrival fields, the hallucination loss both
    feature fields; the label's range and the shapes are checked by the
    loss kernels.
    """

    pred_waypoints: tuple[tuple[float, float], ...]
    gt_waypoints: tuple[tuple[float, float], ...]
    arrival_logit: float | None = None
    arrival_label: int | None = None
    pred_features: tuple[tuple[float, ...], ...] | None = None
    gt_features: tuple[tuple[float, ...], ...] | None = None
    weights: LossWeights = LossWeights()

    __post_init__ = schema.check


def _waypoint_pair(pred_waypoints, gt_waypoints) -> tuple[np.ndarray, np.ndarray]:
    """The prediction and ground truth as (k, 2) float arrays of one shape, k >= 1: the one waypoint-pair check."""
    pred, gt = np.asarray(pred_waypoints, dtype=float), np.asarray(gt_waypoints, dtype=float)
    for name, arr in (("pred_waypoints", pred), ("gt_waypoints", gt)):
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValidationError(f"{name} must be a (k, 2) array with k >= 1, got shape {arr.shape}")
    if pred.shape != gt.shape:
        raise ValidationError(f"waypoint shapes differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def loss_reg(pred_waypoints, gt_waypoints):
    """Waypoint regression loss and its gradient w.r.t. the prediction.

    value = (1/k) sum_i ||pred_i - gt_i||^2.
    """
    pred, gt = _waypoint_pair(pred_waypoints, gt_waypoints)
    k = pred.shape[0]
    diff = pred - gt
    return float(np.sum(diff * diff) / k), (2.0 / k) * diff


def loss_ori(pred_waypoints, gt_waypoints, eps: float = 1e-8):
    """Mean negative cosine similarity of per-step motion directions.

    Displacements are taken between consecutive waypoints with an origin
    before the first; each step's norm is clamped below by eps. Returns
    (value in [-1, 1], gradient w.r.t. the prediction waypoints).
    """
    pred, gt = _waypoint_pair(pred_waypoints, gt_waypoints)
    k = pred.shape[0]
    dp = np.diff(np.vstack([np.zeros((1, 2)), pred]), axis=0)
    dg = np.diff(np.vstack([np.zeros((1, 2)), gt]), axis=0)
    a = np.linalg.norm(dp, axis=1)
    b = np.linalg.norm(dg, axis=1)
    a_cl = np.maximum(a, eps)
    b_cl = np.maximum(b, eps)
    dots = np.sum(dp * dg, axis=1)
    cosines = dots / (a_cl * b_cl)
    value = float(-np.sum(cosines) / k)
    # d cos_i / d dp_i; the ||dp|| term vanishes where the clamp binds.
    grad_step = dg / (a_cl * b_cl)[:, None]
    active = a > eps
    grad_step[active] -= (dots[active] / (a_cl[active] ** 3 * b_cl[active]))[:, None] * dp[active]
    grad_step *= -1.0 / k
    # Chain through dp_i = pred_i - pred_{i-1}.
    grad = grad_step.copy()
    grad[:-1] -= grad_step[1:]
    return value, grad


def loss_arr(logit: float, label: int):
    """Binary cross-entropy with logits; gradient is sigmoid(logit) - label."""
    if label not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {label!r}")
    z = float(logit)
    y = float(label)
    value = max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))
    if z >= 0:
        sig = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        sig = e / (1.0 + e)
    return value, sig - y


def loss_hall(pred_features, gt_features):
    """Mean L1 feature distance over the horizon and its subgradient."""
    try:
        pred = np.asarray(pred_features, dtype=float)
        gt = np.asarray(gt_features, dtype=float)
    except ValueError:  # rows of unequal length, or not numbers
        raise ValidationError("features must be (k, d) arrays of numbers") from None
    if pred.ndim != 2 or pred.shape != gt.shape or 0 in pred.shape:
        raise ValidationError(f"feature shapes must match as (k, d) with k, d >= 1, got {pred.shape} vs {gt.shape}")
    k = pred.shape[0]
    diff = pred - gt
    value = float(np.sum(np.abs(diff)) / k)
    return value, np.sign(diff) / k


def loss_total(components, weights: LossWeights = LossWeights()) -> float:
    """Weighted sum of the four loss components, given as (reg, ori, arr, hall)."""
    reg, ori, arr, hall = components
    return (
        weights.lambda_reg * reg
        + weights.lambda_ori * ori
        + weights.lambda_arr * arr
        + weights.lambda_hall * hall
    )
