"""Distribution-comparison metrics: empirical 1-Wasserstein distance, its
reference-normalized variant, and standard point diagnostics.

W1 between two empirical distributions is the integral over u in (0, 1] of
|F^-1(u) - G^-1(u)| for the right-continuous empirical quantile functions.
Both quantile functions are step functions, so the integral is a finite sum
over the merged breakpoint grid and is computed exactly — no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample vector standing in for a distribution."""

    samples: np.ndarray

    def __post_init__(self):
        x = np.sort(np.asarray(self.samples, dtype=float).ravel())
        if x.size == 0:
            raise ShapeError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples contain NaN or Inf")
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)

    @property
    def n(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def std(self) -> float:
        """Population standard deviation."""
        return float(np.std(self.samples))


def wasserstein1(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Exact W1 between two empirical distributions.

    On the merged quantile breakpoints, in integer units of 1/(n*k), the
    segment ending at ``end`` pairs sample (end-1)//k of p with sample
    (end-1)//n of q.
    """
    x, y = p.samples, q.samples
    n, k = x.size, y.size
    ends = np.union1d(np.arange(1, n + 1) * k, np.arange(1, k + 1) * n)
    widths = np.diff(ends, prepend=0)
    return float(math.fsum(widths * np.abs(x[(ends - 1) // k] - y[(ends - 1) // n]))
                 / (n * k))


def normalized_wasserstein(p_reference: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """W1 divided by the reference's population std. Not symmetric."""
    if p_reference.n < 2:
        raise ShapeError("reference needs at least 2 samples for a standard deviation")
    std = p_reference.std()
    if std <= 0.0:
        raise ValueError("reference distribution has zero standard deviation")
    return wasserstein1(p_reference, q) / std


@dataclass(frozen=True)
class PointMetrics:
    rmse: float
    mae: float
    r2: float | None  # None when the truth has zero variance

    def to_dict(self) -> dict:
        return {"rmse": self.rmse, "mae": self.mae, "r2": self.r2}


def point_metrics(truth, pred) -> PointMetrics:
    truth = np.asarray(truth, dtype=float).ravel()
    pred = np.asarray(pred, dtype=float).ravel()
    if truth.size != pred.size:
        raise ShapeError(f"truth has {truth.size} entries, pred has {pred.size}")
    if truth.size < 2:
        raise ShapeError("point metrics need at least 2 entries")
    err = pred - truth
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    ss_res = float(np.sum(err**2))
    ss_tot = float(np.sum((truth - np.mean(truth)) ** 2))
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PointMetrics(rmse, mae, r2)
