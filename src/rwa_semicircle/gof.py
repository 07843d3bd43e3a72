"""Kolmogorov-Smirnov statistics and asymptotic critical values."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["ks_coefficient", "ks_critical_one_sample", "ks_statistic"]


def ks_statistic(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS distance sup |F_N - F| against a callable CDF.

    The supremum over a step function is attained at a data point, where the
    empirical CDF takes values i/N (from above) and (i-1)/N (from below).
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("need at least one observation")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))


def ks_coefficient(alpha: float) -> float:
    """c(alpha) = sqrt(-ln(alpha / 2) / 2), the asymptotic KS quantile factor."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


def ks_critical_one_sample(alpha: float, n: int) -> float:
    """Asymptotic rejection threshold c(alpha) / sqrt(n) for one sample."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return ks_coefficient(alpha) / math.sqrt(n)
