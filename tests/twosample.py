"""Two-sample Kolmogorov-Smirnov helpers for the tests that compare samplers
with each other."""

from __future__ import annotations

import math

import numpy as np

from rwa_semicircle.gof import ks_coefficient


def ks_statistic_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample KS distance sup |F_X - F_Y| between empirical CDFs."""
    xs = np.sort(np.asarray(x, dtype=np.float64))
    ys = np.sort(np.asarray(y, dtype=np.float64))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    support = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, support, side="right") / xs.size
    fy = np.searchsorted(ys, support, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


def ks_critical_two_sample(alpha: float, n: int, m: int) -> float:
    """Asymptotic threshold c(alpha) sqrt((n + m) / (n m)) for two samples."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    return ks_coefficient(alpha) * math.sqrt((n + m) / (n * m))
