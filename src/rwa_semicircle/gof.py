"""Kolmogorov-Smirnov statistics, and critical values whose type I error is
at most alpha at every N: the Dvoretzky-Kiefer-Wolfowitz bound with Massart's
constant (Massart 1990, Ann. Probab. 18(3)).

The one-sample statistic walks the sorted sample in blocks of
`_BLOCK_POINTS` points, so that beyond the sample it holds only a few arrays
of one block (the CDF's work and the block's i/N grid), never arrays the
size of the sample.  It never changes its argument: a sample already in
order, checked block by block, is read as it is, and any other is sorted
into a copy first.  A caller that owns its sample and needs it no more in
draw order (as `run_verification` does) sorts it in place before the call,
and no copy is made.  Each element is computed by the same elementwise
operations as over the whole sample, and a maximum is exact, so the
statistic has the same bits as the one-pass form; the blocks are folded with
`np.maximum`, which keeps a NaN (sorted last) as NaN.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["ks_coefficient", "ks_critical_one_sample", "ks_statistic"]

# Points of the sorted sample that one CDF call or one order check sees.
# At N = 10^6 (n = 3 and 8, 2-vCPU Xeon) blocks of 2^14 to 2^17 points took
# 28-33 ms against 51-56 ms for the whole sample at once.
_BLOCK_POINTS = 1 << 16


def _in_order(x: np.ndarray) -> bool:
    """Is x non-decreasing?  Checked one block (and the first point of the
    next) at a time; a NaN fails every comparison, so a sample holding one
    is not in order."""
    for start in range(0, x.size - 1, _BLOCK_POINTS):
        block = x[start : start + _BLOCK_POINTS + 1]
        if not np.all(block[:-1] <= block[1:]):
            return False
    return True


def ks_statistic(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS distance sup |F_N - F| against a callable CDF.

    The supremum over a step function is attained at a data point, where the
    empirical CDF takes values i/N (from above) and (i-1)/N (from below).
    `values` is left as it is; a sample out of order is sorted into a copy.
    `cdf` is called once per block of the sorted sample, in order.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("need at least one observation")
    if not _in_order(x):
        x = np.sort(x)
    d = -np.inf
    for start in range(0, n, _BLOCK_POINTS):
        stop = min(start + _BLOCK_POINTS, n)
        f = np.asarray(cdf(x[start:stop]), dtype=np.float64)
        grid = np.arange(start + 1, stop + 1, dtype=np.float64) / n
        d = np.maximum(d, np.max(grid - f))
        d = np.maximum(d, np.max(f - (grid - 1.0 / n)))
    return float(d)


def ks_coefficient(alpha: float) -> float:
    """c(alpha) = sqrt(-ln(alpha / 2) / 2), so that 2 exp(-2 c^2) = alpha: the
    Dvoretzky-Kiefer-Wolfowitz-Massart bound on P(sqrt(N) D > c), which holds
    at every N and every continuous F."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if alpha / 2.0 == 0.0:
        # Only the smallest subnormal: its half rounds to 0, which has no log.
        raise ValueError(f"alpha must be at least 1e-323, so that alpha / 2 is a positive float, got {alpha!r}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


def ks_critical_one_sample(alpha: float, n: int) -> float:
    """Rejection threshold c(alpha) / sqrt(n) for one sample: its type I
    error is at most alpha at every n, for every continuous F."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return ks_coefficient(alpha) / math.sqrt(n)
