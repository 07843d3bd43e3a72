"""Randomly weighted averages of arcsine variables vs the power semicircle family.

The average of n i.i.d. arcsine variables under uniform-spacing weights
follows the power semicircle law with exponent (n - 1) / 2.  This package
computes the moments of both sides exactly, checks the combinatorial
identity underneath, and verifies the match by seeded Monte Carlo.
"""

from .distributions import Arcsine, PowerSemicircle, sample_spacings
from .exactmath import HalfInteger, composition_count, rising_gamma_ratio
from .gof import ks_coefficient, ks_critical_one_sample, ks_statistic
from .moments import (
    MomentReport,
    empirical_moment,
    lemma_lhs,
    lemma_rhs,
    moment_rows,
    psc_moment,
    rwa_moment_closed,
    rwa_moment_oracle,
)
from .rwa import RwaSpec, SampleBatch, rwa_batch

__version__ = "0.1.0"

__all__ = [
    "Arcsine",
    "HalfInteger",
    "MomentReport",
    "PowerSemicircle",
    "RwaSpec",
    "SampleBatch",
    "composition_count",
    "empirical_moment",
    "ks_coefficient",
    "ks_critical_one_sample",
    "ks_statistic",
    "lemma_lhs",
    "lemma_rhs",
    "moment_rows",
    "psc_moment",
    "rising_gamma_ratio",
    "rwa_batch",
    "rwa_moment_closed",
    "rwa_moment_oracle",
    "sample_spacings",
]
