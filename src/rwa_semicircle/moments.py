"""Exact moment machinery: identity checker, closed form, and oracle.

Two independent routes to the moments of the randomly weighted average are
kept deliberately separate so they can police each other:

* :func:`rwa_moment_closed` -- the closed form, a factorial expression
  derived from the average itself, checked internally against the power
  semicircle moment :func:`psc_moment` at exponent (n-1)/2.
* :func:`rwa_moment_oracle` -- brute composition sum: expand the power of
  the average multinomially, take expectations factor by factor (flat
  Dirichlet joint moments in factorial form, arcsine moments in central
  binomial form), and add everything up as integer numerators over one
  common denominator.

Both are exact rationals, so "agree" means ``==``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .exactmath import (
    Composition,
    HalfInteger,
    composition_count,
    compositions,
    multinomial,
    rising_gamma_ratio,
)
from .render import rational_json
from .rwa import RwaSpec, SampleBatch

__all__ = [
    "MomentReport",
    "empirical_moment",
    "exact_scale",
    "lemma_lhs",
    "lemma_rhs",
    "moment_report",
    "oracle_term_count",
    "psc_moment",
    "rwa_moment_closed",
    "rwa_moment_oracle",
]


def lemma_lhs(params: Sequence[HalfInteger], r: int) -> Fraction:
    """Composition-sum side of the gamma-ratio identity.

    sum over compositions (i_1, ..., i_n) of r of
    multinomial(r; i) * prod_j Gamma(a_j + i_j)/Gamma(a_j).

    Each rising factorial is kept as the integer 2^i Gamma(a + i)/Gamma(a)
    = 2a (2a + 2) ... (2a + 2i - 2); the exponents of every term add up to
    r, so the whole sum is an integer over 2^r.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    tables = []
    for a in params:
        factors = range(a.twice_value, a.twice_value + 2 * r, 2)
        tables.append(list(itertools.accumulate(factors, operator.mul, initial=1)))
    total = 0
    for comp in compositions(r, len(params)):
        total += multinomial(r, comp) * math.prod(map(list.__getitem__, tables, comp))
    return Fraction(total, 2**r)


def lemma_rhs(params: Sequence[HalfInteger], r: int) -> Fraction:
    """Closed side of the same identity: Gamma(A + r)/Gamma(A), A = sum a_j."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not params:
        raise ValueError("need at least one Dirichlet parameter")
    return rising_gamma_ratio(Fraction(sum(p.twice_value for p in params), 2), r)


def rwa_moment_closed(n: int, k: int) -> Fraction:
    """E S^(2k) for the weighted average of n unit arcsine variables.

    The factorial expression derived from the average is checked against
    the power semicircle moment at exponent (n-1)/2 -- the theorem itself --
    before that moment is returned.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 variables, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    intermediate = Fraction(
        math.factorial(2 * k) * math.factorial(n - 1),
        math.factorial(2 * k + n - 1) * math.factorial(k),
    ) * rising_gamma_ratio(Fraction(n, 2), k)
    law = psc_moment(Fraction(n - 1, 2), k)
    if intermediate != law:
        raise ArithmeticError(
            f"internal moment forms disagree at n={n}, k={k}: "
            f"{intermediate} vs {law}"
        )
    return law


def rwa_moment_oracle(n: int, r: int, *, literal_parity: bool = False) -> Fraction:
    """E S^r by direct expansion over compositions.

    Each composition i of r contributes multinomial(r; i) times the flat
    Dirichlet moment (n-1)! prod i_j! / (r+n-1)! times the arcsine moments
    prod C(i_j, i_j/2) / 2^(i_j).  All terms share the denominator
    (r+n-1)! 2^r, so the walk adds integer numerators and divides once.

    Default mode: odd r returns 0 outright (every term carries an odd
    arcsine moment), and even r = 2k enumerates only the surviving
    compositions, i.e. the doubled compositions of k.

    literal_parity=True instead walks every composition of r and drops a
    term as soon as one of its parts is odd -- much slower, but it verifies
    rather than assumes the odd cancellation.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 variables, got {n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if literal_parity:
        walk = _all_parts_even(compositions(r, n))
    elif r % 2 == 0:
        double = list(range(0, r + 1, 2))
        walk = (tuple(map(double.__getitem__, half)) for half in compositions(r // 2, n))
    else:
        walk = ()
    # i! C(i, i/2) per part: the Dirichlet numerator's factorial times the
    # arcsine numerator's central binomial (odd entries are never read).
    weights = [math.factorial(i) * math.comb(i, i // 2) for i in range(r + 1)]
    total = sum(multinomial(r, comp) * math.prod(map(weights.__getitem__, comp)) for comp in walk)
    # (n-1)! is common to every numerator, so it is applied once.
    return Fraction(math.factorial(n - 1) * total, math.factorial(r + n - 1) * 2**r)


def _all_parts_even(walk: Iterator[Composition]) -> Iterator[Composition]:
    """The compositions of `walk` whose parts are all even, each tested part
    by part and dropped at its first odd part."""
    for comp in walk:
        for part in comp:
            if part & 1:
                break
        else:
            yield comp


def oracle_term_count(n: int, r: int, *, literal_parity: bool = False) -> int:
    """How many compositions the oracle would walk for these arguments."""
    if literal_parity:
        return composition_count(r, n)
    if r % 2 == 1:
        return 0
    return composition_count(r // 2, n)


def psc_moment(lam, k: int) -> Fraction:
    """E X^(2k) of the unit-scale power semicircle with exponent lam.

    lam must be a non-negative half-integer (0, 1/2, 1, 3/2, ...); the
    moment is rising(1/2, k) / rising(lam + 1, k).
    """
    q = Fraction(lam)
    if q < 0:
        raise ValueError(f"exponent must be >= 0, got {lam}")
    if q.denominator not in (1, 2):
        raise ValueError(f"exponent must be a half-integer, got {lam}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return rising_gamma_ratio(Fraction(1, 2), k) / rising_gamma_ratio(q + 1, k)


def empirical_moment(values: np.ndarray, k: int) -> tuple[float, float]:
    """Sample mean of v^(2k) and its standard error."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("need at least one value")
    powers = v ** (2 * k)
    mean = float(powers.mean())
    var = float((powers**2).mean() - mean * mean)
    se = math.sqrt(max(var, 0.0) / v.size)
    return mean, se


def exact_scale(a: float) -> Fraction:
    """The scale as an exact rational, read decimally: 2.5 -> 5/2, 0.1 -> 1/10.

    Used only where exact scaled rationals are reported; samplers of course
    work with the float itself.
    """
    return Fraction(str(a))


@dataclass(frozen=True)
class MomentReport:
    """Everything known about one even moment order at one problem size."""

    n: int
    a: float
    k: int
    closed_form: Fraction
    oracle: Fraction
    empirical: float | None = None
    std_error: float | None = None
    mc_count: int | None = None
    seed: int | None = None

    @property
    def consistent(self) -> bool:
        """Exact agreement of the two symbolic routes."""
        return self.closed_form == self.oracle

    @property
    def z(self) -> float:
        """Distance of the Monte Carlo estimate from exact, in standard errors."""
        if self.empirical is None or self.std_error is None:
            raise ValueError("no Monte Carlo estimate attached to this report")
        gap = abs(self.empirical - float(self.closed_form))
        if self.std_error > 0:
            return gap / self.std_error
        return 0.0 if gap == 0 else math.inf

    def within_band(self, z: float = 4.0) -> bool:
        """Is the Monte Carlo estimate within z standard errors of exact?"""
        return self.z <= z

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "a": self.a,
            "k": self.k,
            "order": 2 * self.k,
            "closed_form": rational_json(self.closed_form),
            "oracle": rational_json(self.oracle),
            "consistent": self.consistent,
        }
        if self.empirical is not None:
            out["empirical"] = self.empirical
            out["std_error"] = self.std_error
            out["mc_count"] = self.mc_count
            out["seed"] = self.seed
        return out


def moment_report(spec: RwaSpec, k: int, batch: SampleBatch | None = None) -> MomentReport:
    """Compute the order-2k moment both exact ways, scaled by a**(2k) with a
    read by :func:`exact_scale`, plus the empirical estimate from `batch`
    (drawn at `spec`) when one is given."""
    scale = exact_scale(spec.a) ** (2 * k)
    closed = rwa_moment_closed(spec.n, k) * scale
    oracle = rwa_moment_oracle(spec.n, 2 * k) * scale
    exact = MomentReport(n=spec.n, a=spec.a, k=k, closed_form=closed, oracle=oracle)
    if batch is None:
        return exact
    if batch.spec != spec:
        raise ValueError(f"batch was drawn at {batch.spec}, not at {spec}")
    mean, se = empirical_moment(batch.values, k)
    return replace(exact, empirical=mean, std_error=se, mc_count=batch.count, seed=batch.seed)
