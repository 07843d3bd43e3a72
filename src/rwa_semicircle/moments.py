"""Exact moment machinery: identity checker, closed form, and oracle.

E S^(2k) is the flat Dirichlet mixing constant (2k)! (n-1)! / ((2k+n-1)! k!)
times either side of the composition/gamma-ratio lemma at n parameters 1/2
and r = k.  The two exact routes are those two sides:
:func:`rwa_moment_oracle` the composition sum :func:`lemma_lhs`, and
:func:`rwa_moment_closed` the gamma ratio :func:`lemma_rhs`, checked against
the power semicircle moment :func:`psc_moment` at exponent (n-1)/2.  They
share only the mixing constant, and a fault there fails that check; a fault
in the composition kernel makes the routes disagree (a ``NO`` row in
`rwa moment`, a failed identity in `rwa lemma-check`).

Every single exact value is one integer numerator over one integer
denominator, products of integer progressions, factorials and the
composition sum, and becomes one Fraction when it is returned; the closed
route compares its two forms by cross-multiplying those integers.  A
table's factors are running products instead.  The composition sum is formed
without a walk: its terms, products of one integer per part, are grouped by
degree, so the sum is the degree-r coefficient of a product of integer
series cut at degree r.  Every term is still multiplied out, and nothing
uses the closed side's (1-t)^(-sum a_j).  The identity table
:func:`lemma_rows` forms that product once, cut at r_max, and reads each row
off it; :func:`moment_rows` reads that table at n parameters 1/2 and
multiplies each row by the mixing constant, checked against the law.
:func:`table_product_count` counts the series' integer products.  Every
public route reads each argument once, its degree through one rule,
:func:`check_degree`, and the private helpers take degrees already read.

Both are exact rationals, so "agree" means ``==``.  :func:`moment_rows` sets
them beside one :func:`empirical_moment` pass over a batch.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .distributions import PowerSemicircle
from .exactmath import HalfInteger, composition_count, rising_parts
from .render import magnitude, rational_json, rational_str
from .rwa import RwaSpec, SampleBatch

__all__ = [
    "BAND_Z",
    "MomentReport",
    "check_degree",
    "empirical_moment",
    "exact_scale",
    "lemma_lhs",
    "lemma_rhs",
    "lemma_rows",
    "moment_rows",
    "oracle_term_count",
    "psc_moment",
    "rwa_moment_closed",
    "rwa_moment_oracle",
    "table_product_count",
]


def lemma_lhs(params: Sequence[HalfInteger], r: int) -> Fraction:
    """Composition-sum side of the gamma-ratio identity.

    sum over compositions (i_1, ..., i_n) of r of
    multinomial(r; i) * prod_j Gamma(a_j + i_j)/Gamma(a_j)
    = r! prod_j C(a_j + i_j - 1, i_j).  Each binomial is kept as the integer
    T_a[i] = 4^i C(a + i - 1, i), C(2i, i) at a = 1/2, so the sum is r! times
    an integer over 4^r.  T[i] = T[i-1] 2 (2a + 2i - 2) / i divides exactly:
    at half-integer a, i consecutive odd factors hold the odd part of i! and
    v_2(i!) < i; at integer a, T_a[i] is 4^i times a binomial.  The integer
    sum of prod_j T_(a_j)[i_j] is the degree-r coefficient of prod_j
    (sum_i T_(a_j)[i] t^i), which :func:`_series_coefficient` forms with one
    table per distinct parameter (:func:`_lemma_factors`).
    """
    if not params:
        raise ValueError("need at least one part, got n=0")
    r = check_degree(r)
    return Fraction(_series_coefficient(_lemma_factors(params, r), r) * math.factorial(r), 4**r)


def lemma_rows(params: Sequence[HalfInteger], r_max: int) -> tuple[tuple[int, Fraction, Fraction], ...]:
    """The identity table r = 0..r_max: (r, :func:`lemma_lhs`, :func:`lemma_rhs`),
    every composition side r!/4^r times a coefficient of one product cut at
    degree r_max.  r!/4^r and the closed side (A)_r, A = sum a_j, are running
    products of Fractions, so each step reduces by a gcd with one small factor."""
    if not params:
        raise ValueError("need at least one part, got n=0")
    r_max = check_degree(r_max)
    twice = sum(p.twice_value for p in params)
    rows, ratio, rising = [], Fraction(1), Fraction(1)
    for r, total in enumerate(_series_coefficient(_lemma_factors(params, r_max), r_max, whole=True)):
        rows.append((r, ratio * total, rising))
        ratio *= Fraction(r + 1, 4)
        rising *= Fraction(twice + 2 * r, 2)
    return tuple(rows)


def check_degree(value: int, name: str = "r", *, order: bool = False) -> int:
    """The exact layer's one degree rule: `value` (called `name`) read as an
    exact int, as `check_size` reads a dimension, and returned if >= 0 and
    its series fits `check_size`'s limit: at a >= 1/2, T_a[i] >= C(2i, i) >=
    4^i / (2 sqrt(i)) takes about 2i bits, so a series of degree r holds at
    least about r^2/8 bytes.  With `order`, value is a moment order of degree value // 2."""
    value = index(value)  # by name, not through `operator`, whose `mul` calls a test may count
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {magnitude(value)}")
    degree = value // 2 if order else value
    if degree * degree // 8 > sys.maxsize:
        raise ValueError(
            f"a series of degree {magnitude(degree)} holds at least {magnitude(degree * degree // 8)} bytes, "
            f"beyond NumPy's array limit of {sys.maxsize}"
        )
    return value


def _lemma_factors(params: Sequence[HalfInteger], r: int) -> list[tuple[list[int], int]]:
    """(T_a cut at degree r, how often a occurs) for each distinct a in params."""
    return [(_binomial_table(a.twice_value, r), count) for a, count in Counter(params).items()]


def _binomial_table(twice: int, r: int) -> list[int]:
    """T_a[i] = 4^i C(a + i - 1, i) for i = 0..r, at a = twice / 2."""
    table = [1]
    for i in range(1, r + 1):
        table.append(table[-1] * 2 * (twice + 2 * i - 2) // i)
    return table


def _series_coefficient(factors: Iterable[tuple[list[int], int]], r: int, *, whole: bool = False):
    """The degree-r coefficient of prod (sum_i table[i] t^i)^count over the
    (table, count) pairs in `factors`, each table of degree r: the sum, over
    every composition i of r into the factors' parts, of prod table[i_j].
    With `whole`, the list of every coefficient of degree 0..r instead.

    Each count is taken by repeated squaring down to a count of at most 3,
    whose copies of the power join one list of series with the other bits'
    powers.  Every product but the last is formed to degree r, (r+1)(r+2)/2
    integer products each; the last forms only degree r, r+1 products,
    unless `whole` asks for every degree (:func:`table_product_count`).
    """
    series = []
    for table, count in factors:
        power = table
        while count > 3:
            if count & 1:
                series.append(power)
            power = _truncated_product(power, power, r)
            count >>= 1
        series += [power] * count
    product = series[0]
    for other in series[1:] if whole else series[1:-1]:
        product = _truncated_product(product, other, r)
    if whole:
        return product
    if len(series) == 1:
        return product[r]
    return sum(map(operator.mul, product, reversed(series[-1])))


def table_product_count(params: Sequence[HalfInteger], degree: int) -> int:
    """The integer products :func:`_series_coefficient` forms for a table of
    `params` cut at `degree`, read by :func:`check_degree`: a parameter that
    occurs c times is squared bit_length(c) - 2 times (never below 0) and leaves
    popcount(c) + 1 series (1 at c = 1), s series in all take s - 1 products,
    and each squaring and product takes C(degree + 2, 2) integer products."""
    if not params:
        raise ValueError("need at least one part, got n=0")
    degree = check_degree(degree, "degree")
    counts = Counter(params).values()
    squarings = sum(max(c.bit_length() - 2, 0) for c in counts)
    series = sum(c.bit_count() + (c > 1) for c in counts)
    return (squarings + series - 1) * math.comb(degree + 2, 2)


def _truncated_product(left: list[int], right: list[int], r: int) -> list[int]:
    """The product of two series of degree r, cut at degree r."""
    flipped = right[::-1]
    return [sum(map(operator.mul, left, flipped[r - d :])) for d in range(r + 1)]


def lemma_rhs(params: Sequence[HalfInteger], r: int) -> Fraction:
    """Closed side of the same identity: Gamma(A + r)/Gamma(A), A = sum a_j,
    one Fraction of :func:`~rwa_semicircle.exactmath.rising_parts`."""
    if not params:
        raise ValueError("need at least one part, got n=0")
    r = check_degree(r)
    return Fraction(*rising_parts(sum(p.twice_value for p in params), 2, r))


def _mixing(n: int, k: int) -> tuple[int, int]:
    """(2k)! (n-1)! / ((2k+n-1)! k!) as integer parts, not reduced:
    (k+1) (k+2) ... (2k) over n (n+1) ... (2k+n-1).  It turns either side of
    the lemma at n parameters 1/2 and r = k into E S^(2k): the lemma's term
    at h is k! times the arcsine moments prod_j C(2h_j, h_j) / 4^(h_j), and
    multinomial times flat Dirichlet moment is (2k)! (n-1)! / (2k+n-1)! at
    every 2h."""
    return math.prod(range(k + 1, 2 * k + 1)), math.prod(range(n, 2 * k + n))


def _psc_parts(twice_lam: int, k: int) -> tuple[int, int]:
    """E X^(2k) of the unit power semicircle with exponent twice_lam / 2 as
    integer parts: (1/2)_k / (lam + 1)_k, whose two rising factorials are each
    over 2^k, so 1 3 ... (2k-1) over (2 lam + 2) (2 lam + 4) ... (2 lam + 2k)."""
    return rising_parts(1, 2, k)[0], rising_parts(twice_lam + 2, 2, k)[0]


def _checked_law(n: int, k: int, mixed: tuple[int, int], law: Fraction) -> Fraction:
    """`law`, the law's moment, once the mixing constant times the lemma's
    closed side, `mixed` as (numerator, denominator), cross-multiplies equal
    to it; ArithmeticError otherwise."""
    if mixed[0] * law.denominator != law.numerator * mixed[1]:
        raise ArithmeticError(
            f"internal moment forms disagree at n={n}, k={k}: "
            f"{rational_str(Fraction(*mixed))} vs {rational_str(law)}"
        )
    return law


def rwa_moment_closed(n: int, k: int) -> Fraction:
    """E S^(2k) for the weighted average of n unit arcsine variables.

    The law is asked first: :meth:`RwaSpec.target_law` -- the theorem
    itself -- checks the exponent (n-1)/2 before any product.  The mixing
    constant times the lemma's closed side at n parameters 1/2,
    Gamma(n/2 + k)/Gamma(n/2), must then equal the law's moment
    (:func:`psc_moment`), compared by cross-multiplying their integer parts.
    """
    RwaSpec(n).target_law()
    k = check_degree(k, "k")
    (mix_num, mix_den), (rhs_num, rhs_den) = _mixing(n, k), rising_parts(n, 2, k)
    return _checked_law(n, k, (mix_num * rhs_num, mix_den * rhs_den), Fraction(*_psc_parts(n - 1, k)))


def rwa_moment_oracle(n: int, r: int, *, literal_parity: bool = False) -> Fraction:
    """E S^r by direct expansion over compositions.

    Each composition i of r contributes multinomial(r; i) times the flat
    Dirichlet moment (n-1)! prod i_j! / (r+n-1)! times the arcsine moments
    prod C(i_j, i_j/2) / 2^(i_j), zero at an odd part.  The first two factors
    cancel to r! (n-1)! / (r+n-1)!, the same for every composition.  The law
    is asked first, as :func:`rwa_moment_closed` asks it, so the two routes
    serve the same n.

    Default mode: odd r returns 0 outright, and even r = 2k is the mixing
    constant times :func:`lemma_lhs` at n parameters 1/2 and r = k, the sum
    over the compositions h of k, the halves of the surviving terms, the
    constant's integers applied to the sum's before one Fraction is formed.

    literal_parity=True instead sums over every composition of r, with an
    explicit 0 for C(i, i/2) at an odd part i, so that every term with an
    odd part is still multiplied out: it verifies rather than assumes the
    odd cancellation.  The sum is the degree-r coefficient of the n-th power
    of that series, from :func:`_series_coefficient`:

        E S^r = r! (n-1)! / ((r+n-1)! 2^r) * sum_i prod_j C(i_j, i_j/2).
    """
    RwaSpec(n).target_law()
    r = check_degree(r, order=True)
    if not literal_parity:
        if r % 2:
            return Fraction(0)
        k = r // 2
        mix_num, mix_den = _mixing(n, k)
        total = _series_coefficient([(_binomial_table(1, k), n)], k)
        return Fraction(mix_num * math.factorial(k) * total, mix_den * 4**k)
    # C(i, i/2) >= 2^i / sqrt(2i) takes about i bits at each even i <= r: r^2/32 bytes in all.
    central = [0 if i % 2 else math.comb(i, i // 2) for i in range(r + 1)]
    total = _series_coefficient([(central, n)], r)
    return Fraction(math.factorial(r) * math.factorial(n - 1) * total, math.factorial(r + n - 1) * 2**r)


def oracle_term_count(n: int, r: int, *, literal_parity: bool = False) -> int:
    """How many compositions the oracle's sum ranges over for these arguments."""
    if literal_parity:
        return composition_count(r, n)
    if r % 2 == 1:
        return 0
    return composition_count(r // 2, n)


def psc_moment(lam, k: int) -> Fraction:
    """E X^(2k) of the unit-scale power semicircle with exponent lam.

    lam must be p/2 for an integer p in 0..1000, the rule `PowerSemicircle`
    checks on lam as given; the moment is rising(1/2, k) / rising(lam + 1, k).
    """
    PowerSemicircle(lam=lam)
    k = check_degree(k, "k")
    return Fraction(*_psc_parts(int(2 * Fraction(lam)), k))


# Values per leaf of the moment stage's sum tree: each leaf makes its own
# scaled values, square and power, two arrays of at most this many values.
_LEAF_VALUES = 1 << 16


def _tree_sums(values: np.ndarray, a: float, orders: int) -> np.ndarray:
    """Sums of (v / a)^(2j) for j = 1..orders (index j; index 0 is 0), over
    the values cut the way NumPy's pairwise sum cuts them: n values split at
    n2 = n//2 - (n//2 mod 8), down to leaves of at most `_LEAF_VALUES`.  Each
    leaf is summed by `np.add.reduce` and the halves' sums are added back up
    the same tree, so each total has the bits of `np.add.reduce` over the
    whole array of that order's powers, which is never made."""
    if values.size > _LEAF_VALUES:
        half = values.size // 2
        half -= half % 8
        return _tree_sums(values[:half], a, orders) + _tree_sums(values[half:], a, orders)
    square = values / a
    square *= square
    power, sums = np.ones_like(square), np.zeros(orders + 1)
    for j in range(1, orders + 1):
        power *= square
        sums[j] = np.add.reduce(power)
    return sums


def empirical_moment(values: np.ndarray, k_max: int, a: float = 1.0) -> tuple[tuple[float, float], ...]:
    """Sample mean of (v / a)^(2k) and its standard error, for k = 0..k_max,
    from one read of the batch: per leaf of :func:`_tree_sums`, the square of
    v / a is formed once and multiplied forward to each order 2j, j <= 2*k_max,
    so that beyond the batch only arrays of one leaf are held.  Each mean is
    the total over the count, as `ndarray.mean` computes it, with the same
    bits as that mean over the whole array of powers.  Row k's standard error
    comes from the means of orders 2k and 4k; row 0 is exactly (1.0, 0.0)."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("need at least one value")
    means = [1.0]
    if k_max > 0:
        means.extend(float(total / v.size) for total in _tree_sums(v, a, 2 * k_max)[1:])
    return tuple((m, math.sqrt(max(means[2 * k] - m * m, 0.0) / v.size)) for k, m in enumerate(means[: k_max + 1]))


def exact_scale(a: float) -> Fraction:
    """The scale as an exact rational, read decimally: 2.5 -> 5/2, 0.1 -> 1/10.

    Used only where exact scaled rationals are reported; samplers of course
    work with the float itself.
    """
    return Fraction(str(a))


BAND_Z = 4.0  # a Monte Carlo moment passes within this many standard errors


@dataclass(frozen=True)
class MomentReport:
    """Everything known about one even moment order at one problem size."""

    n: int
    a: float
    k: int
    closed_form: Fraction
    oracle: Fraction
    # The scaled Monte Carlo estimate; None also where it does not fit in a float.
    empirical: float | None = None
    std_error: float | None = None
    mc_count: int | None = None
    seed: int | None = None
    # Distance of the Monte Carlo estimate from exact, in standard errors.
    z: float | None = None

    @property
    def consistent(self) -> bool:
        """Exact agreement of the two symbolic routes."""
        return self.closed_form == self.oracle

    def within_band(self) -> bool:
        """Is the Monte Carlo estimate within BAND_Z standard errors of exact?"""
        if self.z is None:
            raise ValueError("no Monte Carlo estimate attached to this report")
        return self.z <= BAND_Z

    def passes(self) -> bool:
        """Do both exact routes agree, and is the estimate within the band?"""
        return self.consistent and self.within_band()

    def to_json_dict(self) -> dict:
        closed_form = rational_json(self.closed_form)
        out = {
            "n": self.n,
            "a": self.a,
            "k": self.k,
            "order": 2 * self.k,
            "closed_form": closed_form,
            "oracle": closed_form if self.consistent else rational_json(self.oracle),
            "consistent": self.consistent,
        }
        if self.mc_count is not None:
            out.update(empirical=self.empirical, std_error=self.std_error, mc_count=self.mc_count, seed=self.seed)
        return out


def _as_float(value: Fraction) -> float | None:
    """`value` rounded to a float, or None where it does not fit: beyond the
    float range, or nonzero and rounded to 0.0."""
    try:
        rounded = float(value)
    except OverflowError:
        return None
    return rounded if rounded or not value else None


def moment_rows(spec: RwaSpec, k_max: int, batch: SampleBatch | None = None) -> tuple[MomentReport, ...]:
    """The moment table k = 0..k_max: both exact routes, read off the rows of
    :func:`lemma_rows` at n parameters 1/2, times the exact a^(2k) of
    :func:`exact_scale`, plus one :func:`empirical_moment` pass over `batch`
    (drawn at `spec`) in the unit variable values / a, if a batch is given.  z
    is taken against the unit moment, so a cannot move it; mean and standard
    error are the unit ones times a^(2k), rounded once, and each is None
    where that does not fit in a float.  Where a lemma row's sides agree, its
    oracle is the closed value's own Fraction."""
    k_max = check_degree(k_max, "k_max")
    if batch is not None and batch.spec != spec:
        raise ValueError(f"batch was drawn at {batch.spec}, not at {spec}")
    spec.target_law()  # before the oracle's series of n parts is built
    n, square = spec.n, exact_scale(spec.a) ** 2
    identity = lemma_rows((HalfInteger(1),) * n, k_max)
    estimates = empirical_moment(batch.values, k_max, spec.a) if batch is not None else ()
    # Running products: the mixing constant's integer parts (2k)!/k! over
    # (2k+n-1)!/(n-1)!, and the Fractions of the law (1/2)_k / ((n+1)/2)_k,
    # times (2k+1)/(n+2k+1) per row, and of a^(2k).  As the mixing constant
    # and a^(2k) are positive, the oracle is the checked closed value iff lhs == rhs.
    mix_num = mix_den = 1
    law = scale = Fraction(1)
    rows = []
    for k, lhs, rhs in identity:
        closed = _checked_law(n, k, (mix_num * rhs.numerator, mix_den * rhs.denominator), law) * scale
        oracle = closed if lhs == rhs else Fraction(mix_num, mix_den) * lhs * scale
        monte_carlo = {}
        if batch is not None:
            mean, se = estimates[k]
            gap = abs(mean - float(law))
            z = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
            empirical, std_error = (_as_float(Fraction(x) * scale) for x in (mean, se))
            monte_carlo = dict(empirical=empirical, std_error=std_error, mc_count=batch.values.size, seed=batch.seed, z=z)
        rows.append(MomentReport(n, spec.a, k, closed_form=closed, oracle=oracle, **monte_carlo))
        odd = 2 * k + 1
        mix_num *= 2 * odd
        mix_den *= (n + odd - 1) * (n + odd)
        law *= Fraction(odd, n + odd)
        scale *= square
    return tuple(rows)
