"""The power semicircle family, plus the spacings that weight the average.

The power semicircle family is the target law that the randomly weighted
average is checked against, and its lam = 0 member, Arcsine(-a, a), is the
input law of the averaged variables.  Both are small frozen dataclasses;
`Arcsine` subclasses `PowerSemicircle` and adds only its cosine sampler,
the one arcsine kernel, which the weighted-average sampler draws from too.
Every exponent is p/2 for an integer p in 0..1000, as (n-1)/2 always is, so
the cdf has one route, the Wallis form.  The pdf and the cdf work in the
unit variable s = x/a, formed in one place, and the pdf handles the endpoint
by the continuous limit where that limit exists.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .render import magnitude

__all__ = ["Arcsine", "PowerSemicircle", "check_exponent", "check_size", "sample_spacings"]


# Largest p = 2*lam that `PowerSemicircle` accepts.  The Wallis form of its
# cdf costs about p/2 Horner passes per point (2p in the far tail), so the
# bound caps that work.
_WALLIS_MAX_P = 1000


def check_size(size) -> None:
    """The one size rule of every sampler, checked before any draw: a NumPy
    `size` (None for one draw, a count, or a shape (count, n, ...)) of
    float64 values must fit in one NumPy array, so that no array the draw
    makes is beyond NumPy's index range.  Each dimension is read as an exact
    int, so a huge one is reported as typed, not as a rounded float."""
    dims = () if size is None else size if np.iterable(size) else (size,)
    shape = [operator.index(dim) for dim in dims]
    count, n = math.prod(shape[:1]), math.prod(shape[1:])
    limit = sys.maxsize  # np.iinfo(np.intp).max: NumPy's intp is the size of ssize_t
    if 8 * count * n > limit:
        raise ValueError(
            f"count={magnitude(count)} draws of n={magnitude(n)} values are "
            f"{magnitude(8 * count * n)} bytes, beyond NumPy's array limit of {limit}"
        )


def check_exponent(twice, lam=None) -> int:
    """The family's one exponent rule: `twice` = 2 lam must be an integer p
    in 0..1000, and p is returned as an int.  `twice` is compared as given,
    with no float conversion, so an exponent beyond the float range meets
    the rule too, and with the int bound, as a Fraction compares with a
    float only through a second Fraction.  The refusal names `lam`, or the
    Fraction twice / 2 when no lam is given, formed only then."""
    if not (0 <= twice <= _WALLIS_MAX_P and twice % 1 == 0):
        lam = Fraction(twice, 2) if lam is None else lam
        raise ValueError(f"exponent must be p/2 for an integer p in 0..{_WALLIS_MAX_P}, got lam={magnitude(lam)}")
    return int(twice)


def _horner(x: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_m coefs[m] x^m, elementwise."""
    acc = np.full_like(x, coefs[-1])
    for coef in coefs[-2::-1]:
        acc *= x
        acc += coef
    return acc


def _wallis_cdf(s: np.ndarray, p: int) -> np.ndarray:
    """CDF at s in [-1, 1] of the unit power semicircle law with 2*lam = p.

    With theta = arcsin s the density is proportional to cos^p theta, so
    F = 1/2 + J_p(theta) / (2 W_p), where J_p(theta) is the integral of cos^p
    over [0, theta] and W_p = J_p(pi/2) is Wallis's integral.  The reduction
    J_p = cos^(p-1) sin / p + (p-1)/p J_(p-2), run down to J_0 = theta or
    J_1 = sin theta, unrolls for u = |s|, c^2 = (1-u)(1+u), r = p mod 2 and
    M = p // 2 into the lower tail G(u) = F(-u):

        G = arccos(u)/pi - u sqrt(c^2) sum_{m<M} b_m c^(2m)    (p even)
        G = (1 - u)/2    - u c^2       sum_{m<M} b_m c^(2m)    (p odd)

    with b_m = 1 / (2 q W_q), q = 2m + 2 + r, so b_0 = 1/pi or 1/4 and
    b_m = b_(m-1) (2m + r) / (2m + r + 1).  The two terms of that difference
    are of order c while G is of order c^(p+1), so in the far tail rounding
    would leave G negative or decreasing.  There the same sum continued past
    m = M is used instead (J_q / W_q -> 1 as q grows): G = u sqrt(c^2) or
    u c^2, times sum_{m>=M} b_m c^(2m), every term positive.  Where
    c^(2M) <= 2^-20 its first 3M terms leave out about c^(6M) <= 2^-60 of G.

    F is G(|s|) for s <= 0 and 1 - G(|s|) for s > 0, so F(-x) + F(x) = 1 to
    one rounding, F(0) = 1/2 and F(-1) = 0, F(1) = 1 exactly.
    """
    r = p % 2
    m_head = p // 2
    u = np.abs(s)
    c2 = (1.0 - u) * (1.0 + u)
    if r:
        g = 0.5 * (1.0 - u)
        factor = c2
    else:
        g = np.arccos(u) / math.pi
        factor = np.sqrt(c2)
    if m_head:
        j = np.arange(1.0, 4 * m_head)
        b = np.cumprod(np.concatenate(([0.25 if r else 1.0 / math.pi], (2 * j + r) / (2 * j + r + 1))))
        head = _horner(c2, b[:m_head])
        head *= u
        head *= factor
        g -= head
        tail = c2 <= 2.0 ** (-20 / m_head)
        if tail.any():
            ct = c2[tail]
            g[tail] = u[tail] * factor[tail] * ct**m_head * _horner(ct, b[m_head:])
    np.subtract(1.0, g, out=g, where=s > 0)
    return g


@dataclass(frozen=True)
class PowerSemicircle:
    """Power semicircle law on (-a, a), exponent lam = p/2, p an integer in 0..1000.

    Density f(x) = f_1(x/a) / a, where f_1(s) = C_lam ((1 - s)(1 + s))^(lam - 1/2)
    is the unit law's and C_lam = Gamma(lam + 1) / (sqrt(pi) Gamma(lam + 1/2)).
    lam = 0 is the arcsine law, lam = 1/2 the uniform, lam = 1 the classical
    semicircle.  The pdf and the cdf see the scale only through s = x/a, so
    no power of a is ever formed, and any finite a from the smallest normal
    float up is in range: below it a draw keeps only a few significant bits.
    """

    lam: float
    a: float = 1.0

    def __post_init__(self) -> None:
        check_exponent(2 * self.lam, self.lam)
        # The scale is checked as the float every sampler and density uses,
        # so an int beyond the float range fails here, not at the first draw;
        # it is compared as given first, so a non-number still raises TypeError.
        try:
            scale_ok = 0 < self.a and sys.float_info.min <= float(self.a) < math.inf
        except OverflowError:
            scale_ok = False
        if not scale_ok:
            raise ValueError(f"scale must be positive and finite, at least the smallest normal float {sys.float_info.min!r}, got a={magnitude(self.a)}")

    @property
    def _log_norm(self) -> float:
        """log C_lam, the log of the unit density's prefactor."""
        return math.lgamma(self.lam + 1.0) - math.lgamma(self.lam + 0.5) - 0.5 * math.log(math.pi)

    def _unit(self, x) -> np.ndarray:
        """The unit variable x/a, after checking that x lies in [-a, a]."""
        xs = np.asarray(x, dtype=np.float64)
        if xs.size and np.max(np.abs(xs)) > self.a:
            raise ValueError(f"support is [-a, a] with a = {self.a}")
        return xs / self.a

    def pdf(self, x):
        s = self._unit(x)
        if self.lam == 0 and np.any(np.abs(s) == 1.0):
            raise ValueError("density is unbounded at |x| = a when lam = 0")
        # At |s| = 1 the base is 0, and 0.0**0.0 == 1, 0.0**p == 0 give the
        # continuous limit for lam >= 1/2.  np.power, not **, so a scalar x
        # takes the same ufunc loop as an array and gets the same bits.  An
        # overflow raises the error below, under any caller's error state.
        with np.errstate(over="ignore"):
            out = math.exp(self._log_norm) * np.power((1.0 - s) * (1.0 + s), self.lam - 0.5) / self.a
        if not np.all(np.isfinite(out)):
            raise ArithmeticError(f"density overflows at scale a={self.a:g}")
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        """CDF, computed from the unit variable s = x/a.

        The law is specified directly by the Wallis form of `_wallis_cdf` at
        p = 2*lam: no iteration, nothing that can fail to converge.

        Tail accuracy: the lower tail is 1/2 minus a sum of larger terms, so
        its relative error grows with lam, to 2.7e-10 at lam = 63/2 (F = 5.3e-8
        at x = -0.5994a); `TestExactRationalCdf` bounds it against exact F.
        """
        out = _wallis_cdf(np.atleast_1d(self._unit(x)), int(2 * self.lam))
        return float(out[0]) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        """Draw through the Beta(lam+1/2, lam+1/2) representation, itself
        built from two gamma draws so only the generator's gamma stream is
        consumed."""
        check_size(size)
        s = self.lam + 0.5
        g1 = rng.standard_gamma(s, size)
        g2 = rng.standard_gamma(s, size)
        b = g1 / (g1 + g2)
        return self.a * (2.0 * b - 1.0)


@dataclass(frozen=True)
class Arcsine(PowerSemicircle):
    """Arcsine law on (-a, a), the lam = 0 member: density 1 / (pi sqrt(a^2 - x^2)).

    It inherits pdf and cdf and keeps only its own sampler.
    """

    lam: float = field(default=0.0, init=False)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw via x = a cos(pi U), in place on the one array of uniforms.

        Scaling acts on the draw itself, so samples at scale a are exactly a
        times the unit-scale samples from the same generator state; the
        weighted-average sampler draws its inputs here at unit scale.
        size=None gives one np.float64."""
        check_size(size)
        x = np.asarray(rng.random(size))
        x *= math.pi
        np.cos(x, out=x)
        if self.a != 1.0:
            x *= self.a
        return x if x.ndim else x[()]


def _merge_exchange(m: int) -> tuple[tuple[int, int], ...]:
    """The comparators (i, j), i < j, of Batcher's odd-even merge network on
    m inputs, in an order that sorts: Batcher's merge exchange (Knuth, TAOCP
    vol. 3, 5.2.2, Algorithm M), which is the network for the next power of
    two with every comparator that reaches past m dropped."""
    pairs = []
    t = (m - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while d:
            pairs += [(i, i + d) for i in range(m - d) if i & p == r]
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


# Rows of up to _NETWORK_MAX uniforms are sorted by a comparator network run
# a whole column at a time; wider rows by NumPy's row sort.  In chunks of the
# draw's 2^17 values the network was the faster through 10 values a row
# (n = 11), both for the spacings alone and for the whole draw of the
# average; at 11 values the spacings alone were 1-2% slower with it, as its
# 37 comparators outgrow the row sort's per-row cost.
_NETWORK_MAX = 10
_NETWORKS = tuple(_merge_exchange(m) for m in range(_NETWORK_MAX + 1))


def sample_spacings(n: int, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw the n spacings of n-1 ordered uniforms on (0, 1), n >= 2.

    The rows are flat Dirichlet vectors of length n (each weight vector sums
    to one), built by the definition: sort n-1 uniforms, pad with 0 and 1,
    take consecutive differences.  Up to n = 11 the rows are sorted by
    Batcher's odd-even merge network, each comparator an `np.minimum` and an
    `np.maximum` of two whole columns, which spares the row sort's per-row
    call; above the crossover the row sort runs.  The columns are copied
    once to contiguous memory first, except at n = 3, whose one comparator
    costs less than the copy.  The differences are written straight into the
    result instead of into a padded copy.  The output has the same bytes as
    the definition taken literally on the same uniforms, a full row sort and
    then `np.diff` of the padded rows: a network outputs the sorted row, and
    the min or max of two uniforms (no NaN, no -0.0) is one of them, bits
    and all.

    Returns shape (n,) for size=None, else (size, n).  `size` is read with
    `operator.index`, as `check_size` reads a dimension, before any draw.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 spacings, got {magnitude(n)}")
    count = operator.index(1 if size is None else size)
    check_size((count, n))

    u = rng.random((count, n - 1))
    # The differences of the row (0, u, 1), by the float operations np.diff
    # would do on it.
    if n - 1 <= _NETWORK_MAX:
        columns = list(u.T.copy() if n > 3 else u.T)
        del u
        # Each comparator writes the min to the spare column and the max over
        # column j; column i's old buffer becomes the spare.
        spare = np.empty(count)
        for i, j in _NETWORKS[n - 1]:
            np.minimum(columns[i], columns[j], out=spare)
            np.maximum(columns[i], columns[j], out=columns[j])
            columns[i], spare = spare, columns[i]
        out = np.empty((count, n))
        out[:, 0] = columns[0]
        for k in range(1, n - 1):
            np.subtract(columns[k], columns[k - 1], out=out[:, k])
        np.subtract(1.0, columns[-1], out=out[:, -1])
    else:
        u.sort(axis=1)
        out = np.empty((count, n))
        out[:, 0] = u[:, 0]
        np.subtract(u[:, 1:], u[:, :-1], out=out[:, 1:-1])
        np.subtract(1.0, u[:, -1], out=out[:, -1])

    if size is None:
        return out[0]
    return out
