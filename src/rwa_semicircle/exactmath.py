"""Exact combinatorial and gamma-ratio arithmetic over the rationals.

Everything in this module is computed with :class:`fractions.Fraction` (or
plain integers), so results are exact and hashable.  Floating point never
enters: ratios of gamma functions at half-integer arguments reduce to finite
products, which is what :func:`rising_gamma_ratio` exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "Composition",
    "HalfInteger",
    "composition_count",
    "compositions",
    "multinomial",
    "rising_gamma_ratio",
]

# A composition of r into n parts: an ordered tuple of n non-negative ints
# summing to r.
Composition = tuple[int, ...]


@dataclass(frozen=True, order=True)
class HalfInteger:
    """A positive half-integer q >= 1/2, stored as 2q to stay in the integers.

    These are the only gamma arguments the moment formulas ever need, and
    keeping them integral makes every downstream product exact.
    """

    twice_value: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_value, int):
            raise TypeError(f"twice_value must be an int, got {type(self.twice_value).__name__}")
        if self.twice_value < 1:
            raise ValueError(f"half-integer must be >= 1/2, got {self.twice_value}/2")

    @classmethod
    def from_value(cls, value) -> "HalfInteger":
        """Build from a number equal to k/2 for some integer k >= 1."""
        q = Fraction(value)
        doubled = q * 2
        if doubled.denominator != 1:
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(doubled))

    @classmethod
    def parse(cls, text: str) -> "HalfInteger":
        """Parse '1/2', '2', or '2.5' style strings."""
        try:
            q = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {text!r} as a half-integer") from exc
        return cls.from_value(q)

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    def __add__(self, other) -> "HalfInteger":
        if isinstance(other, HalfInteger):
            return HalfInteger(self.twice_value + other.twice_value)
        if isinstance(other, int):
            return HalfInteger(self.twice_value + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __str__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def rising_gamma_ratio(q: HalfInteger | Fraction | int, m: int) -> Fraction:
    """Gamma(q + m) / Gamma(q) as an exact rational, for integer m >= 0.

    This is the rising factorial q (q+1) ... (q+m-1); the gamma pieces (and
    any sqrt(pi) hiding in half-integer values) cancel termwise, so the
    quotient is rational even though neither gamma value is.
    """
    if m < 0:
        raise ValueError(f"rising factorial needs m >= 0, got {m}")
    if isinstance(q, HalfInteger):
        p, d = q.twice_value, 2
    else:
        base = Fraction(q)
        p, d = base.numerator, base.denominator
    # q + j = (p + j d) / d, so the whole product has one integer numerator.
    prod = 1
    for j in range(m):
        prod *= p + j * d
    return Fraction(prod, d**m)


def multinomial(r: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient r! / (i_1! ... i_n!) for parts summing to r."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    lowest = min(parts, default=0)
    if lowest < 0:
        raise ValueError(f"composition parts must be >= 0, got {lowest}")
    total = sum(parts)
    if total != r:
        raise ValueError(f"parts sum to {total}, expected {r}")
    return math.factorial(r) // math.prod(map(math.factorial, parts))


def composition_count(r: int, n: int) -> int:
    """Number of compositions of r into n non-negative parts: C(r+n-1, n-1)."""
    if n < 1:
        raise ValueError(f"need at least one part, got n={n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    return math.comb(r + n - 1, n - 1)


def compositions(r: int, n: int) -> Iterator[Composition]:
    """Yield all compositions of r into exactly n non-negative parts.

    Order is lexicographically decreasing, e.g. for r=2, n=2:
    (2, 0), (1, 1), (0, 2).  The stream is generated lazily by a successor
    step on one list of parts, so the full set is never materialised.
    """
    if n < 1:
        raise ValueError(f"need at least one part, got n={n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    parts = [0] * n
    parts[0] = r
    last = n - 1
    while True:
        yield tuple(parts)
        # Successor: one unit of the rightmost non-zero part before the last,
        # plus the whole last part, moves to the place right after it.
        j = last - 1
        while j >= 0 and not parts[j]:
            j -= 1
        if j < 0:
            return
        tail = parts[last]
        parts[last] = 0
        parts[j] -= 1
        parts[j + 1] = tail + 1
