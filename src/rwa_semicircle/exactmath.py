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


@dataclass(frozen=True)
class HalfInteger:
    """A parsed parameter of the gamma-ratio lemma: a half-integer q >= 1/2,
    stored as 2q to stay in the integers.

    It is a parameter, not a number type: arithmetic on these values is done
    with :class:`fractions.Fraction`, e.g. ``Fraction(p.twice_value, 2)``.
    """

    twice_value: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_value, int):
            raise TypeError(f"twice_value must be an int, got {type(self.twice_value).__name__}")
        if self.twice_value < 1:
            raise ValueError(f"half-integer must be >= 1/2, got {self.twice_value}/2")

    @classmethod
    def parse(cls, text: str) -> "HalfInteger":
        """Parse '1/2', '2', or '2.5' style strings."""
        try:
            q = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {text!r} as a half-integer") from exc
        doubled = 2 * q
        if doubled.denominator != 1:
            raise ValueError(f"{text.strip()} is not a half-integer")
        return cls(int(doubled))

    def __str__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def rising_gamma_ratio(q: Fraction | int, m: int) -> Fraction:
    """Gamma(q + m) / Gamma(q) as an exact rational, for integer m >= 0.

    This is the rising factorial q (q+1) ... (q+m-1); the gamma pieces (and
    any sqrt(pi) hiding in half-integer values) cancel termwise, so the
    quotient is rational even though neither gamma value is.
    """
    if m < 0:
        raise ValueError(f"rising factorial needs m >= 0, got {m}")
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
