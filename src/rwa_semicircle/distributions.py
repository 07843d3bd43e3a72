"""The two distribution families, plus Dirichlet spacings sampling.

Arcsine(-a, a) is the input law of the averaged variables; the power
semicircle family is the target law that the randomly weighted average is
checked against.  Both are small frozen dataclasses: the arcsine law with
pdf and sampling, the power semicircle with pdf, cdf and sampling, its pdf
handling the endpoint by the continuous limit where that limit exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import betainc

__all__ = ["Arcsine", "PowerSemicircle", "sample_spacings"]

_SPACING_METHODS = ("sorted-uniforms", "exponential")


def _as_float_array(x):
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class Arcsine:
    """Arcsine law on (-a, a): density 1 / (pi sqrt(a^2 - x^2))."""

    a: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.a < math.inf):
            raise ValueError(f"scale must be positive and finite, got a={self.a}")

    def pdf(self, x):
        xs = _as_float_array(x)
        if xs.size and np.max(np.abs(xs)) >= self.a:
            raise ValueError(f"arcsine density diverges at |x| >= a = {self.a}")
        out = 1.0 / (math.pi * np.sqrt(self.a * self.a - xs * xs))
        return float(out) if np.isscalar(x) else out

    def sample(self, rng: np.random.Generator, size=None):
        """Draw via x = a cos(pi U); scaling acts on the draw itself, so
        samples at scale a are exactly a times the unit-scale samples from
        the same generator state."""
        u = rng.random(size)
        return self.a * np.cos(math.pi * u)


@dataclass(frozen=True)
class PowerSemicircle:
    """Power semicircle law on (-a, a), exponent lam >= 0.

    Density proportional to (a^2 - x^2)^(lam - 1/2).  lam = 0 is the arcsine
    law, lam = 1/2 the uniform, lam = 1 the classical semicircle.
    """

    lam: float
    a: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.lam < math.inf):
            raise ValueError(f"exponent must be finite and >= 0, got lam={self.lam}")
        if not (0 < self.a < math.inf):
            raise ValueError(f"scale must be positive and finite, got a={self.a}")

    @property
    def _log_norm(self) -> float:
        """log of the density prefactor Gamma(lam+1) / (sqrt(pi) a^(2 lam) Gamma(lam+1/2))."""
        return (
            math.lgamma(self.lam + 1.0)
            - math.lgamma(self.lam + 0.5)
            - 0.5 * math.log(math.pi)
            - 2.0 * self.lam * math.log(self.a)
        )

    def pdf(self, x):
        xs = _as_float_array(x)
        if xs.size and np.max(np.abs(xs)) > self.a:
            raise ValueError(f"support is [-a, a] with a = {self.a}")
        at_edge = np.abs(xs) == self.a
        if np.any(at_edge):
            if self.lam < 0.5:
                raise ValueError(
                    f"density is unbounded at |x| = a when lam < 1/2 (lam={self.lam})"
                )
            # lam >= 1/2: continuous limit at the boundary (positive only for
            # the uniform case lam = 1/2).
        norm = math.exp(self._log_norm)
        out = np.zeros_like(xs)
        inner = ~at_edge
        out[inner] = norm * (self.a * self.a - xs[inner] ** 2) ** (self.lam - 0.5)
        if self.lam == 0.5:
            out[at_edge] = norm
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        """CDF via the regularized incomplete beta: the law is the affine
        image 2aB - a of B ~ Beta(lam + 1/2, lam + 1/2)."""
        xs = _as_float_array(x)
        if xs.size and np.max(np.abs(xs)) > self.a:
            raise ValueError(f"support is [-a, a] with a = {self.a}")
        s = self.lam + 0.5
        t = np.clip((xs + self.a) / (2.0 * self.a), 0.0, 1.0)
        out = betainc(s, s, t)
        return float(out) if np.isscalar(x) else out

    def sample(self, rng: np.random.Generator, size=None):
        """Draw through the Beta(lam+1/2, lam+1/2) representation, itself
        built from two gamma draws so only the generator's gamma stream is
        consumed."""
        s = self.lam + 0.5
        g1 = rng.standard_gamma(s, size)
        g2 = rng.standard_gamma(s, size)
        b = g1 / (g1 + g2)
        return 2.0 * self.a * b - self.a


def sample_spacings(
    n: int,
    rng: np.random.Generator,
    size=None,
    method: str = "sorted-uniforms",
) -> np.ndarray:
    """Draw the n spacings of n-1 ordered uniforms on (0, 1).

    The rows are flat Dirichlet vectors of length n (each weight vector sums
    to one).  Two routes:

    * ``sorted-uniforms`` -- sort n-1 uniforms, pad with 0 and 1, take
      consecutive differences.  This is the definition, used by the sampler.
    * ``exponential`` -- normalize n standard exponentials; an independent
      construction of the same law, kept around so the two can be tested
      against each other.

    Returns shape (n,) for size=None, else (size, n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 spacings, got {n}")
    if method not in _SPACING_METHODS:
        raise ValueError(f"method must be one of {_SPACING_METHODS}, got {method!r}")
    count = 1 if size is None else int(size)
    if count < 0:
        raise ValueError(f"size must be >= 0, got {size}")

    if method == "exponential":
        e = rng.standard_exponential((count, n))
        out = e / e.sum(axis=1, keepdims=True)
    else:
        u = rng.random((count, n - 1))
        u.sort(axis=1)
        padded = np.empty((count, n + 1))
        padded[:, 0] = 0.0
        padded[:, 1:-1] = u
        padded[:, -1] = 1.0
        out = np.diff(padded, axis=1)

    if size is None:
        return out[0]
    return out
