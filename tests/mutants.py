"""Seeded samplers of near misses of the randomly weighted average, for the
tests that measure what `rwa verify`'s checks can detect.

Each sampler takes (n, count, seed) and returns `count` draws at unit scale,
built from the package's own primitives with one ingredient of the theorem
changed.  `CONTROL` changes only the construction of the weights, not their
law, so its draws follow the target law exactly.
"""

from __future__ import annotations

import numpy as np

from rwa_semicircle import Arcsine, PowerSemicircle, RwaSpec, rwa_batch, sample_spacings


def _average(weights: np.ndarray, rng: np.random.Generator, law: PowerSemicircle = Arcsine()) -> np.ndarray:
    """sum_i w_i X_i per row, the X_i i.i.d. draws of `law` (unit arcsine)."""
    return (weights * law.sample(rng, weights.shape)).sum(axis=1)


def _normalized(draws: np.ndarray) -> np.ndarray:
    return draws / draws.sum(axis=1, keepdims=True)


def uniform_weights(n: int, count: int, seed: int) -> np.ndarray:
    """Weights of n i.i.d. uniforms divided by their sum, not spacings."""
    rng = np.random.default_rng(seed)
    return _average(_normalized(rng.random((count, n))), rng)


def dirichlet2_weights(n: int, count: int, seed: int) -> np.ndarray:
    """Dirichlet(2, ..., 2) weights (normalized Gamma(2) draws), not flat."""
    rng = np.random.default_rng(seed)
    return _average(_normalized(rng.standard_gamma(2.0, (count, n))), rng)


def uniform_inputs(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform inputs on (-1, 1), the lam = 1/2 law, not arcsine."""
    rng = np.random.default_rng(seed)
    return _average(sample_spacings(n, rng, size=count), rng, PowerSemicircle(lam=0.5))


def one_variable_fewer(n: int, count: int, seed: int) -> np.ndarray:
    """The true average of n - 1 variables, whose exponent is lam - 1/2."""
    return rwa_batch(RwaSpec(n - 1), count, seed).values


def equal_weights(n: int, count: int, seed: int) -> np.ndarray:
    """The plain mean, weights 1/n, not random."""
    return Arcsine().sample(np.random.default_rng(seed), (count, n)).mean(axis=1)


def exponential_spacings(n: int, count: int, seed: int) -> np.ndarray:
    """Weights of n standard exponentials divided by their sum: another
    construction of the same flat Dirichlet law, so this is the control."""
    rng = np.random.default_rng(seed)
    return _average(_normalized(rng.standard_exponential((count, n))), rng)


MUTANTS = (uniform_weights, dirichlet2_weights, uniform_inputs, one_variable_fewer, equal_weights)
CONTROL = exponential_spacings
