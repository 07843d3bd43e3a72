"""Seeded, shardable Monte Carlo for the randomly weighted average.

One draw of the average at size n is sum_i R_i X_i where (R_1, ..., R_n) are
the spacings of n-1 ordered uniforms and the X_i are i.i.d. arcsine on
(-a, a), independent of the weights.

Draw-order contract (what makes runs byte-reproducible): each shard gets its
own generator from SeedSequence(seed, spawn_key=(shard_index,)) and consumes,
in order, one (count, n-1) block of uniforms for the weights, then one
(count, n) block of uniforms for the arcsine draws.  Shard outputs are
concatenated in shard order.  The scale multiplies the completed unit-scale
sum, so a batch at scale a is bitwise a times the unit-scale batch for the
same seed and shard count.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import render
from .distributions import sample_spacings

__all__ = ["RwaSpec", "SampleBatch", "rwa_batch", "thread_cap"]

_THREADS_ENV = "RWA_THREADS"


@dataclass(frozen=True)
class RwaSpec:
    """Problem size for the weighted average: n variables, arcsine scale a."""

    n: int
    a: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need an integer n >= 2, got {self.n!r}")
        if not (0 < self.a < math.inf):
            raise ValueError(f"scale must be positive and finite, got a={self.a}")


def _sample_block(spec: RwaSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` averages; weights block first, then the X block."""
    weights = sample_spacings(spec.n, rng, size=count)
    x = np.cos(math.pi * rng.random((count, spec.n)))
    return spec.a * (weights * x).sum(axis=1)


def _shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))


def thread_cap() -> int | None:
    """The worker cap from RWA_THREADS: a positive integer, or None if unset."""
    text = os.environ.get(_THREADS_ENV)
    if not text:
        return None
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{_THREADS_ENV} must be a positive integer, got {text!r}")
    return cap


def _shard_counts(count: int, shards: int) -> list[int]:
    base, extra = divmod(count, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def rwa_batch(spec: RwaSpec, count: int, seed: int, *, shards: int = 1) -> "SampleBatch":
    """Draw `count` averages, reproducibly, split over `shards` streams.

    The per-shard streams depend only on (seed, shard index), so the output
    is byte-identical across runs and across worker counts; RWA_THREADS caps
    the thread pool (the split itself is fixed by `shards` alone).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > count:
        raise ValueError(f"cannot split {count} draws over {shards} shards")

    counts = _shard_counts(count, shards)

    def draw(i: int) -> np.ndarray:
        return _sample_block(spec, counts[i], _shard_rng(seed, i))

    # One shard is drawn on the calling thread.  Drawn on a pool thread, its
    # blocks land in a second glibc malloc arena that the caller's later work
    # cannot reuse: `rwa verify` at N=10^6 (n=3, then n=8, in one process)
    # peaked at 320 MB instead of 266 MB on a 2-vCPU Xeon, and at 266 MB
    # with MALLOC_ARENA_MAX=1.
    if shards == 1:
        pieces = [draw(0)]
    else:
        max_workers = min(shards, thread_cap() or os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            pieces = list(pool.map(draw, range(shards)))

    values = np.concatenate(pieces)
    return SampleBatch(values=values, spec=spec, seed=seed, count=count, shards=shards)


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of draws plus everything needed to re-derive it."""

    values: np.ndarray
    spec: RwaSpec
    seed: int
    count: int
    shards: int

    def csv_bytes(self) -> bytes:
        return render.csv_bytes(["value"], self.values)

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_bytes(self.csv_bytes())

    def values_digest(self) -> str:
        return hashlib.sha256(self.csv_bytes()).hexdigest()

    def envelope(self) -> dict:
        return {
            "spec": {"n": self.spec.n, "a": self.spec.a},
            "seed": self.seed,
            "count": self.count,
            "shards": self.shards,
            "values_sha256": self.values_digest(),
        }

    def envelope_bytes(self) -> bytes:
        return render.json_bytes(self.envelope())

    def write_envelope(self, path: str | Path) -> None:
        Path(path).write_bytes(self.envelope_bytes())
