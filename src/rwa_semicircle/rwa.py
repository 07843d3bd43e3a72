"""Seeded, shardable Monte Carlo for the randomly weighted average.

One draw of the average at size n is sum_i R_i X_i where (R_1, ..., R_n) are
the spacings of n-1 ordered uniforms and the X_i are i.i.d. arcsine on
(-a, a), independent of the weights.

Draw-order contract v1 (what makes runs byte-reproducible): each shard gets
its own PCG64 stream from SeedSequence(seed, spawn_key=(shard_index,)) and
consumes, in order, one (count, n-1) block of uniforms for the weights, then
one (count, n) block of uniforms for the arcsine draws, both in row-major
order.  Shard outputs are laid out in shard order.  The scale multiplies the
completed unit-scale sum, so a batch at scale a is bitwise a times the
unit-scale batch for the same seed and shard count.

Each uniform takes exactly one 64-bit output of the stream, so rows [s, s+c)
of a shard of `count` rows read their weight uniforms from stream offset
s*(n-1) and their arcsine uniforms from offset count*(n-1) + s*n.  The
sampler draws every shard in row chunks of a fixed size, each from copies of
the shard's stream advanced to those two offsets, in any order and on any
thread; the bytes are those of the whole-block draw described above.
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
from .distributions import PowerSemicircle, sample_spacings

__all__ = ["RwaSpec", "SampleBatch", "rwa_batch"]

# Values (rows times n) per chunk: the unit of work of one worker, and with
# it the size of each temporary array the draw makes.
_CHUNK_VALUES = 1 << 19


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

    def target_law(self) -> PowerSemicircle:
        """The law the theorem gives the average: exponent (n - 1)/2, scale a."""
        try:
            return PowerSemicircle(lam=(self.n - 1) / 2, a=self.a)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"n={self.n} has no target law: {exc}") from exc


def _stream(seed: int, shard_index: int, offset: int) -> np.random.Generator:
    """The shard's generator, advanced past its first `offset` uniforms."""
    bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,)))
    return np.random.Generator(bits.advance(offset))


def _available_cores() -> int:
    """The cores this process may run on (its affinity mask, where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shard_counts(count: int, shards: int) -> list[int]:
    base, extra = divmod(count, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def rwa_batch(spec: RwaSpec, count: int, seed: int, *, shards: int = 1) -> "SampleBatch":
    """Draw `count` averages, reproducibly, split over `shards` streams.

    The per-shard streams depend only on (seed, shard index), so the output
    is byte-identical across runs, chunk sizes and worker counts.  The
    chunks share one pool of workers, one per core in this process's
    affinity mask (so `taskset` limits it) and never more than there are
    chunks; with one worker they run on the calling thread.
    """
    if not 1 <= shards <= count:
        raise ValueError(f"cannot split {count} draws over {shards} shards")

    n = spec.n
    values = np.empty(count)
    # (shard, shard rows, first row, output slice) per chunk of at most
    # `rows` rows; the slices tile `values` in shard order.
    rows = max(1, _CHUNK_VALUES // n)
    chunks = []
    first = 0
    for shard, shard_count in enumerate(_shard_counts(count, shards)):
        for start in range(0, shard_count, rows):
            stop = min(start + rows, shard_count)
            chunks.append((shard, shard_count, start, values[first + start : first + stop]))
        first += shard_count

    def draw(chunk) -> None:
        shard, shard_count, start, out = chunk
        weights = sample_spacings(n, _stream(seed, shard, start * (n - 1)), size=out.size)
        # In place, so a chunk holds two (rows, n) arrays once its weights
        # are drawn: x = cos(pi * U), then weights * x.
        x = _stream(seed, shard, shard_count * (n - 1) + start * n).random((out.size, n))
        x *= math.pi
        np.cos(x, out=x)
        x *= weights
        out[:] = spec.a * x.sum(axis=1)

    # One worker draws on the calling thread.  Each pool thread allocates its
    # chunk arrays from its own glibc malloc arena, which the caller's later
    # work cannot reuse: `rwa verify` at N=10^6 (n=3, then n=8, in one
    # process) peaked at 135 MB on the calling thread, 150 MB on a one-thread
    # pool and 165 MB on two threads (136 MB with MALLOC_ARENA_MAX=1), on a
    # 2-vCPU Xeon.
    workers = min(len(chunks), _available_cores())
    if workers == 1:
        for chunk in chunks:
            draw(chunk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(draw, chunks))
    return SampleBatch(values=values, spec=spec, seed=seed, shards=shards)


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of draws plus everything needed to re-derive it."""

    values: np.ndarray
    spec: RwaSpec
    seed: int
    shards: int

    def csv_bytes(self) -> bytes:
        return render.csv_bytes(["value"], self.values)

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_bytes(self.csv_bytes())

    def values_digest(self) -> str:
        return hashlib.sha256(self.csv_bytes()).hexdigest()

    def envelope_bytes(self) -> bytes:
        return render.json_bytes({
            "spec": {"n": self.spec.n, "a": self.spec.a},
            "seed": self.seed,
            "count": self.values.size,
            "shards": self.shards,
            "values_sha256": self.values_digest(),
        })

    def write_envelope(self, path: str | Path) -> None:
        Path(path).write_bytes(self.envelope_bytes())
