"""Seeded, shardable Monte Carlo for the randomly weighted average.

One draw of the average at size n is sum_i R_i X_i where (R_1, ..., R_n) are
the spacings of n-1 ordered uniforms and the X_i are i.i.d. arcsine on
(-a, a), independent of the weights.  Both come from their laws' own
samplers: the weights from `sample_spacings`, the inputs from
`Arcsine().sample` at unit scale.

Draw-order contract v1 (what makes runs byte-reproducible): each shard gets
its own PCG64 stream from SeedSequence(seed, spawn_key=(shard_index,)) and
consumes, in order, one (count, n-1) block of uniforms for the weights, then
one (count, n) block of uniforms for the arcsine draws, both in row-major
order.  Of a batch's `count` rows over `shards` shards, shard i draws
count // shards rows, plus one more when i < count % shards.  Shard outputs
are laid out in shard order.  Each row of weights times inputs is summed in
NumPy's pairwise order, the order of `sum(axis=1)`.  The scale multiplies
the completed unit-scale sum, so a batch at scale a is bitwise a times the
unit-scale batch for the same seed and shard count.

Each uniform takes exactly one 64-bit output of the stream, so rows [s, s+c)
of a shard of `count` rows read their weight uniforms from stream offset
s*(n-1) and their arcsine uniforms from offset count*(n-1) + s*n.  The
sampler draws every shard in row chunks of a fixed size, each from copies of
the shard's stream advanced to those two offsets, in any order and on any
thread; the bytes are those of the whole-block draw described above.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import numpy as np

from . import render
from .distributions import Arcsine, PowerSemicircle, check_size, sample_spacings

__all__ = ["RwaSpec", "SampleBatch", "check_shards", "rwa_batch"]

# Values (rows times n) per chunk: the unit of work of one worker, and with
# it the size of each temporary array the draw makes (1 MB of float64).  The
# bytes do not depend on it.  On a 2-vCPU Xeon, two-thread draws of 10^6
# rows at n = 64 took a median 1,096 ms at 2^17, against 1,135 ms at 2^18,
# 1,231 ms at 2^19 and 1,259 ms at 2^16 (7 interleaved runs each), and the
# three cells of the `verify` benchmark, in one process on one worker,
# peaked at 48.7 MB RSS, against 50.5 MB at 2^18 and 56.2 MB at 2^19.
_CHUNK_VALUES = 1 << 17


@dataclass(frozen=True)
class RwaSpec:
    """Problem size for the weighted average: n variables, arcsine scale a."""

    n: int
    a: float = 1.0

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"need an integer n >= 2, got {self.n!r}") from None
        if n < 2:
            raise ValueError(f"need an integer n >= 2, got {render.magnitude(n)}")
        object.__setattr__(self, "n", n)
        Arcsine(a=self.a)
        object.__setattr__(self, "a", float(self.a))

    def target_law(self) -> PowerSemicircle:
        """The law the theorem gives the average: exponent (n - 1)/2, as an
        exact rational, and scale a."""
        try:
            return PowerSemicircle(lam=Fraction(self.n - 1, 2), a=self.a)
        except ValueError as exc:
            raise ValueError(f"n={render.magnitude(self.n)} has no target law: {exc}") from exc


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


def _row_sums(p: np.ndarray, out: np.ndarray) -> None:
    """Write the sum of each row of the 2-D float64 array `p` into `out`,
    with the bits of `p.sum(axis=1)`.

    NumPy adds each row's `pairwise_sum` to an output that starts at 0.0.
    Below 8 values that sum runs left to right from 0.0; from 8 to 15 values
    it is ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), then the other
    values left to right.  Here the same adds run a whole column at a time,
    which spares the reduce's per-row loop (about 20 ns a row), and the 0.0
    comes last: it only turns a -0.0 sum into +0.0, wherever it is added.
    From 16 values up, where each of the eight partial sums takes two or
    more values, the reduce itself is the faster: on a 2-vCPU Xeon, 28
    against 54 ns a row at 16 values, where at 8 and 15 values the columns
    take 4.4 and 9.6 ns a row against 20.6 and 25.9.
    """
    n = p.shape[1]
    if n >= 16:
        p.sum(axis=1, out=out)
        return
    np.add(p[:, 0], p[:, 1], out=out)
    if n >= 8:
        out += p[:, 2] + p[:, 3]
        half = p[:, 4] + p[:, 5]
        half += p[:, 6] + p[:, 7]
        out += half
    for j in range(2 if n < 8 else 8, n):
        out += p[:, j]
    out += 0.0


def check_shards(count: int, shards: int) -> int:
    """The one split rule, on `shards` read as an exact int: every shard draws at least one of the `count` rows."""
    shards = operator.index(shards)
    if not 1 <= shards <= count:
        raise ValueError(f"cannot split {render.magnitude(count)} draws over {render.magnitude(shards)} shards")
    return shards


def rwa_batch(spec: RwaSpec, count: int, seed: int, *, shards: int = 1) -> "SampleBatch":
    """Draw `count` averages, reproducibly, split over `shards` streams.

    The per-shard streams depend only on (seed, shard index), so the output
    is byte-identical across runs, chunk sizes and worker counts.  One
    worker per core in this process's affinity mask (so `taskset` limits
    it), and never more than there are chunks, takes chunks from one shared
    queue.  The calling thread is one of them, so one core starts no thread.
    """
    shards = check_shards(count, shards)
    seed = operator.index(seed)
    # Every array the batch makes (the values, each chunk's weights and
    # inputs) is at most count by n.
    check_size((count, spec.n))

    n = spec.n
    values = np.empty(count)
    # (shard, shard rows, first row, output slice) per chunk of at most
    # `rows` rows.  `np.array_split` gives the contract's shard split as
    # views that tile `values` in shard order.
    rows = max(1, _CHUNK_VALUES // n)
    chunks = []
    for shard, shard_values in enumerate(np.array_split(values, shards)):
        for start in range(0, shard_values.size, rows):
            chunks.append((shard, shard_values.size, start, shard_values[start : start + rows]))

    # NumPy's floating-point error state belongs to each thread, so every
    # chunk runs under the caller's, on whichever thread it lands.  Under the
    # GIL, `next` on the one iterator hands each chunk to one thread; on a
    # free-threaded build a chunk may be taken twice, but none is skipped,
    # and both draws write the same bytes.  A chunk that fails empties the
    # iterator, so every other worker stops after the chunk in hand.
    errors = np.geterr()
    source = iter(chunks)

    def draw() -> None:
        with np.errstate(**errors):
            try:
                for shard, shard_count, start, out in source:
                    weights = sample_spacings(n, _stream(seed, shard, start * (n - 1)), size=out.size)
                    weights *= Arcsine().sample(_stream(seed, shard, shard_count * (n - 1) + start * n), (out.size, n))
                    _row_sums(weights, out)
                    out *= spec.a
            except BaseException:
                deque(source, maxlen=0)
                raise

    workers = min(len(chunks), _available_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(draw) for _ in range(workers - 1)]
        draw()
        for helper in helpers:
            helper.result()  # re-raises a helper's error here
    return SampleBatch(values=values, spec=spec, seed=seed, shards=shards)


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of draws plus everything needed to re-derive it."""

    values: np.ndarray
    spec: RwaSpec
    seed: int
    shards: int

    def csv_chunks(self) -> Iterator[bytes]:
        """The CSV of the draws, one render block at a time."""
        return render.csv_chunks(["value"], self.values[:, None])

    def csv_bytes(self) -> bytes:
        return render.csv_bytes(["value"], self.values[:, None])

    def write_csv(self, path: str | Path) -> None:
        with open(path, "wb") as file:
            file.writelines(self.csv_chunks())

    def values_digest(self) -> str:
        return render.sha256_hex(self.csv_chunks())

    def envelope_bytes(self, values_sha256: str | None = None) -> bytes:
        """The JSON envelope; `values_sha256` is the CSV's digest when the
        caller has it already (from writing the CSV), else it is computed."""
        return render.json_bytes({
            "spec": {"n": self.spec.n, "a": self.spec.a},
            "seed": self.seed,
            "count": self.values.size,
            "shards": self.shards,
            "values_sha256": values_sha256 if values_sha256 is not None else self.values_digest(),
        })

    def write_envelope(self, path: str | Path) -> None:
        Path(path).write_bytes(self.envelope_bytes())
