import json
import hashlib
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from rwa_semicircle import render, rwa
from rwa_semicircle.rwa import RwaSpec, SampleBatch, rwa_batch


def _whole_block_batch(spec: RwaSpec, count: int, seed: int, shards: int) -> np.ndarray:
    """Draw contract v1 read literally: each shard draws its whole (count, n-1)
    weight block, then its whole (count, n) arcsine block, from its own
    stream; the shards are concatenated in order.  The weights are the
    spacings by their definition (sort, pad with 0 and 1, difference), not
    by the library's kernel."""
    base, extra = divmod(count, shards)
    pieces = []
    for i in range(shards):
        rows = base + (1 if i < extra else 0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        uniforms = np.sort(rng.random((rows, spec.n - 1)), axis=1)
        weights = np.diff(uniforms, axis=1, prepend=0.0, append=1.0)
        x = np.cos(math.pi * rng.random((rows, spec.n)))
        pieces.append(spec.a * (weights * x).sum(axis=1))
    return np.concatenate(pieces)


class TestRwaSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RwaSpec(n=1)
        with pytest.raises(ValueError):
            RwaSpec(n=2, a=0.0)
        with pytest.raises(ValueError):
            RwaSpec(n=2.0, a=1.0)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            RwaSpec(n=3, a=math.inf)
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            RwaSpec(n=3, a=10**400)
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            RwaSpec(n=3, a=1e-320)

    def test_target_law_names_a_size_without_one(self):
        assert RwaSpec(n=1001).target_law().lam == 500.0
        with pytest.raises(ValueError, match="n=1002 has no target law: exponent must be p/2"):
            RwaSpec(n=1002).target_law()
        # (n - 1)/2 beyond the float range is no exponent either; the rule
        # sees it exactly, with no float conversion.
        with pytest.raises(ValueError, match="has no target law: exponent must be p/2") as err:
            RwaSpec(n=10**400).target_law()
        # ... and is named by its power of ten, not by 401 digits
        message = str(err.value)
        assert len(message) < 200 and "10^" in message

    def test_frozen(self):
        spec = RwaSpec(n=3)
        with pytest.raises(AttributeError):
            spec.n = 4  # type: ignore[misc]


class TestReproducibility:
    def test_same_seed_same_bytes(self):
        b1 = rwa_batch(RwaSpec(3, 1.0), 5000, seed=7)
        b2 = rwa_batch(RwaSpec(3, 1.0), 5000, seed=7)
        assert b1.csv_bytes() == b2.csv_bytes()
        assert b1.envelope_bytes() == b2.envelope_bytes()

    def test_different_seed_different_values(self):
        b1 = rwa_batch(RwaSpec(3, 1.0), 100, seed=7)
        b2 = rwa_batch(RwaSpec(3, 1.0), 100, seed=8)
        assert not np.array_equal(b1.values, b2.values)

    def test_shard_split_is_deterministic(self):
        """Shard streams depend only on (seed, shard index), so re-running
        with the same shard count reproduces the batch exactly."""
        b1 = rwa_batch(RwaSpec(4, 2.0), 9999, seed=42, shards=7)
        b2 = rwa_batch(RwaSpec(4, 2.0), 9999, seed=42, shards=7)
        assert b1.values_digest() == b2.values_digest()

    def test_thread_cap_does_not_change_output(self, monkeypatch):
        monkeypatch.setattr(rwa, "_available_cores", lambda: 1)
        b1 = rwa_batch(RwaSpec(3, 1.0), 4000, seed=9, shards=4)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 4)
        b2 = rwa_batch(RwaSpec(3, 1.0), 4000, seed=9, shards=4)
        assert b1.csv_bytes() == b2.csv_bytes()


class TestWorkers:
    """The worker count is the number of cores the process may run on."""

    def test_core_count_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert rwa._available_cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert rwa._available_cores() == 1

    def test_one_core_draws_on_the_calling_thread(self, monkeypatch):
        spec = RwaSpec(5, 2.5)
        monkeypatch.setattr(rwa, "_CHUNK_VALUES", 7 * spec.n)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 3)
        pooled = rwa_batch(spec, 100, 2024, shards=2)

        class NoThreads(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                raise AssertionError("one core must not start a thread")

        monkeypatch.setattr(rwa, "ThreadPoolExecutor", NoThreads)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 1)
        inline = rwa_batch(spec, 100, 2024, shards=2)
        assert inline.values.tobytes() == pooled.values.tobytes()

    def test_k_cores_submit_k_minus_1_helpers_beside_the_caller(self, monkeypatch):
        spec = RwaSpec(5, 2.5)
        monkeypatch.setattr(rwa, "_CHUNK_VALUES", 7 * spec.n)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 3)
        pools = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.submitted = 0
                pools.append(self)

            def submit(self, *args, **kwargs):
                self.submitted += 1
                return super().submit(*args, **kwargs)

        # A helper's first chunk waits until the caller has drawn one, so
        # that the helpers cannot take every chunk before the caller starts.
        caller, drawn_by, caller_drew = threading.get_ident(), [], threading.Event()
        row_sums = rwa._row_sums

        def recorded(p, out):
            if threading.get_ident() == caller:
                caller_drew.set()
            else:
                caller_drew.wait(timeout=10)
            drawn_by.append(threading.get_ident())
            row_sums(p, out)

        monkeypatch.setattr(rwa, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(rwa, "_row_sums", recorded)
        batch = rwa_batch(spec, 100, 2024, shards=2)
        assert [(pool._max_workers, pool.submitted) for pool in pools] == [(3, 2)]
        assert caller in drawn_by and len(drawn_by) == 16
        assert batch.values.tobytes() == _whole_block_batch(spec, 100, 2024, 2).tobytes()

    def test_many_workers_draw_every_chunk_once(self, monkeypatch):
        # More workers than cores, switching threads as often as the
        # interpreter allows, on chunks of one row each: a chunk skipped
        # would leave its row unwritten, one taken twice would count twice.
        spec = RwaSpec(3)
        monkeypatch.setattr(rwa, "_CHUNK_VALUES", spec.n)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 8)
        drawn, row_sums = [], rwa._row_sums

        def counted(p, out):
            drawn.append(out.size)
            row_sums(p, out)

        monkeypatch.setattr(rwa, "_row_sums", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = rwa_batch(spec, 2000, 2024, shards=3)
        finally:
            sys.setswitchinterval(interval)
        assert drawn == [1] * 2000
        assert batch.values.tobytes() == _whole_block_batch(spec, 2000, 2024, 3).tobytes()

    def test_a_failed_chunk_ends_the_draw(self, monkeypatch):
        # 200 chunks of one row on two workers; the first chunk drawn fails,
        # so at most the other worker's chunk in hand is drawn after it.
        workers = 2
        monkeypatch.setattr(rwa, "_CHUNK_VALUES", 3)
        monkeypatch.setattr(rwa, "_available_cores", lambda: workers)
        calls = []

        def failing(p, out):
            calls.append(out.size)
            if len(calls) == 1:
                raise RuntimeError("chunk failed")

        monkeypatch.setattr(rwa, "_row_sums", failing)
        with pytest.raises(RuntimeError, match="chunk failed"):
            rwa_batch(RwaSpec(3), 200, 1)
        assert len(calls) <= workers + 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunks_run_under_the_callers_error_state(self, monkeypatch, threads):
        """NumPy's error state belongs to each thread; a chunk that
        overflows meets the caller's, on a pool thread as on the caller's."""
        monkeypatch.setattr(rwa, "_available_cores", lambda: threads)

        def overflow(p, out):
            out.fill(1e308)
            out *= 10.0

        monkeypatch.setattr(rwa, "_row_sums", overflow)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            rwa_batch(RwaSpec(3), 100, 1, shards=2)
        with np.errstate(over="ignore"):
            assert np.isposinf(rwa_batch(RwaSpec(3), 100, 1, shards=2).values).all()


class TestChunkedDraw:
    """The chunked sampler reads each chunk from stream offsets; whatever the
    chunk size, worker count and shard count, its bytes are the whole-block
    draw's."""

    @pytest.mark.parametrize("shards", [1, 3, 4])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 10_000])
    @pytest.mark.parametrize(("n", "a", "count"), [(2, 1.0, 10), (5, 2.5, 1000), (64, 0.5, 1000)])
    def test_bitwise_equal_to_whole_block_draw(self, monkeypatch, n, a, count, chunk_rows, threads, shards):
        monkeypatch.setattr(rwa, "_CHUNK_VALUES", chunk_rows * n)
        monkeypatch.setattr(rwa, "_available_cores", lambda: threads)
        spec = RwaSpec(n, a)
        batch = rwa_batch(spec, count, 2024, shards=shards)
        reference = _whole_block_batch(spec, count, 2024, shards)
        assert batch.values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", range(2, 18))
    def test_every_row_size_is_the_whole_block_draw(self, monkeypatch, n):
        """The golden digests pin n = 2, 3, 8 and 64 only; this reaches every
        branch of the row-sum kernel, on chunks that split the shards."""
        monkeypatch.setattr(rwa, "_CHUNK_VALUES", 7 * n)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 2)
        spec = RwaSpec(n, 2.5)
        batch = rwa_batch(spec, 101, 2024, shards=3)
        assert batch.values.tobytes() == _whole_block_batch(spec, 101, 2024, 3).tobytes()

    @pytest.mark.parametrize("n", range(2, 21))
    def test_row_sums_have_the_bits_of_numpys_reduce(self, n):
        rng = np.random.default_rng(n)
        shape = (400, n)
        # Signed magnitudes from subnormal to near the float maximum, and
        # values drawn from the special cases; rows of one magnitude, which
        # round differently in every order; and rows of -0.0.
        wide = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320, 308, shape)
        special = rng.choice([0.0, -0.0, 5e-324, -3e-320, 2.2e-308, np.inf, -np.inf, 1e300, -1e-300], shape)
        close = rng.standard_normal(shape)
        mixed = np.where(rng.random(shape) < 0.5, special, close)
        p = np.concatenate([wide, special, mixed, close, np.full((2, n), -0.0)])
        out = np.empty(len(p))
        with np.errstate(over="ignore", invalid="ignore"):
            rwa._row_sums(p, out)
            assert out.tobytes() == np.add.reduce(p, axis=1).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_is_bounded_by_the_chunk(self, monkeypatch, threads):
        """The whole-block draw of this batch peaks near 300 MB; the chunked
        one holds the result plus a few chunk-sized arrays per worker."""
        monkeypatch.setattr(rwa, "_available_cores", lambda: threads)
        count = 200_000
        tracemalloc.start()
        try:
            rwa_batch(RwaSpec(64), count, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * count + 32 * 2**20


class TestScaleProperty:
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_scale_is_bitwise_multiplication(self, n, a):
        unit = rwa_batch(RwaSpec(n, 1.0), 2000, seed=11, shards=2)
        scaled = rwa_batch(RwaSpec(n, a), 2000, seed=11, shards=2)
        assert np.array_equal(a * unit.values, scaled.values)


class TestSupportAndHooks:
    def test_values_stay_inside_plus_minus_a(self):
        for a in (1.0, 2.5):
            batch = rwa_batch(RwaSpec(3, a), 20_000, seed=1)
            assert float(np.max(np.abs(batch.values))) < a

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            rwa_batch(RwaSpec(2, 1.0), 0, seed=1)
        with pytest.raises(ValueError):
            rwa_batch(RwaSpec(2, 1.0), 10, seed=1, shards=0)
        with pytest.raises(ValueError):
            rwa_batch(RwaSpec(2, 1.0), 3, seed=1, shards=5)

    def test_shard_count_that_is_no_int_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew from a stream for a shard count no command can give")

        monkeypatch.setattr(rwa, "_stream", no_draw)
        with pytest.raises(TypeError):
            rwa_batch(RwaSpec(3), 10, seed=1, shards=2.5)

    def test_shard_count_is_recorded_as_the_int_it_reads(self):
        batch = rwa_batch(RwaSpec(3), 10, seed=1, shards=np.int64(2))
        assert batch.envelope_bytes() == rwa_batch(RwaSpec(3), 10, seed=1, shards=2).envelope_bytes()

    def test_size_is_recorded_as_the_int_it_reads(self):
        spec = RwaSpec(np.int64(3))
        assert type(spec.n) is int and spec == RwaSpec(3)
        assert rwa_batch(spec, 10, 1).envelope_bytes() == rwa_batch(RwaSpec(3), 10, 1).envelope_bytes()

    def test_scale_is_recorded_as_the_float_it_checks(self):
        from rwa_semicircle.moments import moment_rows

        def table_json(spec):
            return render.json_bytes([row.to_json_dict() for row in moment_rows(spec, 2)])

        for a, checked in ((np.float32(0.5), 0.5), (2, 2.0), (True, 1.0), (Fraction(1, 2), 0.5)):
            spec = RwaSpec(3, a)
            assert type(spec.a) is float and spec == RwaSpec(3, checked)
            assert rwa_batch(spec, 4, 1).envelope_bytes() == rwa_batch(RwaSpec(3, checked), 4, 1).envelope_bytes()
            assert table_json(spec) == table_json(RwaSpec(3, checked))

    def test_seed_is_recorded_as_the_int_it_reads(self):
        batch = rwa_batch(RwaSpec(3), 10, np.int64(1))
        assert batch.envelope_bytes() == rwa_batch(RwaSpec(3), 10, 1).envelope_bytes()

    def test_count_beyond_numpy_index_range_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew from a stream for a batch no array can hold")

        monkeypatch.setattr(rwa, "_stream", no_draw)
        with pytest.raises(ValueError, match=rf"count={2**61} draws of n=3 values"):
            rwa_batch(RwaSpec(3), 2**61, seed=1)
        with pytest.raises(ValueError, match=rf"count=1 draws of n={2**61} values"):
            rwa_batch(RwaSpec(2**61), 1, seed=1)


class TestSampleBatchSerialization:
    def test_csv_layout(self):
        batch = rwa_batch(RwaSpec(2, 1.0), 3, seed=0)
        text = batch.csv_bytes().decode("ascii")
        lines = text.split("\n")
        assert lines[0] == "value"
        assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows + trailing newline
        for line, v in zip(lines[1:4], batch.values):
            assert float(line) == v  # repr round-trips exactly

    def test_digest_is_sha256_of_csv(self):
        batch = rwa_batch(RwaSpec(2, 1.0), 10, seed=0)
        assert batch.values_digest() == hashlib.sha256(batch.csv_bytes()).hexdigest()

    def test_envelope_contents(self):
        batch = rwa_batch(RwaSpec(4, 2.5), 17, seed=99, shards=3)
        env = json.loads(batch.envelope_bytes())
        assert env == {
            "spec": {"n": 4, "a": 2.5},
            "seed": 99,
            "count": 17,
            "shards": 3,
            "values_sha256": batch.values_digest(),
        }

    def test_write_round_trip(self, tmp_path):
        batch = rwa_batch(RwaSpec(3, 1.0), 5, seed=4)
        csv_path = tmp_path / "batch.csv"
        env_path = tmp_path / "batch.json"
        batch.write_csv(csv_path)
        batch.write_envelope(env_path)
        assert csv_path.read_bytes() == batch.csv_bytes()
        loaded = json.loads(env_path.read_text())
        assert loaded["values_sha256"] == batch.values_digest()


class TestDistributionalProperties:
    def test_law_is_symmetric(self):
        """S and -S have the same law; two-sample KS on a 10^5 batch."""
        from twosample import ks_critical_two_sample, ks_statistic_two_sample

        values = rwa_batch(RwaSpec(n=4, a=1.0), 100_000, 97).values
        d = ks_statistic_two_sample(values, -values)
        assert d < ks_critical_two_sample(0.01, values.size, values.size)

    def test_agrees_with_direct_power_semicircle_sampler(self):
        """The average and the beta-based sampler of its target law must be
        indistinguishable: a cross-implementation two-sample KS check."""
        from rwa_semicircle.distributions import PowerSemicircle
        from twosample import ks_critical_two_sample, ks_statistic_two_sample

        for n in (2, 3, 5):
            values = rwa_batch(RwaSpec(n=n, a=1.0), 100_000, 31).values
            law = PowerSemicircle(lam=(n - 1) / 2.0, a=1.0)
            direct = law.sample(np.random.default_rng(77), 100_000)
            d = ks_statistic_two_sample(values, direct)
            assert d < ks_critical_two_sample(0.01, values.size, direct.size)

    def test_batch_mean_is_centered(self):
        values = rwa_batch(RwaSpec(n=5, a=1.0), 200_000, 13).values
        # Var S = E S^2 = (1/2)/((n+1)/2) = 1/6 at n = 5
        se = np.sqrt((1.0 / 6.0) / values.size)
        assert abs(float(np.mean(values))) < 4.0 * se
