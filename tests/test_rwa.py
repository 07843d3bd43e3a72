import json
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from rwa_semicircle import rwa
from rwa_semicircle.distributions import sample_spacings
from rwa_semicircle.rwa import RwaSpec, SampleBatch, rwa_batch


def _whole_block_batch(spec: RwaSpec, count: int, seed: int, shards: int) -> np.ndarray:
    """Draw contract v1 read literally: each shard draws its whole (count, n-1)
    weight block, then its whole (count, n) arcsine block, from its own
    stream; the shards are concatenated in order."""
    base, extra = divmod(count, shards)
    pieces = []
    for i in range(shards):
        rows = base + (1 if i < extra else 0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        weights = sample_spacings(spec.n, rng, size=rows)
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

    def test_target_law_names_a_size_without_one(self):
        assert RwaSpec(n=1001).target_law().lam == 500.0
        with pytest.raises(ValueError, match="n=1002 has no target law: exponent must be p/2"):
            RwaSpec(n=1002).target_law()
        # (n - 1)/2 beyond the float range is no exponent either.
        with pytest.raises(ValueError, match="has no target law: integer division result too large"):
            RwaSpec(n=10**400).target_law()

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

        def no_pool(*args, **kwargs):
            raise AssertionError("one core must not start a thread pool")

        monkeypatch.setattr(rwa, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(rwa, "_available_cores", lambda: 1)
        inline = rwa_batch(spec, 100, 2024, shards=2)
        assert inline.values.tobytes() == pooled.values.tobytes()


class TestChunkedDraw:
    """The chunked sampler reads each chunk from stream offsets; whatever the
    chunk size, worker count and shard count, its bytes are the whole-block
    draw's."""

    @pytest.mark.parametrize("shards", [1, 3])
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
