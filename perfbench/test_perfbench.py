"""Tests of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench/test_perfbench.py

The exact-grid test runs the whole traced grid (about 45 s on a 2-core
machine); the others take a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import rwa_semicircle as rs  # noqa: E402
from rwa_semicircle import cli  # noqa: E402,F401  (loaded so its bindings are wrapped)
from rwa_semicircle.moments import oracle_term_count  # noqa: E402


def _span(i, start, end, parent=None, leaf_s=0.0):
    sp = tracing.Span(i, f"s{i}", start, parent, None, end=end)
    sp.leaf_s = leaf_s
    return sp


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 6.0, 7.0, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    # Two children of span 0 overlap on [3, 4]; a third sticks out past its
    # parent's end and only its inside part counts.
    spans = [
        _span(0, 0.0, 10.0, leaf_s=0.5),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 9.0, 12.0, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0)


def test_tracer_charges_leaf_time_to_the_open_span():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    tracer.add_leaf("leaf", 0.25, items=3)
    tracer.close(outer)
    tracer.finish()
    summary = tracing.summarize(tracer)
    assert summary["leaf"]["calls"] == 1
    assert summary["leaf"]["counts"]["items"] == 3
    assert summary["outer"]["leaf_items"]["leaf"] == 3
    assert summary["outer"]["self_s"] == pytest.approx(outer.duration - 0.25)


# ---------------------------------------------------------------------------
# fail_ratio classification


def _payload(*, ks=0.001, ks_pass=True, overall=True, consistent=True):
    return {
        "ks_statistic": ks,
        "ks_pass": ks_pass,
        "overall_pass": overall,
        "moment_rows": [{"order": 0, "consistent": True}, {"order": 2, "consistent": consistent}],
    }


def test_wrong_exact_value_is_a_failed_operation(monkeypatch):
    real = rs.rwa_moment_closed
    monkeypatch.setattr(rs, "rwa_moment_closed", lambda n, k: real(n, k) + (1 if (n, k) == (2, 1) else 0))
    cells = [c for c in worker.exact_grid_cells(0) if c.id in ("grid n=2 k=0", "grid n=2 k=1", "n64 k=0")]
    result = worker.run_cells(cells)
    assert (result["attempted"], result["failed"]) == (5, 1)
    assert "grid n=2 k=1" in result["failures"][0]


def test_exception_fails_every_operation_of_its_cell():
    def boom():
        raise ValueError("boom")

    cells = [worker.Cell("bad", boom, lambda raw, reference: worker.Verdict(), ops=2)]
    result = worker.run_cells(cells)
    assert (result["attempted"], result["failed"]) == (2, 2)


def test_positive_cell_statistical_fail_is_not_a_failure():
    verdict = worker.classify_verify(1, _payload(ks_pass=False, overall=False), 0.001, negative=False)
    assert verdict.failures == [] and verdict.false_rejection


@pytest.mark.parametrize(
    "code, payload, reference, negative",
    [
        (0, _payload(), 0.001 + 1e-9, False),  # KS disagrees with the reference
        (0, _payload(consistent=False), 0.001, False),  # exact pair not equal
        (0, _payload(), 0.001, True),  # negative control accepted
        (1, _payload(ks_pass=True, overall=False), 0.001, True),  # rejected, but not by KS
        (2, _payload(), 0.001, False),  # usage error
    ],
)
def test_verify_failures(code, payload, reference, negative):
    verdict = worker.classify_verify(code, payload, reference, negative=negative)
    assert verdict.failures and not verdict.false_rejection


def test_real_false_rejection_is_counted_as_information(tmp_path):
    # n=8 at seed 11 with 10^6 draws: D = 0.00165 against a critical 0.00163.
    out = tmp_path / "v.json"
    code = worker._cli(["verify", "--n", "8", "--count", "1000000", "--seed", "11", "--json", str(out)])
    payload = json.loads(out.read_text())
    reference = worker._ks_reference(8, 1.0, 11, 3.5, shards=1)
    verdict = worker.classify_verify(code, payload, reference, negative=False)
    assert code == 1 and not payload["ks_pass"]
    assert verdict.failures == [] and verdict.false_rejection


def test_artifact_check_catches_a_lossy_csv_and_a_stale_digest(tmp_path):
    batch = rs.rwa_batch(rs.RwaSpec(n=3), 50, 5)
    csv, env = tmp_path / "a.csv", tmp_path / "a.json"
    batch.write_csv(csv)
    batch.write_envelope(env)
    verdict = worker.check_artifact(0, csv, env, batch.values)
    assert verdict.failures == []
    # A later process of the run compares with the first one's checked digest.
    assert worker.check_artifact(0, csv, env, reference=verdict.reference).failures == []
    assert worker.check_artifact(0, csv, env, reference={"values_sha256": "0" * 64}).failures

    csv.write_text("value\n" + "".join(f"{v:.6g}\n" for v in batch.values))
    failures = worker.check_artifact(0, csv, env, batch.values).failures
    assert any("bit-identical" in f for f in failures)
    assert any("digest" in f for f in failures)


# ---------------------------------------------------------------------------
# traced counts


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)
    try:
        yield tracer, missing
    finally:
        undo()


def _layer_metrics(tracer, missing, **context):
    tracer.finish()
    return layers.layer_metrics(tracing.summarize(tracer), missing, **context)


def test_exact_grid_yield_count_matches_the_term_counts(traced):
    tracer, missing = traced
    seed = 4
    result = worker.run_cells(worker.exact_grid_cells(seed), tracer)
    assert result["failed"] == 0
    metrics = _layer_metrics(tracer, missing, artifacts=0, false_rejections=0)

    grid = sum(
        oracle_term_count(n, 2 * k) + oracle_term_count(n, 2 * k + 1, literal_parity=True)
        for n in worker.GRID_N
        for k in worker.GRID_K
    ) + sum(oracle_term_count(64, 2 * k) for k in worker.N64_K)
    assert grid == 3_492_764
    lemma = sum(
        rs.composition_count(r, len(twice))
        for twice, r in (worker.lemma_list(worker.cell_seed(seed, i)) for i in range(worker.LEMMA_LISTS))
    )
    assert metrics["exactmath.compositions.yielded"]["value"] == grid + lemma
    assert metrics["moments.rwa_moment_oracle.literal.calls"]["value"] == 77
    assert metrics["moments.rwa_moment_oracle.even.calls"]["value"] == 81


def test_each_artifact_renders_its_csv_twice(traced, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "ARTIFACT_COUNT", 2_000)
    tracer, missing = traced
    cells = worker.artifact_cells(9, tmp_path)
    result = worker.run_cells(cells, tracer)
    assert result["failed"] == 0
    metrics = _layer_metrics(tracer, missing, artifacts=len(cells), false_rejections=0)
    assert metrics["rwa.SampleBatch.csv_renders_per_artifact"]["value"] == 2.0
    assert metrics["rwa.rwa_batch.draws"]["value"] == 2 * 2_000
    assert metrics["rwa.rwa_batch.workers"]["value"] >= 1


def test_missing_wrap_target_is_reported_not_zeroed(monkeypatch):
    monkeypatch.setattr(
        tracing, "LAYERS", tracing.LAYERS + (tracing.Layer("gof.ks_statistic", "gof", "no_such_name"),)
    )
    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)
    undo()
    assert "no_such_name" in missing["gof.ks_statistic"]
    metrics = _layer_metrics(tracer, missing, artifacts=0, false_rejections=0)
    assert metrics["gof.ks_statistic.self_s"]["value"] is None
    assert metrics["special.betainc.self_s"]["value"] == 0.0


def test_undo_restores_the_package():
    before = (rs.rwa_batch, cli.rwa_batch, rs.SampleBatch.__dict__["csv_bytes"])
    _, undo = tracing.install(tracing.Tracer())
    assert cli.rwa_batch is not before[1]
    undo()
    assert (rs.rwa_batch, cli.rwa_batch, rs.SampleBatch.__dict__["csv_bytes"]) == before


# ---------------------------------------------------------------------------
# time at the reference speed


def _samples(start, end, used, step=0.05):
    return [(start + i * step, used) for i in range(round((end - start) / step))]


def test_speed_clock_scales_time_by_the_probed_speed():
    # The probe loop takes twice the reference time: the core runs at half speed.
    clock = speed.SpeedClock([_samples(0.0, 10.0, 2 * speed.REFERENCE_S)])
    assert clock.elapsed(2.0, 6.0) == pytest.approx(2.0)
    assert clock.elapsed(-1.0, 12.0) == pytest.approx(6.5)  # the ends extend outwards
    assert clock.speed_range() == pytest.approx((0.5, 0.5, 0.5))


def test_speed_clock_integrates_a_change_of_speed_and_averages_cores():
    fast_then_slow = _samples(0.0, 5.0, speed.REFERENCE_S) + _samples(5.0, 10.0, 2 * speed.REFERENCE_S)
    clock = speed.SpeedClock([fast_then_slow])
    assert clock.elapsed(1.0, 9.0) == pytest.approx(4.0 + 2.0, abs=0.05)
    steady = _samples(0.0, 10.0, speed.REFERENCE_S)
    both = speed.SpeedClock([fast_then_slow, steady])
    assert both.elapsed(1.0, 9.0) == pytest.approx((6.0 + 8.0) / 2, abs=0.05)


def test_rescale_keeps_the_measured_times():
    clock = speed.SpeedClock([_samples(0.0, 10.0, 2 * speed.REFERENCE_S)])
    rep = {
        "spawned_at": 0.0, "ready": 0.4, "body": (1.0, 5.0),
        "cells": [(1.0, 2.0, 1.0), (2.0, 5.0, 1.5)],
        "setup_s": 0.4, "verdict_s": 4.0, "slowest_cell_s": 3.0, "cpu_s": 2.5,
    }
    run.rescale(rep, clock)
    assert rep["measured"] == {"setup_s": 0.4, "verdict_s": 4.0, "slowest_cell_s": 3.0, "cpu_s": 2.5}
    assert rep["setup_s"] == pytest.approx(0.2)
    assert rep["verdict_s"] == pytest.approx(2.0)
    assert rep["slowest_cell_s"] == pytest.approx(1.5)
    assert rep["cpu_s"] == pytest.approx(1.25)


def test_probe_samples_each_core_until_exit():
    cpus = run._cpus()
    with speed.Probe(cpus) as probe:
        time.sleep(0.3)
    assert all(len(probe.samples[cpu]) >= 2 for cpu in cpus)
    assert not any(t.is_alive() for t in probe._threads)


# ---------------------------------------------------------------------------
# the command


def test_declared_metrics_are_the_ones_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rep = {
        "verdict_s": 1.0, "slowest_cell_s": 0.5, "cpu_s": 1.0, "peak_rss_mb": 10.0,
        "attempted": 4, "failed": 1,
    }
    reported = run.end_to_end([rep], [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in reported.items()}
    assert reported["pass_ratio"]["value"] == 0.75
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == dict({k: v[0] for k, v in layers.METRICS.items()}, **{"trace.overhead_s": "s"})
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
