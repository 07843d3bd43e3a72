"""Acceptance gate.

One test per criterion; each prints a single machine-greppable line

    ACCEPTANCE <number> <name>: PASS|FAIL (<detail>)

and then asserts, so a failing criterion fails the suite honestly.  Run with
``pytest -v`` to get one status line per criterion from pytest itself; add
``-s`` to see the ACCEPTANCE lines on passing runs too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from rwa_semicircle.verify import VerifyConfig, run_verification
from rwa_semicircle.distributions import Arcsine, PowerSemicircle
from rwa_semicircle.gof import ks_critical_one_sample, ks_statistic
from rwa_semicircle.exactmath import HalfInteger
from rwa_semicircle.moments import (
    lemma_lhs,
    lemma_rhs,
    psc_moment,
    rwa_moment_closed,
    rwa_moment_oracle,
)
from rwa_semicircle.rwa import RwaSpec, rwa_batch

BATTERY_SEED = 1234


def _cell_seed(base: int, index: int) -> int:
    """Stable per-cell sub-seed so every cell of a sweep draws independently."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=(index,)).generate_state(1)[0])


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_matches_closed_form():
    """Both exact routes agree for n = 2..8, k = 0..10, and every odd moment
    vanishes exactly when checked the slow way (no parity shortcut)."""
    start = time.perf_counter()
    even_failures = []
    odd_failures = []
    for n in range(2, 9):
        for k in range(0, 11):
            if rwa_moment_oracle(n, 2 * k) != rwa_moment_closed(n, k):
                even_failures.append((n, k))
            if rwa_moment_oracle(n, 2 * k + 1, literal_parity=True) != 0:
                odd_failures.append((n, 2 * k + 1))
    elapsed = time.perf_counter() - start
    ok = not even_failures and not odd_failures and elapsed < 60.0
    _report(
        1,
        "exact moment identity",
        ok,
        f"77 even identities, 77 odd vanishing checks, "
        f"{len(even_failures) + len(odd_failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_2_lemma_on_random_parameter_lists():
    """200 random half-integer parameter lists: composition sum equals the
    gamma ratio exactly for a random exponent r <= 8 each time."""
    start = time.perf_counter()
    rng = random.Random(BATTERY_SEED)
    failures = 0
    for _ in range(200):
        length = rng.randint(1, 6)
        params = tuple(HalfInteger(rng.randint(1, 5)) for _ in range(length))
        r = rng.randint(0, 8)
        if lemma_lhs(params, r) != lemma_rhs(params, r):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(2, "gamma-ratio identity", ok, f"200 random lists, {failures} failures, {elapsed:.1f}s")


def test_criterion_3_anchor_values_and_catalan():
    """Known exact values, plus the Catalan sequence from both routes at n=3."""
    anchors = [
        (2, 1, Fraction(1, 3)),
        (3, 1, Fraction(1, 4)),
        (3, 2, Fraction(1, 8)),
        (3, 3, Fraction(5, 64)),
    ]
    bad = []
    for n, k, expected in anchors:
        if rwa_moment_closed(n, k) != expected or rwa_moment_oracle(n, 2 * k) != expected:
            bad.append((n, k))
    catalan_hits = 0
    for k in range(0, 11):
        catalan = Fraction(math.comb(2 * k, k), k + 1)
        if (
            rwa_moment_closed(3, k) * 4**k == catalan
            and psc_moment(Fraction(1), k) * 4**k == catalan
        ):
            catalan_hits += 1
    ok = not bad and catalan_hits == 11
    _report(3, "anchor moments", ok, f"4 anchors, {catalan_hits}/11 Catalan orders")


def test_criterion_4_monte_carlo_battery():
    """n in {2,3,4,5,8} x a in {1, 2.5}, 10^5 draws each: one-sample KS below
    1.628/sqrt(N) and every even moment up to order 6 within 4 standard errors."""
    start = time.perf_counter()
    sizes = [2, 3, 4, 5, 8]
    scales = [1.0, 2.5]
    count = 100_000
    literal_threshold = 1.628 / math.sqrt(count)
    worst_ks_ratio = 0.0
    worst_z = 0.0
    failures = []
    for index, (n, a) in enumerate(itertools.product(sizes, scales)):
        cfg = VerifyConfig(
            spec=RwaSpec(n=n, a=a),
            sample_count=count,
            seed=_cell_seed(BATTERY_SEED, index),
            max_moment_k=3,
            alpha=0.01,
        )
        outcome = run_verification(cfg)
        worst_ks_ratio = max(worst_ks_ratio, outcome.ks_statistic / literal_threshold)
        for row in outcome.moment_rows:
            if row.std_error > 0:
                z = abs(row.empirical - float(row.closed_form)) / row.std_error
                worst_z = max(worst_z, z)
        if not (outcome.overall_pass and outcome.ks_statistic < literal_threshold):
            failures.append((n, a))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        4,
        "distributional battery",
        ok,
        f"10 cells x {count} draws, worst KS ratio {worst_ks_ratio:.2f}, "
        f"worst moment z {worst_z:.2f}, failures {failures}, {elapsed:.1f}s",
    )


def test_criterion_5_degenerate_family_members():
    """Exponent 0 is the arcsine density; exponent 1/2 is uniform (checked by
    KS); the two-variable average itself is uniform (checked by KS)."""
    grid = np.linspace(-1.0, 1.0, 1003)[1:-1]
    psc0 = PowerSemicircle(lam=0.0, a=1.0)
    arc = Arcsine(a=1.0)
    rel = np.max(np.abs(psc0.pdf(grid) - arc.pdf(grid)) / arc.pdf(grid))

    count = 100_000
    critical = ks_critical_one_sample(0.01, count)
    uniform_cdf = lambda x: np.clip((np.asarray(x, dtype=float) + 1.0) / 2.0, 0.0, 1.0)

    rng = np.random.default_rng(_cell_seed(BATTERY_SEED, 100))
    half = PowerSemicircle(lam=0.5, a=1.0).sample(rng, count)
    d_half = ks_statistic(half, uniform_cdf)

    pair = rwa_batch(RwaSpec(n=2, a=1.0), count, _cell_seed(BATTERY_SEED, 101))
    d_pair = ks_statistic(pair.values, uniform_cdf)

    ok = rel < 1e-12 and d_half < critical and d_pair < critical
    _report(
        5,
        "degenerate members",
        ok,
        f"density rel err {rel:.2e}, KS {d_half:.5f}/{d_pair:.5f} vs {critical:.5f}",
    )


def test_criterion_6_scale_equivariance():
    """Scaling the arcsine inputs scales the average: same seed at scale a and
    scale 1 must match element-wise to 1e-12 relative."""
    worst = 0.0
    for index, (n, a) in enumerate(itertools.product([2, 5], [0.5, 3.0])):
        seed = _cell_seed(BATTERY_SEED, 200 + index)
        scaled = rwa_batch(RwaSpec(n=n, a=a), 20_000, seed).values
        unit = rwa_batch(RwaSpec(n=n, a=1.0), 20_000, seed).values
        denom = np.maximum(np.abs(a * unit), 1e-300)
        worst = max(worst, float(np.max(np.abs(scaled - a * unit) / denom)))
    ok = worst <= 1e-12
    _report(6, "scale equivariance", ok, f"worst rel diff {worst:.2e}")


def test_criterion_7_wrong_exponent_is_rejected():
    """Forcing exponent 3 on the three-variable average must fail the KS test:
    the verifier can tell the right law from a wrong one."""
    cfg = VerifyConfig(
        spec=RwaSpec(n=3, a=1.0),
        sample_count=100_000,
        seed=_cell_seed(BATTERY_SEED, 300),
        max_moment_k=3,
        alpha=0.01,
        lambda_override=3.0,
    )
    outcome = run_verification(cfg)
    ok = (not outcome.ks_pass) and (not outcome.overall_pass)
    _report(
        7,
        "negative control",
        ok,
        f"D = {outcome.ks_statistic:.4f} vs critical {outcome.ks_critical:.5f}, rejected",
    )


def test_criterion_8_byte_identical_reruns():
    """Every randomized artifact, rerun with the same seed (and shard count),
    reproduces byte for byte: sample CSV, digest envelope, verify JSON."""
    spec = RwaSpec(n=3, a=2.5)
    checks = []

    b1 = rwa_batch(spec, 5_000, BATTERY_SEED)
    b2 = rwa_batch(spec, 5_000, BATTERY_SEED)
    checks.append(b1.csv_bytes() == b2.csv_bytes())
    checks.append(b1.envelope_bytes() == b2.envelope_bytes())

    s1 = rwa_batch(spec, 5_000, BATTERY_SEED, shards=3)
    s2 = rwa_batch(spec, 5_000, BATTERY_SEED, shards=3)
    checks.append(s1.csv_bytes() == s2.csv_bytes())
    checks.append(hashlib.sha256(s1.csv_bytes()).hexdigest() == s1.values_digest())

    cfg = VerifyConfig(spec=RwaSpec(n=4, a=1.0), sample_count=2_000, seed=BATTERY_SEED, max_moment_k=2)
    j1 = json.dumps(run_verification(cfg).to_json_dict(), indent=2, sort_keys=True)
    j2 = json.dumps(run_verification(cfg).to_json_dict(), indent=2, sort_keys=True)
    checks.append(j1 == j2)

    ok = all(checks)
    _report(8, "reproducibility", ok, f"{sum(checks)}/{len(checks)} artifacts byte-identical")
