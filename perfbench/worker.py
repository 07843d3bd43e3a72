"""One workload in one fresh process: set up, time the body, check outputs.

Started by run.py.  The process imports NumPy and the package from the
checkout's `src`, makes one tiny warm-up call, then runs the workload's
cells one after another, timing each.  Output checks run after the timed
body, and the result goes to a JSON file named on the command line.

A check that needs an independent reference (SciPy's KS statistic on the
same draws, the sampler's values behind a CSV) computes it in the first
process of a run.  Later processes of the run get the references of the
cells that passed through --reference and compare their own outputs with
them: the same seed gives the same draws and the same bytes, so the check
is the same and each process still checks its own outputs.

    python3 perfbench/worker.py --root . --workload verify --seed 7 \
        --tmp <dir inside the checkout> --out result.json \
        [--reference refs.json] [--trace] [--setup-only] [--cpus 0,1]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import layers
import tracing

# Workload shapes.  The exact grid is acceptance criteria 1 and 2 plus the
# four exact rows `rwa verify --n 64` computes; the Monte Carlo cells draw
# 10^6 values each.
GRID_N = range(2, 9)
GRID_K = range(0, 11)
N64_K = range(0, 4)
LEMMA_LISTS = 200
VERIFY_COUNT = 1_000_000
ARTIFACT_COUNT = 1_000_000
ARTIFACT_SIZES = (3, 64)
ARTIFACT_SHARDS = 2
KS_TOLERANCE = 1e-12


@dataclass
class Verdict:
    """Outcome of checking one cell.  `reference` holds what later processes
    of the run compare against (kept only when the cell passed)."""

    failures: list[str] = field(default_factory=list)
    false_rejection: bool = False
    reference: dict = field(default_factory=dict)


@dataclass
class Cell:
    """One timed unit of a workload: `run` is timed, `check` is not.

    `check(raw, reference)` gets the cell's reference from an earlier
    process of the run, or None.  `ops` is how many checked operations the
    cell holds; an exception in `run` or `check` fails all of them.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object, dict | None], Verdict]
    ops: int = 1


def cell_seed(seed: int, index: int) -> int:
    """Per-cell seed: SeedSequence(seed, spawn_key=(index,)), first word."""
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def _cli(argv: list[str]) -> int:
    """Run `rwa <argv>` in-process with its stdout captured; return the exit code."""
    from rwa_semicircle import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# exact-grid


def lemma_list(seed: int) -> tuple[tuple[int, ...], int]:
    """Criterion 2's random draw: 1..6 half-integers (as 2q in 1..5) and r <= 8."""
    rng = random.Random(seed)
    length = rng.randint(1, 6)
    twice = tuple(rng.randint(1, 5) for _ in range(length))
    return twice, rng.randint(0, 8)


def _pair_check(label: str):
    def check(raw, reference) -> Verdict:
        left, right = raw
        return Verdict([] if left == right else [f"{label}: {left} != {right}"])

    return check


def exact_grid_cells(seed: int) -> list[Cell]:
    import rwa_semicircle as rs

    cells = []
    for n in GRID_N:
        for k in GRID_K:

            def run(n=n, k=k):
                return (
                    rs.rwa_moment_oracle(n, 2 * k),
                    rs.rwa_moment_closed(n, k),
                    rs.rwa_moment_oracle(n, 2 * k + 1, literal_parity=True),
                )

            def check(raw, reference, n=n, k=k) -> Verdict:
                even, closed, odd = raw
                failures = []
                if even != closed:
                    failures.append(f"n={n} k={k}: oracle {even} != closed {closed}")
                if odd != 0:
                    failures.append(f"n={n} r={2 * k + 1}: literal odd moment {odd} != 0")
                return Verdict(failures)

            cells.append(Cell(f"grid n={n} k={k}", run, check, ops=2))
    for k in N64_K:
        cells.append(
            Cell(
                f"n64 k={k}",
                lambda k=k: (rs.rwa_moment_oracle(64, 2 * k), rs.rwa_moment_closed(64, k)),
                _pair_check(f"n=64 k={k}"),
            )
        )
    for i in range(LEMMA_LISTS):
        twice, r = lemma_list(cell_seed(seed, i))

        def run(twice=twice, r=r):
            params = tuple(rs.HalfInteger(t) for t in twice)
            return rs.lemma_lhs(params, r), rs.lemma_rhs(params, r)

        cells.append(Cell(f"lemma {i} 2q={list(twice)} r={r}", run, _pair_check(f"lemma {i}")))
    return cells


def exact_grid_warmup(tmp: Path) -> None:
    import rwa_semicircle as rs

    if rs.rwa_moment_oracle(2, 2) != rs.rwa_moment_closed(2, 1):
        raise RuntimeError("warm-up moment pair disagrees")


# ---------------------------------------------------------------------------
# verify


def _ks_reference(n: int, a: float, seed: int, lam: float, shards: int) -> float:
    """SciPy's one-sample KS statistic on the same draws, against
    Beta(lam + 1/2, lam + 1/2) mapped onto (-a, a)."""
    from scipy import stats

    import rwa_semicircle as rs

    values = rs.rwa_batch(rs.RwaSpec(n=n, a=a), VERIFY_COUNT, seed, shards=shards).values
    s = lam + 0.5
    return float(stats.kstest(values, stats.beta(s, s, loc=-a, scale=2.0 * a).cdf).statistic)


def classify_verify(code: int, payload: dict, reference_d: float, *, negative: bool) -> Verdict:
    """Sort one `rwa verify` outcome into pass, failed operation, or a
    statistical rejection of a true null (information only).

    Failed: an exact pair that is not equal, a KS statistic more than
    KS_TOLERANCE from the reference, or a wrong exit code (the negative
    control must exit 1 with the KS test failing).
    """
    failures = []
    gap = abs(payload["ks_statistic"] - reference_d)
    if not gap <= KS_TOLERANCE:
        failures.append(f"KS statistic {payload['ks_statistic']!r} vs reference {reference_d!r} (gap {gap:.3g})")
    for row in payload["moment_rows"]:
        if not row["consistent"]:
            failures.append(f"order {row['order']}: closed form != oracle")
    false_rejection = False
    if negative:
        if code != 1 or payload["ks_pass"]:
            failures.append(f"negative control not rejected (exit {code}, ks_pass {payload['ks_pass']})")
    elif code == 1 and not payload["overall_pass"] and not failures:
        false_rejection = True
    elif code != 0:
        failures.append(f"exit code {code}, overall_pass {payload['overall_pass']}")
    return Verdict(failures, false_rejection, {"ks_reference": reference_d})


def verify_cells(seed: int, tmp: Path) -> list[Cell]:
    specs = [
        # (cell id, n, a, lambda override)
        ("verify n=3 a=1", 3, 1.0, None),
        ("verify n=8 a=2.5", 8, 2.5, None),
        ("verify n=3 lambda=3 (negative control)", 3, 1.0, 3.0),
    ]
    cells = []
    for index, (cid, n, a, lam) in enumerate(specs):
        cseed = cell_seed(seed, index)
        out = tmp / f"verify-{index}.json"
        argv = [
            "verify", "--n", str(n), "--a", repr(a), "--count", str(VERIFY_COUNT),
            "--k-max", "3", "--shards", "1", "--seed", str(cseed), "--json", str(out),
        ]
        if lam is not None:
            argv += ["--lambda-override", repr(lam)]

        def run(argv=argv):
            return _cli(argv)

        def check(code, reference, n=n, a=a, lam=lam, cseed=cseed, out=out) -> Verdict:
            try:
                payload = json.loads(out.read_text(encoding="ascii"))
            finally:
                out.unlink(missing_ok=True)
            if reference is None:
                null = (n - 1) / 2.0 if lam is None else lam
                ks = _ks_reference(n, a, cseed, null, shards=1)
            else:
                ks = reference["ks_reference"]
            return classify_verify(code, payload, ks, negative=lam is not None)

        cells.append(Cell(cid, run, check))
    return cells


def verify_warmup(tmp: Path) -> None:
    code = _cli(["verify", "--n", "2", "--count", "100", "--k-max", "0", "--seed", "0"])
    if code not in (0, 1):
        raise RuntimeError(f"warm-up verify exited {code}")


# ---------------------------------------------------------------------------
# artifact


def check_artifact(code: int, csv_path: Path, envelope_path: Path, values=None, reference=None) -> Verdict:
    """The CSV must parse back bit-identical to `values` (or, given the
    reference of an earlier process that checked it so, have the same
    SHA-256), and the envelope's digest must be the SHA-256 of the CSV file
    as written."""
    import numpy as np

    if code != 0:
        return Verdict([f"exit code {code}"])
    data = csv_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    failures = []
    if reference is not None:
        if digest != reference["values_sha256"]:
            failures.append(f"CSV digest {digest} differs from the run's checked CSV {reference['values_sha256']}")
    else:
        lines = data.decode("ascii").split("\n")
        if lines[0] != "value" or lines[-1] != "":
            failures.append("CSV header or final newline wrong")
        parsed = np.array([float(x) for x in lines[1:-1]], dtype=np.float64)
        if parsed.shape != values.shape or not np.array_equal(parsed.view(np.uint64), values.view(np.uint64)):
            failures.append("CSV does not parse back bit-identical to the sampler's values")
    envelope = json.loads(envelope_path.read_text(encoding="ascii"))
    if envelope.get("values_sha256") != digest:
        failures.append(f"envelope digest {envelope.get('values_sha256')} != file digest {digest}")
    return Verdict(failures, reference={"values_sha256": digest})


def artifact_cells(seed: int, tmp: Path) -> list[Cell]:
    import rwa_semicircle as rs

    cells = []
    for index, n in enumerate(ARTIFACT_SIZES):
        cseed = cell_seed(seed, index)
        csv_path = tmp / f"artifact-{n}.csv"
        env_path = tmp / f"artifact-{n}.json"
        argv = [
            "sample", "rwa", "--n", str(n), "--count", str(ARTIFACT_COUNT), "--seed", str(cseed),
            "--shards", str(ARTIFACT_SHARDS), "--out", str(csv_path), "--envelope", str(env_path),
        ]

        def run(argv=argv):
            return _cli(argv)

        def check(code, reference, n=n, cseed=cseed, csv_path=csv_path, env_path=env_path) -> Verdict:
            try:
                if reference is not None:
                    return check_artifact(code, csv_path, env_path, reference=reference)
                values = rs.rwa_batch(rs.RwaSpec(n=n), ARTIFACT_COUNT, cseed, shards=ARTIFACT_SHARDS).values
                return check_artifact(code, csv_path, env_path, values)
            finally:
                csv_path.unlink(missing_ok=True)
                env_path.unlink(missing_ok=True)

        cells.append(Cell(f"sample rwa n={n} shards={ARTIFACT_SHARDS}", run, check))
    return cells


def artifact_warmup(tmp: Path) -> None:
    code = _cli(
        ["sample", "rwa", "--n", "2", "--count", "10", "--seed", "0",
         "--out", str(tmp / "warm.csv"), "--envelope", str(tmp / "warm.json")]
    )
    if code != 0:
        raise RuntimeError(f"warm-up sample exited {code}")


WORKLOADS = {
    "exact-grid": (lambda seed, tmp: exact_grid_cells(seed), exact_grid_warmup),
    "verify": (verify_cells, verify_warmup),
    "artifact": (artifact_cells, artifact_warmup),
}


# ---------------------------------------------------------------------------
# running a workload


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cells(cells: list[Cell], tracer=None, references: dict | None = None) -> dict:
    """Time each cell's `run`, then check all of them; return the tallies."""
    references = references or {}
    raws = []
    marks = []  # per cell: start, end (perf_counter) and process CPU seconds
    cpu0 = _cpu_s()
    t_body = time.perf_counter()
    for cell in cells:
        if tracer is not None:
            tracer.cell = cell.id
            span = tracer.open("cell")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raws.append((cell.run(), None))
        except Exception:
            raws.append((None, traceback.format_exc()))
        marks.append((t0, time.perf_counter(), time.process_time() - c0))
        if tracer is not None:
            tracer.close(span)
    t_end = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    cell_s = [end - start for start, end, _ in marks]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.cell = None
        tracer.enabled = False

    attempted = failed = false_rejections = 0
    failures = []
    passed_refs = {}
    for cell, (raw, error) in zip(cells, raws):
        attempted += cell.ops
        if error is None:
            try:
                verdict = cell.check(raw, references.get(cell.id))
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += cell.ops
            failures.append(f"{cell.id}: {error}")
            continue
        failed += min(len(verdict.failures), cell.ops)
        failures.extend(f"{cell.id}: {msg}" for msg in verdict.failures)
        false_rejections += verdict.false_rejection
        if verdict.reference and not verdict.failures:
            passed_refs[cell.id] = verdict.reference
    return {
        "body": (t_body, t_end),
        "cells": marks,
        "verdict_s": t_end - t_body,
        "slowest_cell_s": max(cell_s),
        "slowest_cell": cells[cell_s.index(max(cell_s))].id,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "false_rejections": false_rejections,
        "references": passed_refs,
    }


def _import_package(root: Path):
    """Import NumPy and the package, insisting the package is the checkout's."""
    import numpy  # noqa: F401

    import rwa_semicircle
    import rwa_semicircle.cli  # noqa: F401

    src = (root / "src").resolve()
    where = Path(rwa_semicircle.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"rwa_semicircle imported from {where}, not from {src}")
    return rwa_semicircle


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpus", default=None, help="comma-separated cores to run on")
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    package = _import_package(args.root)
    make_cells, warmup = WORKLOADS[args.workload]
    warmup(args.tmp)
    cells = make_cells(args.seed, args.tmp)
    ready = time.perf_counter()
    if args.setup_only:
        args.out.write_text(json.dumps({"ready": ready}))
        return 0

    tracer = missing = None
    if args.trace:
        tracer = tracing.Tracer()
        missing, _ = tracing.install(tracer)
    references = json.loads(args.reference.read_text()) if args.reference else None
    result = run_cells(cells, tracer, references)
    result["ready"] = ready
    result["env"] = {
        "numpy": sys.modules["numpy"].__version__,
        "package": getattr(package, "__version__", "unknown"),
    }
    if tracer is not None:
        tracer.finish()
        result["layers"] = layers.layer_metrics(
            tracing.summarize(tracer),
            missing,
            artifacts=len(cells) if args.workload == "artifact" else 0,
            false_rejections=result["false_rejections"],
        )
        result["missing"] = missing
    args.out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
