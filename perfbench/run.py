"""Benchmark of rwa-semicircle: one workload, fresh processes, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 10 --trace 0

Each repetition runs the workload in its own fresh interpreter
(perfbench/worker.py), one at a time, importing the package from the
checkout's `src`.  Probe threads in this process measure the speed of
each core all along (perfbench/speed.py), and every time metric is given
at the probes' reference speed, so that the host's drift does not show as
a change of the program.  A single-threaded workload's process is pinned
to one core and rescaled by that core's probe.  With --trace 0 the end-to-end metrics are medians
over the repetitions made within --seconds (at least one); set-up time is
also sampled by extra processes that only set up.  With --trace 1 one untraced
and one traced process run, and the per-layer metrics come from the traced
one.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The workloads, their metrics and bounds are declared in BENCHMARK.json.
Temporary files go to a directory inside the checkout that is removed at
the end.  Exit status is 0 when the run completed (whether or not every
output was correct), 2 on bad usage or when the package is not there, and
1 when a workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-grid", "verify", "artifact")
SETUP_PROBES = 7
# A run must end within 180 s; no process is started that could not finish
# before this many seconds from the start.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Workloads whose process runs one thread.  It is pinned to one core, so
# that the probe of that core measures the speed it gets; the others use
# every core and are rescaled by the cores' mean speed.
SINGLE_THREADED = ("exact-grid", "verify")


class WorkerFailed(RuntimeError):
    pass


def _cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def _worker_cpus(workload: str) -> list[int]:
    return _cpus()[-1:] if workload in SINGLE_THREADED else _cpus()


def _child_env(cpus: list[int]) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # No native library may start more threads than this process may use.
    for var in THREAD_VARS:
        env.setdefault(var, str(len(cpus)))
    return env


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or "unknown"


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, tmp: Path, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = started
        self.cpus = _worker_cpus(workload)
        self.env = _child_env(self.cpus)
        self.spawned = 0
        # Output references of the run's first timed process (see worker.py).
        self.references: Path | None = None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, *flags: str) -> dict:
        timed = "--setup-only" not in flags
        if timed and self.references is not None:
            flags += ("--reference", str(self.references))
        self.spawned += 1
        out = self.tmp / f"result-{self.spawned}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--root", str(ROOT), "--workload", self.workload, "--seed", str(self.seed),
            "--tmp", str(self.tmp), "--out", str(out),
            "--cpus", ",".join(map(str, self.cpus)), *flags,
        ]
        # time.perf_counter is CLOCK_MONOTONIC, shared by parent and child,
        # so the child's "ready" stamp minus this one is its set-up time.
        spawned_at = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=max(self.remaining(), 1.0)
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker {' '.join(flags)} timed out") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"worker {' '.join(flags)} exited {proc.returncode}")
        result = json.loads(out.read_text(encoding="ascii"))
        out.unlink()
        result["spawned_at"] = spawned_at
        result["setup_s"] = result["ready"] - spawned_at
        result["wall_s"] = time.perf_counter() - spawned_at
        if timed and self.references is None:
            self.references = self.tmp / "references.json"
            self.references.write_text(json.dumps(result["references"]), encoding="ascii")
        return result


def _median(values) -> float:
    return float(statistics.median(values))


def measure(runner: Runner, seconds: int) -> tuple[list[dict], list[tuple[float, float]]]:
    """Set-up probes, then timed repetitions until `seconds` have passed.

    Returns the repetitions' results and every process's set-up interval.
    """
    setups = []
    for _ in range(SETUP_PROBES):
        only = runner.spawn("--setup-only")
        setups.append((only["spawned_at"], only["ready"]))
    reps = []
    t0 = time.perf_counter()
    while True:
        rep = runner.spawn()
        reps.append(rep)
        setups.append((rep["spawned_at"], rep["ready"]))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or rep["wall_s"] * 1.5 > runner.remaining():
            break
    return reps, setups


def rescale(rep: dict, clock: speed.SpeedClock) -> None:
    """Give a process's times at the reference speed; keep the measured
    ones under "measured".  A cell's CPU time is scaled by its own ratio of
    reference to measured time."""
    rep["measured"] = {k: rep[k] for k in ("setup_s", "verdict_s", "slowest_cell_s", "cpu_s")}
    cells = [clock.elapsed(start, end) for start, end, _ in rep["cells"]]
    rep["setup_s"] = clock.elapsed(rep["spawned_at"], rep["ready"])
    rep["verdict_s"] = clock.elapsed(*rep["body"])
    rep["slowest_cell_s"] = max(cells)
    rep["cpu_s"] = sum(
        cpu * ref / (end - start) for (start, end, cpu), ref in zip(rep["cells"], cells) if end > start
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": _metric(_median(setups), "s"),
        "verdict_s": _metric(_median(r["verdict_s"] for r in reps), "s"),
        "slowest_cell_s": _metric(_median(r["slowest_cell_s"] for r in reps), "s"),
        "cpu_s": _metric(_median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": _metric(_median(r["peak_rss_mb"] for r in reps), "MB"),
        # 1 - fail_ratio: operations whose output checked out, over attempted.
        "pass_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }


def traced(plain: dict, with_trace: dict) -> dict:
    metrics = dict(with_trace["layers"])
    metrics["trace.overhead_s"] = _metric(with_trace["verdict_s"] - plain["verdict_s"], "s")
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "missing"
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def report(args, reps: list[dict], metrics: dict, setups: list[float], clock: speed.SpeedClock) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = {
        "python": platform.python_version(),
        "numpy": reps[0]["env"]["numpy"],
        "package": reps[0]["env"]["package"],
        "cpu_count": os.cpu_count(),
        "affinity": len(_cpus()),
        "worker_cpus": _worker_cpus(args.workload),
        "RWA_THREADS": os.environ.get("RWA_THREADS"),
        "commit": _commit(),
    }
    if "layers" in reps[-1]:
        env["effective_workers"] = metrics["rwa.rwa_batch.workers"]["value"]
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"processes={len(reps)} setup_samples={len(setups)}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        extra = f"  ({m['missing']})" if m.get("missing") else ""
        print(f"{name} = {_fmt(m['value'])} {m['unit']}{extra}")
    lo, mid, hi = clock.speed_range()
    print(f"host speed (share of the reference speed): median {mid:.3f}, range {lo:.3f}..{hi:.3f}")
    if args.trace == 0:
        print("verdict_s per process at the reference speed: " + " ".join(f"{r['verdict_s']:.4f}" for r in reps))
        print("verdict_s per process as measured: " + " ".join(f"{r['measured']['verdict_s']:.4f}" for r in reps))
        print("slowest cell as measured: " + reps[0]["slowest_cell"])
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"verify.false_rejections (information) = {sum(r['false_rejections'] for r in reps)}")
    for cell, ref in sorted(reps[0]["references"].items()):
        if "values_sha256" in ref:
            print(f"values_sha256 (information) {cell}: {ref['values_sha256']}")
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED {failure}")
    for name, m in metrics.items():
        if m.get("missing"):
            print(f"warning: {name} missing: {m['missing']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rwa_semicircle" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, speed.Probe(_cpus()) as probe:
            runner = Runner(args.workload, args.seed, Path(tmp), started)
            if args.trace:
                reps, intervals = [runner.spawn(), runner.spawn("--trace")], []
            else:
                reps, intervals = measure(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    clock = speed.SpeedClock([probe.samples[cpu] for cpu in _worker_cpus(args.workload)])
    for rep in reps:
        rescale(rep, clock)
    setups = [clock.elapsed(start, end) for start, end in intervals]
    metrics = traced(*reps) if args.trace else end_to_end(reps, setups)
    result = report(args, reps, metrics, setups, clock)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
