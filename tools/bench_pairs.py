"""Alternating benchmark pairs: a parent revision against a change.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload verify --pairs 10

Both sides are git revisions, extracted with `git archive`: --parent, and
--change (HEAD unless given), so that every record names the exact trees it
compared; commit a change before measuring it.  Every run gets a fresh copy
of its side: on a 2-vCPU VM, two copies of one tree read `exact-grid` peak
RSS 37.22 and 37.43 MB, each steadily over its runs, and one copy kept per
side would add its own offset to every run of that side.  Pair i runs `perfbench/run.py` once on each side at seed --seed + i,
for the run length BENCHMARK.json sets, the parent first in even pairs and
the change first in odd ones, so that a drift of the host over the run falls
on both sides alike.  For each end-to-end metric of BENCHMARK.json it prints the
medians and quartiles of both sides and the number of pairs the change won
(was better in, by the metric's own direction), and appends one record with
the revisions, the seeds, every pair and that summary to
BENCH_<workload>.json in the checkout.

Only the standard library is used.  The copies live in a temporary
directory (TMPDIR picks where) that is removed at the end, also when the
run is stopped by SIGTERM or Ctrl-C, which kill the running benchmark and
its workers too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), each by linear interpolation between the order
    statistics (the 'inclusive' method, NumPy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, how many pairs the
    change won, and whether its median is better than the parent's by more
    than the parent's interquartile range.  `better` maps each metric to
    "lower" or "higher"; a pair where either side lacks the metric is
    skipped for it."""
    summary = {}
    for name, direction in better.items():
        kept = [p for p in pairs if p["parent"].get(name) is not None and p["change"].get(name) is not None]
        if not kept:
            continue
        sign = -1.0 if direction == "lower" else 1.0
        sides = {}
        for side in SIDES:
            q1, median, q3 = quartiles([p[side][name] for p in kept])
            sides[side] = {"q1": q1, "median": median, "q3": q3}
        gain = sign * (sides["change"]["median"] - sides["parent"]["median"])
        summary[name] = {
            "better": direction,
            **sides,
            "pairs": len(kept),
            "change_won": sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in kept),
            "median_gain": gain,
            "gain_beyond_parent_iqr": gain > sides["parent"]["q3"] - sides["parent"]["q1"],
        }
    return summary


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12 and 3.11.4 on
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in `root`; its metrics by name (None where absent).

    The run gets a process group of its own, which is killed whole if this
    call is interrupted, so that no worker of the run outlives it."""
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


@contextlib.contextmanager
def _sigterm_unwinds():
    """While the body runs, SIGTERM raises SystemExit, as Ctrl-C raises
    KeyboardInterrupt, so that every `with` block inside it exits."""
    def stop(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _print(summary: dict) -> None:
    print(f"{'metric':<16} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>7}  beyond IQR")
    for name, s in summary.items():
        cells = [f"{s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]" for side in SIDES]
        print(f"{name:<16} {cells[0]:>34} {cells[1]:>34} {s['change_won']:>3}/{s['pairs']:<3}  {s['gain_beyond_parent_iqr']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--change", default="HEAD", help="git revision of the change (default: HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i runs at seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"--workload must be one of {[w['name'] for w in bench['workloads']]}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    revisions = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    seeds = [args.seed + i for i in range(args.pairs)]
    pairs = []
    with _sigterm_unwinds(), tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                root = Path(tmp) / str(i) / side
                _extract(revisions[side], root)
                pair[side] = _run(root, args.workload, seed, seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                  + "  ".join(f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                              for name in better if None not in (pair["parent"].get(name), pair["change"].get(name))), flush=True)

    summary = summarize(pairs, better)
    _print(summary)
    record = {
        "workload": args.workload,
        "commit": revisions["change"],
        "parent": revisions["parent"],
        "seconds": seconds,
        "seeds": seeds,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpu_count": os.cpu_count()},
        "pairs": pairs,
        "summary": summary,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(out.read_text()) if out.exists() else []
    records.append(record)
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
