"""The summary arithmetic of tools/bench_pairs.py, on fixed numbers, and
its clean-up when it is stopped."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(parent: list, change: list, name: str = "m") -> list[dict]:
    return [{"seed": i, "parent": {name: p}, "change": {name: c}} for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_interpolate_between_order_statistics():
    # Positions (n - 1) * q of the sorted values 1..5 and 1..4.
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better():
    parent = [69.0, 69.1, 69.2, 69.0, 69.1]
    change = [50.1, 50.2, 69.5, 50.0, 50.1]
    s = bench_pairs.summarize(_pairs(parent, change), {"m": "lower"})["m"]
    assert s["parent"] == {"q1": 69.0, "median": 69.1, "q3": 69.1}
    assert s["change"] == {"q1": 50.1, "median": 50.1, "q3": 50.2}
    assert (s["pairs"], s["change_won"]) == (5, 4)  # the third pair is lost
    assert s["median_gain"] == pytest.approx(19.0)
    assert s["gain_beyond_parent_iqr"]


def test_higher_is_better_and_a_tie_is_not_a_win():
    s = bench_pairs.summarize(_pairs([1.0, 1.0, 0.9], [1.0, 1.1, 1.0]), {"m": "higher"})["m"]
    assert s["change_won"] == 2
    assert s["median_gain"] == pytest.approx(0.0)
    assert not s["gain_beyond_parent_iqr"]


def test_a_gain_within_the_parent_spread_is_not_beyond_it():
    # Medians 1.0 -> 0.9, but the parent's quartiles are 0.8 and 1.2.
    parent = [0.6, 0.8, 1.0, 1.2, 1.4]
    change = [0.5, 0.7, 0.9, 1.1, 1.3]
    s = bench_pairs.summarize(_pairs(parent, change), {"m": "lower"})["m"]
    assert s["change_won"] == 5
    assert s["median_gain"] == pytest.approx(0.1)
    assert not s["gain_beyond_parent_iqr"]


def test_a_pair_missing_a_metric_is_skipped_for_it():
    pairs = _pairs([2.0, 3.0], [1.0, 1.0]) + [{"seed": 9, "parent": {"m": None}, "change": {"m": 1.0}}]
    s = bench_pairs.summarize(pairs, {"m": "lower", "absent": "lower"})
    assert s["m"]["pairs"] == 2
    assert "absent" not in s


def test_both_sides_are_revisions_run_for_the_benchmark_length(tmp_path, monkeypatch):
    # The run length is BENCHMARK.json's, never an option; each side is a
    # revision extracted on its own, and the record names both exactly.
    bench = {"run_seconds": 7, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(bench_pairs.json.dumps(bench))
    extracted, runs = {}, []

    def run(root, workload, seed, seconds):
        runs.append((root.name, seed, seconds))
        return {"m": 1.0 if root.name == "change" else 2.0}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: f"sha-{args[-1]}")
    monkeypatch.setattr(bench_pairs, "_extract", lambda rev, into: extracted.setdefault(into.name, rev))
    monkeypatch.setattr(bench_pairs, "_run", run)
    assert bench_pairs.main(["--parent", "P", "--workload", "w", "--pairs", "2", "--seed", "5"]) == 0
    assert extracted == {"parent": "sha-P", "change": "sha-HEAD"}
    assert runs == [("parent", 5, 7), ("change", 5, 7), ("change", 6, 7), ("parent", 6, 7)]
    (record,) = bench_pairs.json.loads((tmp_path / "BENCH_w.json").read_text())
    assert (record["parent"], record["commit"], record["seconds"], record["seeds"]) == ("sha-P", "sha-HEAD", 7, [5, 6])
    assert record["summary"]["m"]["change_won"] == 2
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "P", "--workload", "w", "--pairs", "2", "--seconds", "10"])


def test_every_run_gets_a_fresh_copy_of_its_side(tmp_path, monkeypatch):
    # A copy's own offset in peak RSS must not follow one side into all of
    # its runs: each run extracts its side anew, into a directory of its own.
    bench = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(bench_pairs.json.dumps(bench))
    extracted, ran = [], []

    def extract(rev, into):
        into.mkdir(parents=True)
        extracted.append((rev, into))

    def run(root, workload, seed, seconds):
        assert root == extracted[-1][1] and root.is_dir()
        ran.append(root)
        return {"m": 1.0}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: f"sha-{args[-1]}")
    monkeypatch.setattr(bench_pairs, "_extract", extract)
    monkeypatch.setattr(bench_pairs, "_run", run)
    assert bench_pairs.main(["--parent", "P", "--workload", "w", "--pairs", "3"]) == 0
    assert [rev for rev, _ in extracted] == ["sha-P", "sha-HEAD", "sha-HEAD", "sha-P", "sha-P", "sha-HEAD"]
    assert ran == [into for _, into in extracted] and len(set(ran)) == 6
    assert not any(root.exists() for root in ran)


# Runs the tool on a stand-in checkout, with the real `_run`: the copy of
# each side is a tree whose perfbench/run.py starts one worker, writes both
# process ids, and sleeps.
_STOPPED_DRIVER = r'''
import importlib.util, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
RUN = """
import os, subprocess, sys, time
worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open(os.environ["PIDS"] + ".part", "w") as file:
    file.write(f"{os.getpid()} {worker.pid}")
os.replace(os.environ["PIDS"] + ".part", os.environ["PIDS"])
time.sleep(60)
"""


def extract(rev, into):
    (into / "perfbench").mkdir(parents=True)
    (into / "perfbench" / "run.py").write_text(RUN)


bench_pairs.ROOT = Path(sys.argv[2])
bench_pairs._git = lambda *args: "rev"
bench_pairs._extract = extract
sys.exit(bench_pairs.main(["--parent", "P", "--workload", "w", "--pairs", "1"]))
'''


def _running(pid: int) -> bool:
    """Whether `pid` is a process that has not exited (a zombie has)."""
    try:
        os.kill(pid, 0)
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_sigterm_removes_the_copies_and_stops_the_run_and_its_workers(tmp_path):
    bench = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(bench_pairs.json.dumps(bench))
    (tmp_path / "driver.py").write_text(_STOPPED_DRIVER)
    copies, pids = tmp_path / "tmp", tmp_path / "pids"
    copies.mkdir()
    proc = subprocess.Popen(
        [sys.executable, str(tmp_path / "driver.py"), str(_TOOL), str(tmp_path)],
        env={**os.environ, "TMPDIR": str(copies), "PIDS": str(pids)},
    )
    started = []
    try:
        deadline = time.monotonic() + 30
        while not pids.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        started = [int(pid) for pid in pids.read_text().split()]
        assert [p.name[:12] for p in copies.iterdir()] == ["bench-pairs-"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(copies.iterdir()) == []
        deadline = time.monotonic() + 10
        while any(map(_running, started)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, started))
    finally:
        for pid in [proc.pid, *started]:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
