"""The summary arithmetic of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
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
