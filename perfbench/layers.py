"""Per-layer metrics of a traced run, named after the package's modules.

Each metric is computed from the span summary (`tracing.summarize`).  A
metric whose layer could not be wrapped is reported with value None and
the reason, never as a silent zero; a layer that the workload simply does
not reach reports its true zero.
"""

from __future__ import annotations

MB = 1024.0 * 1024.0

ORACLE_SPANS = ("moments.rwa_moment_oracle.even", "moments.rwa_moment_oracle.literal")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _View:
    """Read-only access to the summary with zeros for layers not reached."""

    def __init__(self, summary: dict) -> None:
        self._summary = summary

    def get(self, name: str, key: str) -> float:
        entry = self._summary.get(name)
        return entry[key] if entry else 0

    def count(self, name: str, key: str, agg: str = "counts") -> float:
        entry = self._summary.get(name)
        return entry[agg].get(key, 0) if entry else 0

    def leaf_items(self, name: str, leaf: str) -> int:
        entry = self._summary.get(name)
        return entry["leaf_items"].get(leaf, 0) if entry else 0


# name -> (unit, layers it needs, how to compute it from a _View and the run)
METRICS = {
    "exactmath.compositions.yielded": ("count", ("exactmath.compositions",),
        lambda v, r: v.count("exactmath.compositions", "items")),
    "exactmath.compositions.self_s": ("s", ("exactmath.compositions",),
        lambda v, r: v.get("exactmath.compositions", "self_s")),
    "exactmath.multinomial.calls": ("count", ("exactmath.multinomial",),
        lambda v, r: v.get("exactmath.multinomial", "calls")),
    "exactmath.multinomial.self_s": ("s", ("exactmath.multinomial",),
        lambda v, r: v.get("exactmath.multinomial", "self_s")),
    "exactmath.rising_gamma_ratio.calls": ("count", ("exactmath.rising_gamma_ratio",),
        lambda v, r: v.get("exactmath.rising_gamma_ratio", "calls")),
    "exactmath.rising_gamma_ratio.self_s": ("s", ("exactmath.rising_gamma_ratio",),
        lambda v, r: v.get("exactmath.rising_gamma_ratio", "self_s")),
    "moments.rwa_moment_oracle.even.self_s": ("s", ("moments.rwa_moment_oracle",),
        lambda v, r: v.get(ORACLE_SPANS[0], "self_s")),
    "moments.rwa_moment_oracle.even.calls": ("count", ("moments.rwa_moment_oracle",),
        lambda v, r: v.get(ORACLE_SPANS[0], "calls")),
    "moments.rwa_moment_oracle.literal.self_s": ("s", ("moments.rwa_moment_oracle",),
        lambda v, r: v.get(ORACLE_SPANS[1], "self_s")),
    "moments.rwa_moment_oracle.literal.calls": ("count", ("moments.rwa_moment_oracle",),
        lambda v, r: v.get(ORACLE_SPANS[1], "calls")),
    "moments.rwa_moment_closed.self_s": ("s", ("moments.rwa_moment_closed",),
        lambda v, r: v.get("moments.rwa_moment_closed", "self_s")),
    "moments.lemma_lhs.self_s": ("s", ("moments.lemma_lhs",),
        lambda v, r: v.get("moments.lemma_lhs", "self_s")),
    # Compositions walked inside the oracle per second of oracle time.
    "moments.oracle_terms_per_s": ("1/s", ("moments.rwa_moment_oracle", "exactmath.compositions"),
        lambda v, r: _ratio(
            sum(v.leaf_items(s, "exactmath.compositions") for s in ORACLE_SPANS),
            sum(v.get(s, "total_s") for s in ORACLE_SPANS),
        )),
    "moments.empirical_moment.self_s": ("s", ("moments.empirical_moment",),
        lambda v, r: v.get("moments.empirical_moment", "self_s")),
    "moments.empirical_moment.points": ("count", ("moments.empirical_moment",),
        lambda v, r: v.count("moments.empirical_moment", "points")),
    "rwa.rwa_batch.self_s": ("s", ("rwa.rwa_batch",),
        lambda v, r: v.get("rwa.rwa_batch", "self_s")),
    "rwa.rwa_batch.draws": ("count", ("rwa.rwa_batch",),
        lambda v, r: v.count("rwa.rwa_batch", "draws")),
    # Largest thread pool the sampler opened (1 when it opened none).
    "rwa.rwa_batch.workers": ("count", ("rwa.rwa_batch", "rwa.ThreadPoolExecutor"),
        lambda v, r: v.count("rwa.rwa_batch", "workers", "max")),
    "rwa.rwa_batch.cpu_per_wall": ("ratio", ("rwa.rwa_batch",),
        lambda v, r: _ratio(v.count("rwa.rwa_batch", "cpu_s"), v.get("rwa.rwa_batch", "total_s"))),
    "rwa.rwa_batch.peak_alloc_mb": ("MB", ("rwa.rwa_batch",),
        lambda v, r: v.count("rwa.rwa_batch", "peak_alloc_bytes", "max") / MB),
    "rwa.rwa_batch.computed_mb": ("MB", ("rwa.rwa_batch",),
        lambda v, r: v.count("rwa.rwa_batch", "computed_bytes", "max") / MB),
    "rwa.SampleBatch.csv_bytes.self_s": ("s", ("rwa.SampleBatch.csv_bytes",),
        lambda v, r: v.get("rwa.SampleBatch.csv_bytes", "self_s")),
    "rwa.SampleBatch.csv_bytes.calls": ("count", ("rwa.SampleBatch.csv_bytes",),
        lambda v, r: v.get("rwa.SampleBatch.csv_bytes", "calls")),
    "rwa.SampleBatch.csv_bytes.mb": ("MB", ("rwa.SampleBatch.csv_bytes",),
        lambda v, r: v.count("rwa.SampleBatch.csv_bytes", "bytes") / MB),
    "rwa.SampleBatch.csv_renders_per_artifact": ("ratio", ("rwa.SampleBatch.csv_bytes",),
        lambda v, r: _ratio(v.get("rwa.SampleBatch.csv_bytes", "calls"), r["artifacts"])),
    "rwa.SampleBatch.values_digest.self_s": ("s", ("rwa.SampleBatch.values_digest", "rwa.SampleBatch.csv_bytes"),
        lambda v, r: v.get("rwa.SampleBatch.values_digest", "self_s")),
    "rwa.SampleBatch.write_csv.self_s": ("s", ("rwa.SampleBatch.write_csv", "rwa.SampleBatch.csv_bytes"),
        lambda v, r: v.get("rwa.SampleBatch.write_csv", "self_s")),
    "rwa.SampleBatch.write_csv.mb": ("MB", ("rwa.SampleBatch.write_csv",),
        lambda v, r: v.count("rwa.SampleBatch.write_csv", "bytes") / MB),
    "distributions.PowerSemicircle.cdf.self_s": ("s", ("distributions.PowerSemicircle.cdf", "special.betainc"),
        lambda v, r: v.get("distributions.PowerSemicircle.cdf", "self_s")),
    "special.betainc.self_s": ("s", ("special.betainc",),
        lambda v, r: v.get("special.betainc", "self_s")),
    "special.betainc.points": ("count", ("special.betainc",),
        lambda v, r: v.count("special.betainc", "points")),
    # Sort and max only: the CDF evaluation is a child span.
    "gof.ks_statistic.self_s": ("s", ("gof.ks_statistic", "distributions.PowerSemicircle.cdf"),
        lambda v, r: v.get("gof.ks_statistic", "self_s")),
    "cli.main.self_s": ("s", ("cli.main",),
        lambda v, r: v.get("cli.main", "self_s")),
    "cli.main.calls": ("count", ("cli.main",),
        lambda v, r: v.get("cli.main", "calls")),
    "verify.false_rejections": ("count", (),
        lambda v, r: r["false_rejections"]),
}

def layer_metrics(summary: dict, missing: dict, *, artifacts: int, false_rejections: int) -> dict:
    """{metric: {"value", "unit"}} for every per-layer metric this process
    can compute; missing layers give value None plus the reason."""
    view = _View(summary)
    context = {"artifacts": artifacts, "false_rejections": false_rejections}
    out = {}
    for name, (unit, needs, compute) in METRICS.items():
        gone = [missing[n] for n in needs if n in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
        else:
            out[name] = {"value": float(compute(view, context)), "unit": unit}
    return out
