"""Spans around the program's layers, recorded from outside the program.

The traced run replaces each layer's public function, wherever a module of
the package binds it, with a wrapper that records a span.  Nothing in the
package is edited on disk; the wrappers live only in the traced process.

Two kinds of layer:

* span layers (the oracle, the sampler, CSV rendering, the KS path, ...)
  are called a few hundred times per run; each call becomes a `Span` record
  with its name, start, end, parent span and cell id, kept in memory.
* leaf layers (compositions, multinomial, rising_gamma_ratio) are called
  millions of times per run and call no other layer.  Keeping one record per
  call would take gigabytes, so each call's duration and counts are added to
  accumulators on the span that was open when it ran.  Because leaves nest
  nothing and run one at a time, their summed duration is exactly the part
  of the parent's interval they cover.

A layer's self time is its span's duration minus the part of that interval
covered by its children (child spans, overlapping or not, plus leaf time).
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "rwa_semicircle"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    cell: str | None
    end: float | None = None
    leaf_s: float = 0.0
    # leaf layer name -> [calls, seconds, items]
    leaves: dict = field(default_factory=dict)
    # span-specific counts (points, draws, bytes, ...)
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: duration minus leaf time minus the union of
    its child spans' intervals within its own."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {
        sp.id: sp.duration - sp.leaf_s - covered(children[sp.id], sp.start, sp.end)
        for sp in spans
    }


class Tracer:
    """Span stack plus finished span records for one process.

    A root span is open from construction, so leaf calls made outside any
    benchmark cell still have a parent to be charged to.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.cell: str | None = None
        # Cleared after the timed body, so output checks are not traced.
        self.enabled = True
        self.open("root")

    @property
    def top(self) -> Span:
        return self._stack[-1]

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent, self.cell)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order (open: {popped.name})")

    def finish(self) -> None:
        while self._stack:
            self.close(self._stack[-1])

    def add_leaf(self, name: str, seconds: float, items: int = 1, span: Span | None = None) -> None:
        """Charge one leaf call to `span` (default: the open span)."""
        sp = span or self.top
        sp.leaf_s += seconds
        acc = sp.leaves.setdefault(name, [0, 0.0, 0])
        acc[0] += 1
        acc[1] += seconds
        acc[2] += items


# ---------------------------------------------------------------------------
# wrapping the package's layers


@dataclass(frozen=True)
class Layer:
    """One public name of the package that the traced run wraps.

    `module` defines it; `attr` is a function name or `Class.method`.
    `kind` is "span", "leaf" (a plain function), "leaf-gen" (a generator,
    timed inside each next()), "oracle" (span named by its parity mode),
    or "batch" (the sampler, with memory and CPU counters).
    """

    metric: str
    module: str
    attr: str
    kind: str = "span"


LAYERS = (
    Layer("exactmath.compositions", "exactmath", "compositions", "leaf-gen"),
    Layer("exactmath.multinomial", "exactmath", "multinomial", "leaf"),
    Layer("exactmath.rising_gamma_ratio", "exactmath", "rising_gamma_ratio", "leaf"),
    Layer("moments.rwa_moment_oracle", "moments", "rwa_moment_oracle", "oracle"),
    Layer("moments.rwa_moment_closed", "moments", "rwa_moment_closed"),
    Layer("moments.lemma_lhs", "moments", "lemma_lhs"),
    Layer("moments.empirical_moment", "moments", "empirical_moment"),
    Layer("rwa.rwa_batch", "rwa", "rwa_batch", "batch"),
    Layer("rwa.ThreadPoolExecutor", "rwa", "ThreadPoolExecutor", "pool"),
    Layer("rwa.SampleBatch.csv_bytes", "rwa", "SampleBatch.csv_bytes"),
    Layer("rwa.SampleBatch.values_digest", "rwa", "SampleBatch.values_digest"),
    Layer("rwa.SampleBatch.write_csv", "rwa", "SampleBatch.write_csv"),
    Layer("distributions.PowerSemicircle.cdf", "distributions", "PowerSemicircle.cdf"),
    Layer("special.betainc", "special", "betainc"),
    Layer("gof.ks_statistic", "gof", "ks_statistic"),
    Layer("cli.main", "cli", "main"),
)


def _size_of(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


def _make_wrapper(layer: Layer, original, tracer: Tracer):
    """Build the traced stand-in for one layer.

    A call made while the same layer is already running (recursion, or a
    re-export calling the original) passes straight through, so a layer is
    never counted inside itself; so does every call once the tracer is
    disabled.
    """
    name = layer.metric
    active = [False]
    perf = time.perf_counter

    def passthrough() -> bool:
        return active[0] or not tracer.enabled

    if layer.kind == "leaf":

        def leaf(*args, **kwargs):
            if passthrough():
                return original(*args, **kwargs)
            active[0] = True
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.add_leaf(name, perf() - t0)
                active[0] = False

        return leaf

    if layer.kind == "leaf-gen":

        def leaf_gen(*args, **kwargs):
            if passthrough():
                return original(*args, **kwargs)
            return _timed_items(original(*args, **kwargs))

        def _timed_items(it):
            items = 0
            spent = 0.0
            parent = tracer.top
            try:
                while True:
                    active[0] = True
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spent += perf() - t0
                        active[0] = False
                    items += 1
                    yield item
            finally:
                tracer.add_leaf(name, spent, items, span=parent)

        return leaf_gen

    if layer.kind == "pool":

        class TracedPool(original):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                if tracer.enabled:
                    top = tracer.top
                    top.counts["workers"] = max(top.counts.get("workers", 1), self._max_workers)

        return TracedPool

    def spanned(*args, **kwargs):
        if passthrough():
            return original(*args, **kwargs)
        span_name = name
        if layer.kind == "oracle":
            mode = "literal" if kwargs.get("literal_parity") else "even"
            span_name = f"{name}.{mode}"
        active[0] = True
        sp = tracer.open(span_name)
        try:
            if layer.kind == "batch":
                return _traced_batch(sp, original, args, kwargs)
            result = original(*args, **kwargs)
            _count(layer, sp, args, result)
            return result
        finally:
            tracer.close(sp)
            active[0] = False

    return spanned


def _count(layer: Layer, sp: Span, args, result) -> None:
    if layer.metric == "moments.empirical_moment":
        sp.counts["points"] = _size_of(args[0])
    elif layer.metric == "special.betainc":
        sp.counts["points"] = _size_of(args[2])
    elif layer.metric == "rwa.SampleBatch.csv_bytes":
        sp.counts["bytes"] = len(result)
    elif layer.metric == "rwa.SampleBatch.write_csv":
        sp.counts["bytes"] = Path(args[1]).stat().st_size


def _traced_batch(sp: Span, original, args, kwargs):
    """The sampler call, with the Python-heap peak (tracemalloc started only
    around this call), process CPU time, and the draw shape."""
    spec, count = args[0], args[1]
    cpu0 = time.process_time()
    tracemalloc.start()
    try:
        result = original(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sp.counts["cpu_s"] = time.process_time() - cpu0
    sp.counts["peak_alloc_bytes"] = peak
    sp.counts["draws"] = count
    # Computed, not measured: the two uniform blocks the draw contract
    # consumes, (n-1) weights plus n arcsine inputs per draw, 8 bytes each.
    sp.counts["computed_bytes"] = 8 * count * (2 * spec.n - 1)
    sp.counts.setdefault("workers", 1)
    return result


def install(tracer: Tracer):
    """Wrap every layer in every loaded module of the package that binds it.

    Returns ({metric prefix: reason}, undo).  The dict names layers whose
    name no longer exists; their metrics are then reported as missing rather
    than as zero.  `undo()` puts the original objects back.
    """
    missing = {}
    replaced = []

    def replace(owner, attr, value):
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
    for layer in LAYERS:
        try:
            home = importlib.import_module(f"{PACKAGE}.{layer.module}")
        except ImportError as exc:
            missing[layer.metric] = f"module {PACKAGE}.{layer.module} not importable: {exc}"
            continue
        owner_name, _, method = layer.attr.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            original = owner.__dict__.get(method) if isinstance(owner, type) else None
            if original is None:
                missing[layer.metric] = f"{PACKAGE}.{layer.module}.{layer.attr} not found"
                continue
            replace(owner, method, _make_wrapper(layer, original, tracer))
            continue
        original = getattr(home, layer.attr, None)
        if original is None:
            missing[layer.metric] = f"{PACKAGE}.{layer.module}.{layer.attr} not found"
            continue
        wrapper = _make_wrapper(layer, original, tracer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, attr, wrapper)

    def undo() -> None:
        for owner, attr, value in reversed(replaced):
            setattr(owner, attr, value)

    return missing, undo


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per layer name: calls, total and self seconds, summed counts, and the
    leaf items charged while it was the open span."""
    selfs = self_times(tracer.spans)
    out: dict[str, dict] = {}

    def entry(name):
        return out.setdefault(
            name,
            {
                "calls": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "counts": defaultdict(float),
                "max": defaultdict(float),
                "leaf_items": defaultdict(int),
            },
        )

    for sp in tracer.spans:
        e = entry(sp.name)
        e["calls"] += 1
        e["total_s"] += sp.duration
        e["self_s"] += selfs[sp.id]
        for key, value in sp.counts.items():
            e["counts"][key] += value
            e["max"][key] = max(e["max"][key], value)
        for leaf, (calls, seconds, items) in sp.leaves.items():
            e["leaf_items"][leaf] += items
            le = entry(leaf)
            le["calls"] += calls
            le["total_s"] += seconds
            le["self_s"] += seconds
            le["counts"]["items"] += items
    return out
