"""Every name the traced benchmark wraps still exists in the package.

`perfbench/run.py --trace 1` wraps the names in `perfbench/tracing.py::LAYERS`.
A name that is gone does not fail the run: it exits 0 and reports that
layer's metrics as null.  This test makes such a deletion fail Tier-1 instead.
It only reads `perfbench/`.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    import rwa_semicircle.cli  # noqa: F401  (loaded so that its bindings are wrapped too)

    missing, undo = tracing.install(tracing.Tracer())
    try:
        assert missing == {}
    finally:
        undo()
