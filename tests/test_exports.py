"""Every exported name resolves: a deleted function cannot linger in an
`__all__` list."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import rwa_semicircle

MODULES = ["rwa_semicircle"] + [
    f"rwa_semicircle.{info.name}"
    for info in pkgutil.iter_modules(rwa_semicircle.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
