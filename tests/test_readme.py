"""The library tour in README.md runs as a doctest."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_examples_pass():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.failed == 0
    assert result.attempted >= 12
