"""The CSV renderer: its chunked rendering has the bytes of one whole
render at every chunk boundary, and its memory is bounded by its output."""

from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rwa_semicircle import render


def _whole_render(header, *columns) -> bytes:
    """The CSV rendered in one piece, every float, string and line at once:
    the renderer before it rendered in chunks, kept as the reference."""
    cells = [map(repr, np.asarray(col, dtype=np.float64).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return ("\n".join(lines) + "\n").encode("ascii")


# Signed zeros, subnormals, integral floats, values whose repr takes the
# exponent form (1e16 and above, and the smallest), the float extremes and
# the non-finite values.
_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 2.0, 0.1, 1 / 3,
    1e16, -1e16, 1.5e17, 1e22, 123456789012345678.0, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


def _table(rows: int, columns: int) -> list[np.ndarray]:
    """`columns` columns of `rows` values cycling through the special values
    and random values of every magnitude, so each lands on chunk boundaries."""
    rng = np.random.default_rng(rows * 1009 + columns)
    pool = np.concatenate([_SPECIAL, rng.standard_normal(77) * 10.0 ** rng.integers(-320, 300, 77)])
    return list(np.resize(pool, rows * columns).reshape(rows, columns).T)


@pytest.mark.parametrize("columns", [1, 2, 3, 1000])
@pytest.mark.parametrize("rows_of", [
    lambda c: 0, lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 3 * c + 7,
], ids=["0", "1", "C-1", "C", "C+1", "3C+7"])
def test_chunked_render_equals_whole_render(columns, rows_of):
    rows_per_chunk = max(1, render._CHUNK_CELLS // columns)
    table = _table(rows_of(rows_per_chunk), columns)
    header = [f"c{i}" for i in range(columns)]
    assert render.csv_bytes(header, *table) == _whole_render(header, *table)


def test_special_values_render_by_repr():
    text = render.csv_bytes(["value"], np.array(_SPECIAL)).decode("ascii")
    assert text.splitlines() == ["value", *map(repr, _SPECIAL)]
    assert {"-0.0", "5e-324", "1.0", "1e+16", "1.5e+17", "inf", "-inf", "nan"} <= set(text.splitlines())


def _traced_peak(columns: np.ndarray) -> tuple[bytes, int]:
    """One render of `columns` as a value table, and the peak of the Python
    memory it allocated."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = render.csv_bytes(["value"], columns)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_render_memory_is_bounded_by_its_output():
    """A render holds its output plus one chunk's floats and strings; the
    whole render held about six times its output."""
    chunk = render._CHUNK_CELLS
    values = np.random.default_rng(5).standard_normal(4 * chunk)
    _, one_chunk = _traced_peak(values[:chunk])
    out, peak = _traced_peak(values)
    assert peak <= 2 * len(out) + one_chunk


def test_rational_text_is_str_below_the_digit_limit():
    big = 7 * 10**4299 + 123456789  # 4300 digits, the most str() renders
    values = [0, 1, -1, 10**30, -(10**30) + 1, big, -big, Fraction(1, 3), Fraction(-22, 7), Fraction(big, big + 2)]
    assert len(str(big)) == 4300
    for value in values:
        assert render.rational_str(value) == str(Fraction(value))


def test_rational_text_has_no_digit_limit():
    value = Fraction(-(3**20000), 10**4500 + 1)
    num, den = render.rational_str(value).split("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == value
    assert num.startswith("-") and num[1:].isdigit() and den.isdigit()
    payload = render.rational_json(value)
    assert (payload["num"], payload["den"]) == (num, den)
