"""The CSV renderer: its block-by-block rendering has the bytes of one whole
render at every block boundary, its float kernel writes the bytes of repr
for every float64, and its memory is bounded by its output."""

from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rwa_semicircle import render


def _whole_render(header, table) -> bytes:
    """The CSV rendered in one piece, every float, string and line at once:
    the renderer before it rendered in blocks, kept as the reference."""
    rows = [",".join(map(repr, row)) for row in np.asarray(table, dtype=np.float64).tolist()]
    return ("\n".join([",".join(header), *rows]) + "\n").encode("ascii")


# Signed zeros, subnormals, integral floats, values whose repr takes the
# exponent form (1e16 and above, and the smallest), the float extremes and
# the non-finite values.
_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 2.0, 0.1, 1 / 3,
    1e16, -1e16, 1.5e17, 1e22, 123456789012345678.0, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


def _table(rows: int, columns: int) -> np.ndarray:
    """A `rows` x `columns` table of values cycling through the special
    values and random values of every magnitude, so each lands on block
    boundaries."""
    rng = np.random.default_rng(rows * 1009 + columns)
    pool = np.concatenate([_SPECIAL, rng.standard_normal(77) * 10.0 ** rng.integers(-320, 300, 77)])
    return np.resize(pool, rows * columns).reshape(rows, columns)


# Column counts: a block of whole rows, blocks that end inside a row
# (3, 1000, one less than a block), and a row wider than a block.
_COLUMNS = [1, 2, 3, 1000, render._BLOCK - 1, render._BLOCK + 1]


@pytest.mark.parametrize("columns", _COLUMNS)
@pytest.mark.parametrize("rows_of", [
    lambda c: 0, lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 3 * c + 7,
], ids=["0", "1", "C-1", "C", "C+1", "3C+7"])
def test_chunked_render_equals_whole_render(columns, rows_of):
    rows_per_block = max(1, render._BLOCK // columns)
    table = _table(rows_of(rows_per_block), columns)
    header = [f"c{i}" for i in range(columns)]
    assert render.csv_bytes(header, table) == _whole_render(header, table)


def test_special_values_render_by_repr():
    text = render.csv_bytes(["value"], np.array(_SPECIAL)[:, None]).decode("ascii")
    assert text.splitlines() == ["value", *map(repr, _SPECIAL)]
    assert {"-0.0", "5e-324", "1.0", "1e+16", "1.5e+17", "inf", "-inf", "nan"} <= set(text.splitlines())


def _kernel_matches_repr(values) -> None:
    """The kernel's text of `values`, one per line, equals repr's; on a
    mismatch, name the first few values that differ."""
    table = np.asarray(values, dtype=np.float64)[:, None]
    got = render.csv_bytes(["value"], table)
    want = _whole_render(["value"], table)
    if got != want:
        pairs = zip(got.decode("ascii").splitlines()[1:], want.decode("ascii").splitlines()[1:])
        wrong = [(g, w) for g, w in pairs if g != w]
        raise AssertionError(f"{len(wrong)} values differ from repr (got, repr): {wrong[:5]}")


def _with_neighbours(values) -> np.ndarray:
    """Each value, the floats just below and just above it, and all their
    negatives."""
    values = np.asarray(values, dtype=np.float64)
    around = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


def _random_bits(count: int, seed: int) -> np.ndarray:
    """Floats of `count` seeded random 64-bit patterns: every sign, exponent
    and significand, subnormals, infinities and NaN payloads included."""
    return np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64).view(np.float64)


class TestFloatKernel:
    """The vectorized kernel against repr, case by case."""

    def test_random_bit_patterns(self):
        _kernel_matches_repr(_random_bits(100_000, 34))

    def test_each_side_of_the_notation_switches(self):
        # repr is fixed for -4 < decpt <= 16 and in exponent form otherwise.
        edges = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e-5, 1e-3, 1e15, 1e17]
        assert [repr(x) for x in edges[:4]] == ["0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0"]
        _kernel_matches_repr(_with_neighbours(edges + [10.0**e for e in range(-30, 31)]))

    def test_every_power_of_two(self):
        # At a power of two the gap below is half the gap above, so the
        # nearer neighbour is the lower one; the subnormals are included.
        _kernel_matches_repr(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))

    def test_integral_floats(self):
        rng = np.random.default_rng(53)
        below = rng.integers(0, 2**53, 20_000).astype(np.float64)
        beyond = rng.integers(2**53, 2**63, 20_000, dtype=np.uint64).astype(np.float64)
        huge = rng.random(5_000) * 10.0 ** rng.integers(16, 309, 5_000)
        edge = 2.0**53 + np.arange(-64, 65) * 2.0
        _kernel_matches_repr(np.concatenate([below, beyond, np.floor(huge), edge, np.arange(0.0, 2_000.0)]))

    def test_values_with_trailing_zeros(self):
        # Short decimals: the shortest digits end well before 17, at every
        # decimal point position and in both notations.
        rng = np.random.default_rng(10)
        scale = 10.0 ** rng.integers(-25, 25, 50_000)
        short = np.round(rng.uniform(-1000.0, 1000.0, 50_000)) * scale
        _kernel_matches_repr(np.concatenate([short, [0.5, 1.25, 100.0, 1.5e-7, 2.5e20, 1e23, 5e-324, 1e-320]]))

    def test_decimals_halfway_between_two_floats(self):
        # d 10^e with d 5^e odd in [2^53, 2^54) lies exactly halfway between
        # two floats: it reads back as the one with the even significand,
        # whose interval holds its ends, and the other float's excludes it.
        rng = np.random.default_rng(21)
        halfway = []
        for e in range(3, 24):
            low, high = -(-(2**53) // 5**e), (2**54 - 1) // 5**e
            halfway += [int(d) * 10**e for d in rng.integers(low, high, 40, endpoint=True) if d % 2]
        halfway = np.array([float(d) for d in halfway])
        assert len(halfway) > 300
        _kernel_matches_repr(_with_neighbours(halfway))

    def test_signed_zero_infinities_and_nans(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], np.uint64)
        values = np.concatenate([[0.0, -0.0, math.inf, -math.inf, math.nan], nans.view(np.float64)])
        text = render.csv_bytes(["value"], values[:, None]).decode("ascii")
        assert text.splitlines()[1:] == ["0.0", "-0.0", "inf", "-inf", "nan", "nan", "nan", "nan", "nan"]
        _kernel_matches_repr(values)

    @pytest.mark.parametrize("columns", _COLUMNS)
    def test_random_bits_in_every_column_count(self, columns):
        rows = 2 * max(1, render._BLOCK // columns) + 3
        table = _random_bits(rows * columns, columns).reshape(rows, columns)
        header = [f"c{i}" for i in range(columns)]
        assert render.csv_bytes(header, table) == _whole_render(header, table)

    def test_exponent_tables_are_exact(self):
        # floor(log2 10^e) and floor(log10 2^q), floor(log10 3/4 2^q) by
        # integer arithmetic, over every exponent a float64 needs.
        for e in range(-324, 325):
            exact = (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())
            assert render._floor_log2_pow10(e) == exact, e
        for q in range(-1074, 972):
            for closer, (num, twos) in ((0, (1, q)), (1, (3, q - 2))):
                # num 2^twos = digits 10^-fives with an integer of `digits`.
                digits = num << twos if twos >= 0 else num * 5**-twos
                exact = len(str(digits)) - 1 - max(-twos, 0)
                assert render._floor_log10_pow2(q, closer) == exact, (q, closer)

    def test_power_table_is_ten_to_the_minus_k_rounded_up(self):
        limbs = render._tables().limbs
        for k in range(render._K_MIN, render._K_MAX + 1):
            g = sum(int(limb[k - render._K_MIN]) << (32 * i) for i, limb in enumerate(limbs))
            scaled = Fraction(10) ** -k * Fraction(2) ** (127 - render._floor_log2_pow10(-k))
            assert g == math.ceil(scaled) and 2**127 <= g < 2**128, k


@pytest.mark.parametrize("header, table", [
    (["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0]]),
    (["a"], [[1.0, 2.0], [3.0, 4.0]]),
    (["a"], [1.0, 2.0]),
    (["a"], [[[1.0], [2.0]]]),
], ids=["header-wider", "header-narrower", "1-D", "3-D"])
def test_a_malformed_table_is_refused_before_any_byte(header, table):
    with pytest.raises(ValueError):
        next(render.csv_chunks(header, table))


def _traced_peak(values: np.ndarray) -> tuple[bytes, int]:
    """One render of `values` as a one-column table, and the peak of the
    Python memory it allocated."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = render.csv_bytes(["value"], values[:, None])
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_render_memory_is_bounded_by_its_output():
    """A render holds its output plus one block's floats and strings; the
    whole render held about six times its output."""
    block = render._BLOCK
    values = np.random.default_rng(5).standard_normal(4 * block)
    _, one_block = _traced_peak(values[:block])
    out, peak = _traced_peak(values)
    assert peak <= 2 * len(out) + one_block


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
