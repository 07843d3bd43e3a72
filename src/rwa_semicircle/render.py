"""Byte formats of every artifact: CSV tables, JSON documents, exact rationals,
and the text of a number or of a refused input in a message.

Each format is decided here and nowhere else, so a digest pinned on one
artifact pins the rendering of every artifact of the same kind.

A CSV table is one row-major 2-D array.  Its cells are rendered in the
order of `table.ravel()`, `_BLOCK` cells at a time, whatever its row and
column counts: a block may end inside a row, and a row may span blocks.
Each block is a slice of those cells, and its separators are a slice of one
row pattern made once per table.  An artifact is written in one pass
over those blocks, each going to its file (or stdout) and into one SHA-256
together, so its text is never held whole and never rendered twice;
`csv_bytes` joins the same blocks for a caller that wants the bytes.

Each float is written as the bytes of its repr, but not by repr: a NumPy
kernel (below) finds the shortest round-trip digits of a block at a time
from their bit patterns and lays them out with lookup tables.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "csv_bytes", "csv_chunks", "decimal_str", "excerpt", "json_bytes", "magnitude", "rational_json", "rational_str",
    "sha256_hex",
]

# The most characters of a text that a message repeats.
_EXCERPT_CHARS = 40


def csv_chunks(header: Sequence[str], table: np.ndarray) -> Iterator[bytes]:
    """CSV of a 2-D float64 table under one header line, as the header line
    and then the cells `_BLOCK` at a time, in row-major order (a table that
    is not C-contiguous is copied once into that order).

    Each value is written as the bytes of its repr, so it parses back
    bit-identical; cells are joined by "," and rows end in LF.  The chunks
    joined are the bytes of one whole render.  A table that is not 2-D, or
    whose width is not the header's field count, raises ValueError.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"a CSV header of {len(header)} fields over a table of shape {table.shape}")
    yield (",".join(header) + "\n").encode("ascii")
    if table.size == 0:
        return
    width = len(header)
    cells = table.ravel()
    # The separator of cell i is pattern[i % width]; a block starting at
    # cell `start` reads its separators from pattern[start % width:].
    pattern = np.full(_BLOCK + width, ord(","), np.uint8)
    pattern[width - 1 :: width] = ord("\n")
    text = _FloatText(cells.size)
    for start in range(0, cells.size, _BLOCK):
        block = cells[start : start + _BLOCK]
        offset = start % width
        yield text.render(block, pattern[offset : offset + len(block)])


def csv_bytes(header: Sequence[str], table: np.ndarray) -> bytes:
    """The bytes of `csv_chunks`, joined."""
    return b"".join(csv_chunks(header, table))


def sha256_hex(chunks: Iterable[bytes], write: Callable[[bytes], object] | None = None) -> str:
    """The SHA-256 hex digest of the bytes of `chunks`, each chunk handed to
    `write` (when given) as it is hashed, so that a result is written and
    hashed in one pass without being held whole."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        if write is not None:
            write(chunk)
    return digest.hexdigest()


def json_bytes(payload) -> bytes:
    """A JSON document with sorted keys, two-space indent and a final newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def rational_json(q: Fraction) -> dict:
    """An exact rational as JSON: numerator and denominator as strings (no
    precision limit) plus a 30-digit decimal reading."""
    return {
        "num": rational_str(q.numerator),
        "den": rational_str(q.denominator),
        "decimal": decimal_str(q),
    }


def rational_str(q: int | Fraction) -> str:
    """An exact int or Fraction as text, "p" or "p/q": the bytes of str(q),
    at any size.  Decimal renders an integer's digits with no digit limit,
    where str() refuses an int of more than 4300 digits."""
    q = Fraction(q)
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def decimal_str(q: Fraction, digits: int = 30) -> str:
    """Decimal rendering of an exact rational to `digits` significant digits,
    rounded half-even at any exponent, in one fixed context: the calling
    thread's decimal context changes no byte and raises nothing here."""
    context = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1, clamp=0,
                      traps=[InvalidOperation, DivisionByZero, Overflow])
    return context.to_sci_string(context.divide(Decimal(q.numerator), Decimal(q.denominator)))


def magnitude(x) -> str:
    """A number for a message: str(x) for a float (always short) and for an
    int or Fraction whose numerator and denominator are below 10^20 in size;
    otherwise its power of ten (an int of more than 4300 digits has no str())."""
    if isinstance(x, float):
        return str(x)
    q = Fraction(x)
    if max(abs(q.numerator), q.denominator) < 10**20:
        return str(x)
    sign = "-" if q < 0 else ""
    return f"about {sign}10^{math.log10(abs(q.numerator)) - math.log10(q.denominator):.1f}"


def excerpt(text: str) -> str:
    """A text for a message: as it is up to `_EXCERPT_CHARS` characters, else
    cut there and followed by its length, so that a message stays short
    whatever was typed."""
    if len(text) <= _EXCERPT_CHARS:
        return text
    return f"{text[:_EXCERPT_CHARS]}... ({len(text)} characters)"


# ---------------------------------------------------------------------------
# The text of a float64, many values at once: the bytes of repr.
#
# repr(x) is the shortest decimal that reads back as x, the nearest to x of
# those, ties to an even last digit (Gay's dtoa, mode 0).  Schubfach finds
# those digits with integer arithmetic only (R. Giulietti, "The Schubfach way
# to render doubles", 2020; this follows the 64-bit form of A. Bolz's
# drachennest, which returns the shortest digits with no two-digit minimum).
# For x = c 2^q, with its rounding interval [x - 2^(q-1), x + 2^(q-1)]
# (the lower half-gap is 2^(q-2) for a power of two), it picks the decimal
# exponent k = floor(log10(gap)), so that the interval holds one multiple of
# 10^k or more and at most one of 10^(k+1), and reads 4 x 10^-k and the two
# ends scaled alike from one 128-bit power of ten g, rounded to odd: an odd
# result marks a fraction, which keeps every comparison with an even integer
# exact.  NumPy has no 128-bit product, so g times the 59-bit multiplier is
# formed from 32-bit limbs, summed in columns of weight 2^(32 i).

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# The decimal exponents k of every finite float64: floor(log10(2^q)) and
# floor(log10(3/4 2^q)) for q = -1074..971.
_K_MIN, _K_MAX = -324, 292
# Values per block: each block temporary is 32 KiB, below glibc's default
# 128 KiB mmap threshold, so temporaries reuse heap memory, not new mappings.
_BLOCK = 4096

# One value's text is laid out in a row of 32 slots.  Slots a value does not
# print hold 0 and are dropped.  Constant characters come from a per-form
# table; the digits, the exponent digits and the separator are written into
# the row.  Digit j is written at slot 7 + j: a digit slot before the
# decimal point prints the next slot's byte and one after it its own, so
# the point takes the one slot between them.
_SIGN = 0
_LEAD = 1  # "0.000", the lead of a fixed form below 1
_DIGITS = 6  # 18 slots: 17 digits and a point; digit j is written at slot 7 + j
_EXP = 26  # "e" and the exponent's sign
_EXP_DIGITS = 28  # 3 slots, then the separator
_WIDTH = 32
# A text's form: a fixed form with its decimal point position (decpt) from
# -3 to 16, or an exponent form of 2 or 3 digits and either sign; with the
# sign of the value and its digit count it selects one table row.  The last
# five rows are 0.0, -0.0, inf, -inf and nan.
_FORMS = 24
_SPECIAL = 2 * 17 * _FORMS


def _floor_log2_pow10(e):
    """floor(log2(10^e)) for |e| <= 1233 (of an int or an int64 array)."""
    return (e * 1741647) >> 19


def _floor_log10_pow2(q, closer):
    """floor(log10(2^q)), or floor(log10(3/4 2^q)) where `closer`, for
    |q| <= 1650 (of ints or int64 arrays)."""
    return (q * 1262611 - closer * 524031) >> 22


def _form_rows() -> tuple[bytes, bytes]:
    """The `keep` and `chars` tables, one 32-byte row per form: for each
    slot, whether it prints the row's own byte (1), the next slot's (2) or
    neither, and the constant character it prints, if any."""
    keep_rows, char_rows = [], []
    for neg, n, form in itertools.product((0, 1), range(1, 18), range(_FORMS)):
        keep, chars = bytearray(_WIDTH), bytearray(_WIDTH)
        chars[_SIGN] = ord("-") * neg
        if form <= 3:  # 0.000ddd
            lead = b"0.000"[: 5 - form]
            chars[_LEAD : _LEAD + len(lead)] = lead
            keep[_DIGITS : _DIGITS + n] = b"\2" * n
        elif form < 20:  # ddd.ddd, or ddd000.0
            decpt = form - 3
            keep[_DIGITS : _DIGITS + decpt] = b"\2" * decpt
            chars[_DIGITS + decpt] = ord(".")
            keep[_DIGITS + decpt + 1 : _DIGITS + max(n, decpt + 1) + 1] = b"\1" * (max(n, decpt + 1) - decpt)
        else:  # d.ddde+XX
            three, minus = divmod(form - 20, 2)
            keep[_DIGITS] = 2
            if n > 1:
                chars[_DIGITS + 1] = ord(".")
                keep[_DIGITS + 2 : _DIGITS + n + 1] = b"\1" * (n - 1)
            chars[_EXP : _EXP + 2] = b"e-" if minus else b"e+"
            keep[_EXP_DIGITS + 1 - three : _EXP_DIGITS + 3] = b"\1" * (2 + three)
        keep_rows.append(keep)
        char_rows.append(chars)
    for text in (b"0.0", b"-0.0", b"inf", b"-inf", b"nan"):
        keep, chars = bytearray(_WIDTH), bytearray(_WIDTH)
        start = _SIGN if text.startswith(b"-") else _SIGN + 1
        chars[start : start + len(text)] = text
        keep_rows.append(keep)
        char_rows.append(chars)
    for keep in keep_rows:
        keep[_WIDTH - 1] = 1  # the separator
    return b"".join(keep_rows), b"".join(char_rows)


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, computed exactly once and read-only."""
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        # g = 10^-k 2^(127 - floor(log2 10^-k)) rounded up: 2^127 <= g < 2^128.
        shift = 127 - _floor_log2_pow10(-k)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        powers.append(-(-(num << max(shift, 0)) // (den << max(-shift, 0))))
    # The four ASCII digits of 0..9999, and the three of 0..999 and a 0 byte.
    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % np.uint16(10)
    quads = (digits + np.uint16(ord("0"))).astype(np.uint8)
    exponents = np.zeros((1000, 4), np.uint8)
    exponents[:, :3] = quads[:1000, 1:]
    keep, chars = _form_rows()
    tables = SimpleNamespace(
        limbs=[np.array([(g >> (32 * i)) & 0xFFFFFFFF for g in powers], np.uint64) for i in range(4)],
        quads=quads.view(np.uint32).ravel(),
        exponents=exponents.view(np.uint32).ravel(),
        zeros=np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8),  # trailing, of 4
        powers=np.array([10**i for i in range(18)], np.uint64),
        keep=np.frombuffer(keep, np.uint8).reshape(-1, _WIDTH),
        chars=np.frombuffer(chars, np.uint8).reshape(-1, _WIDTH),
    )
    for array in (*tables.limbs, tables.quads, tables.exponents, tables.zeros, tables.powers):
        array.flags.writeable = False
    return tables


def _product_columns(g: list[np.ndarray], multiplier: np.ndarray) -> list[np.ndarray]:
    """g times `multiplier` (below 2^59) as five column sums: column i < 4
    holds 32-bit pieces of weight 2^(32 i), column 4 all of weight 2^128."""
    m0, m1 = multiplier & _LOW32, multiplier >> _U64(32)
    low = [limb * m0 for limb in g]  # weight 2^(32 i)
    high = [limb * m1 for limb in g]  # weight 2^(32 (i + 1))
    columns = [low[0] & _LOW32]
    for i in (1, 2, 3):
        column = low[i - 1] >> _U64(32)
        column += low[i] & _LOW32
        column += high[i - 1] & _LOW32
        if i > 1:
            column += high[i - 2] >> _U64(32)
        columns.append(column)
    top = low[3] >> _U64(32)
    top += high[2] >> _U64(32)
    top += high[3]
    return columns + [top]


def _round_to_odd(columns: list[np.ndarray]) -> np.ndarray:
    """floor(P / 2^128) of the product P in `columns`, with its lowest bit
    set when P's bits 64..127 are not all 0.  g is rounded up, which adds
    less than 2^59 to P, so a product that is exact in 10^-k keeps 0 there;
    Schubfach's analysis shows that an inexact one reads more."""
    x = columns[0] >> _U64(32)
    x += columns[1]
    x >>= _U64(32)
    x += columns[2]
    fraction = x & _LOW32
    x >>= _U64(32)
    x += columns[3]
    fraction |= x << _U64(32)
    x >>= _U64(32)
    x += columns[4]
    x |= np.minimum(fraction, _U64(1), out=fraction)
    return x


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr's digits of each finite nonzero float64 bit pattern, as an
    integer below 10^17, and its decimal exponent: the value is
    digits * 10^exponent."""
    limbs = _tables().limbs
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | (np.minimum(biased, _U64(1)) << _U64(52))  # x = c 2^q
    q = np.maximum(biased, _U64(1)).view(np.int64) - 1075
    closer = ((fraction == 0) & (biased > _U64(1))).astype(np.uint64)  # a power of two: the lower gap is half
    k = _floor_log10_pow2(q, closer.view(np.int64))
    h = (q + _floor_log2_pow10(-k) + 1).view(np.uint64)  # 1..4, so that g 2^h / 2^128 ~ 10^-k 2^q
    g = [np.take(limb, k - _K_MIN) for limb in limbs]
    odd = c & _U64(1)  # an odd c excludes the interval's ends
    # The interval's lower end is (4c - 2 + closer) 2^(q-2), so 4 10^-k times
    # it is g (4c - 2 + closer) 2^h / 2^128; the value's and the upper end's
    # products add g 2^(h + 1 - closer), then g 2^(h + 1), to its columns.
    columns = _product_columns(g, ((c << _U64(2)) - _U64(2) + closer) << h)
    lower = _round_to_odd(columns) + odd
    ends = []
    for step in (h + _U64(1) - closer, h + _U64(1)):
        for i in range(4):
            columns[i] += g[i] << step
        ends.append(_round_to_odd(columns))
    v, upper = ends
    upper -= odd
    # One multiple of 10^(k+1) inside the interval is the shortest; else the
    # multiple of 10^k inside that is nearest to x, ties to even.
    s = v >> _U64(2)
    shorter = v // _U64(40)
    bound = shorter * _U64(40)
    shorter_low_in = lower <= bound
    bound += _U64(40)
    shorter_high_in = bound <= upper
    use_shorter = (shorter_low_in != shorter_high_in) & (s >= _U64(10))
    shorter += shorter_high_in
    bound = v & _U64(~3 % 2**64)
    low_in = lower <= bound
    bound += _U64(4)
    high_in = bound <= upper
    # Nearest: v's bits 0..2 read 3, 6 or 7 (above the midpoint 4s + 2, or
    # on it with an odd s).
    round_up = ((_U64(0xC8) >> (v & _U64(7))) & _U64(1)).astype(bool)
    s += high_in & (~low_in | round_up)
    return np.where(use_shorter, shorter, s), k + use_shorter


class _FloatText:
    """The repr text of float64 values, each followed by its separator byte,
    one block per call, into buffers of min(size, `_BLOCK`) values made once
    per instance."""

    def __init__(self, size: int):
        block = min(size, _BLOCK)
        self._text = np.empty(block * _WIDTH, np.uint8)
        self._printed = np.empty(block * _WIDTH, bool)
        # A block's own bytes, and one more, so that every slot can be read
        # one slot to the right.
        self._own = np.zeros(block * _WIDTH + 4, np.uint8)
        self._keep = np.empty((block, _WIDTH), np.uint8)

    def render(self, values: np.ndarray, separators: np.ndarray) -> bytes:
        """The text of `values` (1-D float64, at most the buffers' size), the
        i-th followed by the byte separators[i]."""
        t = _tables()
        m = len(values)
        bits = np.ascontiguousarray(values).view(np.uint64)
        magnitude = bits & _U64((1 << 63) - 1)
        inf = _U64(0x7FF << 52)
        special = magnitude - _U64(1) >= inf - _U64(1)  # zero, inf or nan
        any_special = special.any()
        # A special value's text is a constant row, so its digits are those of 1.0.
        digits, exponent = _shortest(np.where(special, _U64(0x3FF << 52), bits) if any_special else bits)
        # Left-align the digits to 17 and write them in 4-digit groups.
        length = np.searchsorted(t.powers, digits, side="right")
        digits *= t.powers[17 - length]
        first = digits // _U64(10**16)
        digits -= first * _U64(10**16)
        high = digits // _U64(10**8)
        low = digits - high * _U64(10**8)
        first_four, third_four = high // _U64(10**4), low // _U64(10**4)
        groups = [first_four, high - first_four * _U64(10**4), third_four, low - third_four * _U64(10**4)]
        own = self._own[: m * _WIDTH].view(np.uint32).reshape(m, _WIDTH // 4)
        own[:, 1] = ((first + _U64(ord("0"))) << _U64(24)).astype(np.uint32)  # slot 7
        for word, group in enumerate(groups, 2):  # slots 8..23
            own[:, word] = t.quads[group]
        # The significant digits: 17 less the trailing zeros of the groups
        # (z >> 2 is 1 for a group of four zeros).
        z = [t.zeros[group] for group in groups]
        two = np.uint8(2)
        zeros = z[3] + (z[3] >> two) * (z[2] + (z[2] >> two) * (z[1] + (z[1] >> two) * z[0]))
        decpt = length + exponent  # x = 0.ddd * 10^decpt
        e = decpt - 1
        e_abs = np.abs(e)
        own[:, _EXP_DIGITS // 4] = t.exponents[e_abs] | (separators.astype(np.uint32) << np.uint32(24))
        fixed = (decpt > -4) & (decpt <= 16)
        form = np.where(fixed, decpt + 3, 20 + 2 * (e_abs >= 100) + (e < 0))
        sign = (bits >> _U64(63)).view(np.int64)
        row = (sign * 17 + 16 - zeros.astype(np.int64)) * _FORMS + form
        if any_special:
            code = np.where(magnitude == inf, 2 + sign, np.where(magnitude > inf, 4, sign))
            row = np.where(special, _SPECIAL + code, row)
        # Each slot's byte: a constant, its own or the next slot's; the
        # slots left at 0 are not printed.
        out = np.take(t.chars, row, axis=0, out=self._text[: m * _WIDTH].reshape(m, _WIDTH)).ravel()
        keep = np.take(t.keep, row, axis=0, out=self._keep[:m]).ravel()
        out += (keep & np.uint8(1)) * self._own[: m * _WIDTH]
        out += (keep >> np.uint8(1)) * self._own[1 : m * _WIDTH + 1]
        return out[np.not_equal(out, 0, out=self._printed[: len(out)])].tobytes()
