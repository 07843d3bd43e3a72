"""Check that `render.csv_bytes` writes the bytes of repr for every float64.

Run from the root of a checkout (or with the package installed):

    PYTHONPATH=src python3 tools/check_csv_floats.py --count 10000000 --seed 1

It renders --count seeded random 64-bit patterns (every sign, exponent and
significand: subnormals, infinities and NaN payloads included), 10^6 at a
time, and then every power of two from 2^-1074 to 2^1023 with both of its
neighbours and the negatives of all of them, each block as a one-column
table, and compares the bytes with the same table written by repr.  It
prints the number of values checked, or exits 1 at the first block that
differs, naming its first differing values.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from rwa_semicircle import render

BLOCK = 1_000_000


def by_repr(values: np.ndarray) -> bytes:
    """The one-column table of `values`, each written by repr."""
    return ("value\n" + "".join(f"{value!r}\n" for value in values.tolist())).encode("ascii")


def differences(values: np.ndarray) -> list[tuple[str, str]]:
    """(kernel, repr) for each value whose text differs."""
    got = render.csv_bytes(["value"], values[:, None])
    want = by_repr(values)
    if got == want:
        return []
    pairs = zip(got.decode("ascii").splitlines(), want.decode("ascii").splitlines())
    return [(g, w) for g, w in pairs if g != w]


def blocks(count: int, seed: int):
    """The seeded random bit patterns, BLOCK at a time, then the powers of
    two with their neighbours."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, BLOCK):
        size = min(BLOCK, count - start)
        yield rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    around = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    yield np.concatenate([around, -around])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000_000, help="random bit patterns (default 10^7)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checked = 0
    for values in blocks(args.count, args.seed):
        wrong = differences(values)
        if wrong:
            print(f"{len(wrong)} values differ from repr (kernel, repr): {wrong[:5]}", file=sys.stderr)
            return 1
        checked += len(values)
    print(f"{checked} values: the kernel wrote the bytes of repr for each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
