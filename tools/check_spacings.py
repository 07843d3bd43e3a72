"""Check that `sample_spacings` writes the bytes of the spacings' definition.

Run from the root of a checkout (or with the package installed):

    PYTHONPATH=src python3 tools/check_spacings.py --rows 1000000 --seed 1

For every n from 2 to two past the widest row that the comparator networks
sort, and for n = 64, it draws --rows rows of spacings with `sample_spacings`
and the same uniforms again from a second generator of the same seed, and
compares the bytes with the definition taken literally: a full row sort, then
`np.diff` of the rows padded with 0 and 1.  The rows are drawn BLOCK at a
time, so memory stays bounded at any --rows.  It prints the sizes checked, or
exits 1 at the first n that differs, naming it and its first differing row.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from rwa_semicircle.distributions import _NETWORK_MAX, sample_spacings

BLOCK = 65_536
SIZES = [*range(2, _NETWORK_MAX + 4), 64]


def by_definition(u: np.ndarray) -> np.ndarray:
    """Sort each row of uniforms, pad it with 0 and 1, take differences."""
    return np.diff(np.sort(u, axis=1), axis=1, prepend=0.0, append=1.0)


def first_difference(n: int, rows: int, seed: int) -> int | None:
    """The first row of n spacings whose bytes differ from the definition's,
    or None."""
    kernel, definition = np.random.default_rng(seed), np.random.default_rng(seed)
    for start in range(0, rows, BLOCK):
        size = min(BLOCK, rows - start)
        got = sample_spacings(n, kernel, size=size)
        want = by_definition(definition.random((size, n - 1)))
        if got.tobytes() != want.tobytes():
            differs = np.any(got.view(np.uint64) != want.view(np.uint64), axis=1)
            return start + int(np.argmax(differs))
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000, help="rows per size (default 10^6)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for n in SIZES:
        row = first_difference(n, args.rows, args.seed)
        if row is not None:
            print(f"n = {n}: row {row} of the kernel differs from the definition", file=sys.stderr)
            return 1
    print(f"n = {SIZES[0]}..{SIZES[-2]} and {SIZES[-1]}, {args.rows} rows each: "
          "the kernel wrote the bytes of the definition")
    return 0


if __name__ == "__main__":
    sys.exit(main())
