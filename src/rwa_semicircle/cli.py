"""Command line front end.

Subcommands:

* ``moment``      -- table of exact moments of the weighted average, both
                     routes side by side, for k = 0..k_max.
* ``lemma-check`` -- the gamma-ratio composition identity for r = 0..r_max.
* ``sample``      -- draw from the building-block laws or the average itself.
* ``verify``      -- KS + moment-band verification of one (n, a) instance.
* ``plot-data``   -- histogram-vs-target-density table for external plotting.

Exit codes: 0 all checks passed / output written, 1 a check failed, an
I/O problem, a numeric failure (an input too large or too small for
floating point) or a --count too large to allocate, 2 bad usage: a value
the parser rejects, or any ValueError, which is how the library checks its
arguments and how NumPy refuses a size beyond its index range.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .distributions import Arcsine, PowerSemicircle, sample_spacings
from .exactmath import HalfInteger, composition_count
from .moments import (
    BAND_Z,
    lemma_lhs,
    lemma_rhs,
    moment_rows,
    oracle_term_count,
    rwa_moment_closed,
    rwa_moment_oracle,
)
from .render import csv_bytes, decimal_str, json_bytes, rational_json
from .rwa import RwaSpec, rwa_batch
from .verify import VerifyConfig, run_verification

__all__ = ["build_parser", "main"]

_TERM_WARN_LIMIT = 10_000_000


# ---------------------------------------------------------------------------
# argparse type converters (bad values -> exit code 2)


def _int_any(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _float_any(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _bounded(parse, ok, expected: str):
    """A converter: `parse` the text, then reject a value failing `ok` with
    "<expected>, got '<text>'"."""

    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{expected}, got {text!r}")
        return value

    return convert


_positive_int = _bounded(_int_any, lambda v: v >= 1, "expected a positive integer")
_nonneg_int = _bounded(_int_any, lambda v: v >= 0, "expected an integer >= 0")
_size = _bounded(_int_any, lambda v: v >= 2, "the average needs n >= 2")
_positive_float = _bounded(_float_any, lambda v: v > 0, "expected a positive number")


def _exponent(text: str) -> float:
    """A power semicircle exponent, checked by `PowerSemicircle` itself."""
    try:
        return PowerSemicircle(lam=_float_any(text)).lam
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _half_integer_list(text: str) -> tuple[HalfInteger, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected at least one parameter")
    try:
        return tuple(HalfInteger.parse(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# small output helpers


def _warn_term_count(count: int) -> None:
    if count > _TERM_WARN_LIMIT:
        print(
            f"warning: this enumeration visits {count} compositions "
            f"(> {_TERM_WARN_LIMIT}); expect a long run",
            file=sys.stderr,
        )


def _moment_term_count(n: int, k_max: int, *, literal_parity: bool = False) -> int:
    """Compositions the oracle walks for the rows k = 0..k_max, plus the
    literal-parity walk of every order 2k when that route is checked too."""
    routes = (False, True) if literal_parity else (False,)
    return sum(
        oracle_term_count(n, 2 * k, literal_parity=route)
        for k in range(k_max + 1)
        for route in routes
    )


def _emit(data: bytes, out: str | None) -> None:
    """Write one rendered artifact to stdout, or to the file `out`."""
    if out is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        Path(out).write_bytes(data)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_moment(args: argparse.Namespace) -> int:
    _warn_term_count(_moment_term_count(args.n, args.k_max, literal_parity=args.literal_parity))
    rows = moment_rows(RwaSpec(n=args.n, a=args.a), args.k_max)
    if args.literal_parity:
        for k in range(args.k_max + 1):
            if rwa_moment_oracle(args.n, 2 * k, literal_parity=True) != rwa_moment_closed(args.n, k):
                print(f"literal-parity oracle disagrees at k={k}", file=sys.stderr)
                return 1
    all_equal = all(row.consistent for row in rows)

    if args.json:
        payload = {
            "n": args.n,
            "a": args.a,
            "rows": [row.to_json_dict() for row in rows],
            "all_equal": all_equal,
        }
        _emit(json_bytes(payload), None)
    else:
        print(f"moments of the weighted average: n = {args.n}, a = {args.a:g}")
        print(f"{'k':>3} {'closed form':>16} {'oracle':>16} {'decimal':>32} equal")
        for row in rows:
            print(
                f"{row.k:>3} {str(row.closed_form):>16} {str(row.oracle):>16} "
                f"{decimal_str(row.closed_form):>32} {'yes' if row.consistent else 'NO'}"
            )
    return 0 if all_equal else 1


def _cmd_lemma_check(args: argparse.Namespace) -> int:
    params = args.params
    total_terms = sum(composition_count(r, len(params)) for r in range(args.r_max + 1))
    _warn_term_count(total_terms)
    rows = []
    for r in range(args.r_max + 1):
        lhs = lemma_lhs(params, r)
        rhs = lemma_rhs(params, r)
        rows.append((r, lhs, rhs, lhs == rhs))
    all_equal = all(eq for _, _, _, eq in rows)

    if args.json:
        payload = {
            "params": [str(p) for p in params],
            "rows": [
                {
                    "r": r,
                    "lhs": rational_json(lhs),
                    "rhs": rational_json(rhs),
                    "equal": eq,
                }
                for r, lhs, rhs, eq in rows
            ],
            "all_equal": all_equal,
        }
        _emit(json_bytes(payload), None)
    else:
        print(f"identity check for params = [{', '.join(str(p) for p in params)}]")
        print(f"{'r':>3} {'composition sum':>20} {'gamma ratio':>20} equal")
        for r, lhs, rhs, eq in rows:
            print(f"{r:>3} {str(lhs):>20} {str(rhs):>20} {'yes' if eq else 'NO'}")
    return 0 if all_equal else 1


def _cmd_sample_law(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    values = args.law(args).sample(rng, args.count)
    _emit(csv_bytes(["value"], values), args.out)
    return 0


def _cmd_sample_spacings(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    rows = sample_spacings(args.n, rng, size=args.count, method=args.method)
    header = [f"w{i + 1}" for i in range(args.n)]
    _emit(csv_bytes(header, *rows.T), args.out)
    return 0


def _cmd_sample_rwa(args: argparse.Namespace) -> int:
    spec = RwaSpec(n=args.n, a=args.a)
    batch = rwa_batch(spec, args.count, args.seed, shards=args.shards)
    if args.out is None:
        _emit(batch.csv_bytes(), None)
    else:
        batch.write_csv(args.out)
    if args.envelope is not None:
        _emit(batch.envelope_bytes(), args.envelope)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = VerifyConfig(
        spec=RwaSpec(n=args.n, a=args.a),
        sample_count=args.count,
        seed=args.seed,
        max_moment_k=args.k_max,
        alpha=args.alpha,
        shards=args.shards,
        lambda_override=args.lambda_override,
    )
    _warn_term_count(_moment_term_count(args.n, args.k_max))
    outcome = run_verification(cfg)

    lines = [
        f"[{'PASS' if outcome.ks_pass else 'FAIL'}] ks: D = {outcome.ks_statistic:.5f} vs critical "
        f"{outcome.ks_critical:.5f} (alpha = {cfg.alpha:g}, N = {cfg.sample_count})"
    ]
    for row in outcome.moment_rows:
        lines.append(
            f"[{'PASS' if row.within_band() else 'FAIL'}] moment order {2 * row.k}: "
            f"empirical {row.empirical:.6g} vs exact {decimal_str(row.closed_form, 8)} "
            f"(z = {row.z:.2f} vs {BAND_Z})"
        )
    lines.append(f"verify: {'PASS' if outcome.overall_pass else 'FAIL'}")
    print("\n".join(lines))

    if args.json is not None:
        _emit(json_bytes(outcome.to_json_dict()), args.json)
    return 0 if outcome.overall_pass else 1


def _cmd_plot_data(args: argparse.Namespace) -> int:
    spec = RwaSpec(n=args.n, a=args.a)
    law = spec.target_law()
    batch = rwa_batch(spec, args.count, args.seed, shards=args.shards)
    bins = args.bins if args.bins is not None else max(10, math.ceil(2.0 * args.count ** (1.0 / 3.0)))
    density, edges = np.histogram(batch.values, bins=bins, range=(-args.a, args.a), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    header = ["bin_center", "empirical_density", "theoretical_density"]
    _emit(csv_bytes(header, centers, density, law.pdf(centers)), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwa",
        description=(
            "Exact and Monte Carlo checks that the randomly weighted average "
            "of arcsine variables follows a power semicircle law."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by every subcommand that acts on one (n, a) instance.
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=_size, required=True, help="number of averaged variables (>= 2)")
    instance.add_argument("--a", type=_positive_float, default=1.0, help="arcsine scale (default 1)")

    # Options shared by every subcommand that draws and writes a CSV.
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--count", type=_positive_int, required=True)
    draws.add_argument("--seed", type=_nonneg_int, required=True)
    draws.add_argument("--out", default=None, help="CSV path (default: stdout)")

    # The worker-shard count of every subcommand that draws the average.
    sharded = argparse.ArgumentParser(add_help=False)
    sharded.add_argument("--shards", type=_positive_int, default=1)

    p_moment = sub.add_parser("moment", parents=[instance], help="exact moment table, both routes side by side")
    p_moment.add_argument("--k-max", type=_nonneg_int, required=True, help="table covers E S^(2k) for k = 0..k_max")
    p_moment.add_argument("--literal-parity", action="store_true", help="re-check each row without the odd-term shortcut (slow)")
    p_moment.add_argument("--json", action="store_true", help="emit the table as JSON")
    p_moment.set_defaults(func=_cmd_moment)

    p_lemma = sub.add_parser("lemma-check", help="gamma-ratio composition identity for r = 0..r_max")
    p_lemma.add_argument("--params", type=_half_integer_list, required=True, help="comma-separated half-integers, e.g. '1/2,1,3/2'")
    p_lemma.add_argument("--r-max", type=_nonneg_int, required=True, help="check every exponent r = 0..r_max")
    p_lemma.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_lemma.set_defaults(func=_cmd_lemma_check)

    p_sample = sub.add_parser("sample", help="draw from one of the laws involved")
    sample_sub = p_sample.add_subparsers(dest="source", required=True)

    p_arc = sample_sub.add_parser("arcsine", parents=[draws], help="arcsine law on (-a, a)")
    p_arc.add_argument("--a", type=_positive_float, default=1.0)
    p_arc.set_defaults(func=_cmd_sample_law, law=lambda args: Arcsine(a=args.a))

    p_psc = sample_sub.add_parser("psc", parents=[draws], help="power semicircle law on (-a, a)")
    p_psc.add_argument("--lambda", dest="lam", type=_exponent, required=True, help="exponent p/2, p an integer in 0..1000")
    p_psc.add_argument("--a", type=_positive_float, default=1.0)
    p_psc.set_defaults(func=_cmd_sample_law, law=lambda args: PowerSemicircle(lam=args.lam, a=args.a))

    p_spc = sample_sub.add_parser("spacings", parents=[draws], help="uniform spacing weights (flat Dirichlet rows)")
    p_spc.add_argument("--n", type=_size, required=True, help="number of spacings per row (>= 2)")
    p_spc.add_argument("--method", choices=["sorted-uniforms", "exponential"], default="sorted-uniforms")
    p_spc.set_defaults(func=_cmd_sample_spacings)

    p_rwa = sample_sub.add_parser("rwa", parents=[draws, instance, sharded], help="the randomly weighted average itself")
    p_rwa.add_argument("--envelope", default=None, help="also write a JSON envelope with a values digest")
    p_rwa.set_defaults(func=_cmd_sample_rwa)

    p_verify = sub.add_parser("verify", parents=[instance, sharded], help="KS + moment-band verification of one (n, a) instance")
    p_verify.add_argument("--count", type=_bounded(_int_any, lambda v: v >= 100, "verification needs at least 100 draws"), default=100_000, help="Monte Carlo draws (>= 100, default 100000)")
    p_verify.add_argument("--seed", type=_nonneg_int, default=1234)
    p_verify.add_argument("--k-max", type=_nonneg_int, default=3, help="band-check moments up to order 2*k_max (default 3)")
    p_verify.add_argument("--alpha", type=_bounded(_float_any, lambda v: 0 < v < 1, "expected a value in (0, 1)"), default=0.01, help="KS significance level (default 0.01)")
    p_verify.add_argument("--json", default=None, help="also write the full outcome as JSON to this path")
    p_verify.add_argument("--lambda-override", type=_exponent, default=None, help="(testing only) force this exponent, p/2 with p an integer in 0..1000, as the KS null instead of (n-1)/2")
    p_verify.set_defaults(func=_cmd_verify)

    p_plot = sub.add_parser("plot-data", parents=[draws, instance, sharded], help="histogram vs target density, as CSV")
    p_plot.add_argument("--bins", type=_bounded(_int_any, lambda v: v >= 10, "need at least 10 bins"), default=None, help="histogram bins, >= 10 (default: Rice rule)")
    p_plot.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, vars(args).get("source"))))
    try:
        # A non-finite NumPy result raises FloatingPointError where it first
        # arises, so it is reported by the one error line below.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ValueError as exc:  # the library's argument checks, and NumPy's size limit
        parser.error(f"{command}: {exc}")
    except (OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {command}: {exc} (in {_failing_function(exc)})", file=sys.stderr)
        return 1


def _failing_function(exc: BaseException) -> str:
    """`module.function` of the innermost traceback frame inside this package."""
    where = ""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith(f"{__package__}."):
            where = f"{module[len(__package__) + 1:]}.{frame.f_code.co_name}"
    return where
