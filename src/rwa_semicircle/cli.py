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
floating point) or a --count or --bins too large to allocate, 2 bad usage:
text the parser cannot read, a rule only the command line has, or a
ValueError from the library's checks, which hold every range rule.
A reader that closes stdout early is not an I/O problem: the rest of the
output is discarded and the command keeps its verdict.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import traceback
from typing import Iterable

import numpy as np

from .distributions import Arcsine, PowerSemicircle, sample_spacings
from .exactmath import HalfInteger
from .moments import BAND_Z, lemma_rows, moment_rows, table_product_count
from .render import csv_chunks, decimal_str, excerpt, json_bytes, magnitude, rational_json, rational_str, sha256_hex
from .rwa import RwaSpec, rwa_batch
from .verify import MIN_SAMPLE_COUNT, VerifyConfig, run_verification

__all__ = ["build_parser", "main"]

# Integer products above which an exact table warns: tables of 10^7 took
# 11 s (moment --n 1001 --k-max 1153) to 67 s (--n 3 --k-max 3160, where
# the series' integers are widest) in-process on a 2-vCPU VM.
_TERM_WARN_LIMIT = 10_000_000
_MIN_BINS = 10  # the fewest histogram bins plot-data accepts


# ---------------------------------------------------------------------------
# argparse type converters (bad values -> exit code 2)


def _int_any(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {excerpt(repr(text))}")


def _float_any(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {excerpt(repr(text))}")


def _bounded(parse, ok, expected: str):
    """A converter: `parse` the text, then reject a value failing `ok` with
    "<expected>, got '<text>'"."""

    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{expected}, got {excerpt(repr(text))}")
        return value

    return convert


_positive_int = _bounded(_int_any, lambda v: v >= 1, "expected a positive integer")
_nonneg_int = _bounded(_int_any, lambda v: v >= 0, "expected an integer >= 0")
# NumPy sizes the bins + 1 float64 edges from float(bins + 1), which v < intp.max (sys.maxsize) keeps finite.
_bins = _bounded(_bounded(_int_any, lambda v: v >= _MIN_BINS, f"need at least {_MIN_BINS} bins"),
                 lambda v: v < sys.maxsize and 8 * float(v + 1) <= sys.maxsize,
                 "expected a bin count whose bins + 1 float64 edges fit in one NumPy array")


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


def _warn_long_table(params: tuple[HalfInteger, ...], degree: int) -> None:
    """Warn before an exact table whose series route forms more than
    `_TERM_WARN_LIMIT` integer products, or refuse its degree first."""
    products = table_product_count(params, degree)
    if products > _TERM_WARN_LIMIT:
        print(
            f"warning: this table forms {magnitude(products)} integer products "
            f"(> {_TERM_WARN_LIMIT}); expect a long run",
            file=sys.stderr,
        )


def _emit(chunks: Iterable[bytes], out: str | None) -> str:
    """Write one rendered result, chunk by chunk, to stdout or to the file
    `out`, and return the SHA-256 of its bytes, hashed in the same pass.

    The bytes go to stdout's binary layer, after anything already printed,
    with no decoded or re-encoded copy; a text-only stdout (such as
    `io.StringIO` under `contextlib.redirect_stdout`) gets them decoded.
    A reader that has closed stdout is not an error: stdout is pointed at
    os.devnull, so later chunks, later writes and the exit flush succeed,
    and the digest still covers every chunk."""
    if out is not None:
        with open(out, "wb") as file:
            return sha256_hex(chunks, file.write)
    if not hasattr(sys.stdout, "buffer"):
        return sha256_hex(chunks, lambda chunk: sys.stdout.write(chunk.decode("ascii")))
    return sha256_hex(chunks, _write_stdout)


def _write_stdout(chunk: bytes) -> None:
    try:
        sys.stdout.flush()
        sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_text(lines: Iterable[str]) -> None:
    """Write a text report to stdout, each of `lines` ended by LF."""
    _emit([("\n".join(lines) + "\n").encode("ascii")], None)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_moment(args: argparse.Namespace) -> int:
    spec = RwaSpec(n=args.n, a=args.a)
    spec.target_law()
    _warn_long_table((HalfInteger(1),) * args.n, args.k_max)
    rows = moment_rows(spec, args.k_max)
    all_equal = all(row.consistent for row in rows)
    if args.json:
        payload = {"n": args.n, "a": args.a, "rows": [row.to_json_dict() for row in rows], "all_equal": all_equal}
        _emit([json_bytes(payload)], None)
    else:
        _emit_text([
            f"moments of the weighted average: n = {args.n}, a = {args.a:g}",
            f"{'k':>3} {'closed form':>16} {'oracle':>16} {'decimal':>32} equal",
            *(f"{row.k:>3} {closed:>16} {closed if row.consistent else rational_str(row.oracle):>16} "
              f"{decimal_str(row.closed_form):>32} {'yes' if row.consistent else 'NO'}"
              for row in rows for closed in [rational_str(row.closed_form)]),
        ])
    return 0 if all_equal else 1


def _cmd_lemma_check(args: argparse.Namespace) -> int:
    params = args.params
    _warn_long_table(params, args.r_max)
    render = rational_json if args.json else rational_str
    rows = [(r, text, text if lhs == rhs else render(rhs), lhs == rhs)
            for r, lhs, rhs in lemma_rows(params, args.r_max) for text in [render(lhs)]]
    all_equal = all(equal for *_, equal in rows)
    if args.json:
        json_rows = [{"r": r, "lhs": lhs, "rhs": rhs, "equal": equal} for r, lhs, rhs, equal in rows]
        _emit([json_bytes({"params": [str(p) for p in params], "rows": json_rows, "all_equal": all_equal})], None)
    else:
        _emit_text([
            f"identity check for params = [{', '.join(str(p) for p in params)}]",
            f"{'r':>3} {'composition sum':>20} {'gamma ratio':>20} equal",
            *(f"{r:>3} {lhs:>20} {rhs:>20} {'yes' if equal else 'NO'}" for r, lhs, rhs, equal in rows),
        ])
    return 0 if all_equal else 1


def _cmd_sample_table(args: argparse.Namespace) -> int:
    """Write the header and table that `args.draw` draws from the seed's generator."""
    header, table = args.draw(args, np.random.default_rng(args.seed))
    _emit(csv_chunks(header, table), args.out)
    return 0


def _spacings_table(args: argparse.Namespace, rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    # The header is built from the drawn table's width, after sample_spacings
    # has checked the size, so a refused --n never builds --n header fields.
    weights = sample_spacings(args.n, rng, size=args.count)
    return [f"w{i + 1}" for i in range(weights.shape[1])], weights


def _cmd_sample_rwa(args: argparse.Namespace) -> int:
    batch = rwa_batch(RwaSpec(n=args.n, a=args.a), args.count, args.seed, shards=args.shards)
    digest = _emit(batch.csv_chunks(), args.out)
    if args.envelope is not None:
        _emit([batch.envelope_bytes(digest)], args.envelope)
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
    _warn_long_table((HalfInteger(1),) * args.n, args.k_max)
    outcome = run_verification(cfg)

    lines = [
        f"[{'PASS' if outcome.ks_pass else 'FAIL'}] ks: D = {outcome.ks_statistic:.5f} vs critical "
        f"{outcome.ks_critical:.5f} (alpha = {cfg.alpha:g}, N = {cfg.sample_count})"
    ]
    for row in outcome.moment_rows:
        empirical = "outside the float range" if row.empirical is None else f"{row.empirical:.6g}"
        lines.append(
            f"[{'PASS' if row.passes() else 'FAIL'}] moment order {2 * row.k}: "
            f"empirical {empirical} vs exact {decimal_str(row.closed_form, 8)} "
            f"(z = {row.z:.2f} vs {BAND_Z})"
        )
    lines.append(f"verify: {'PASS' if outcome.overall_pass else 'FAIL'}")
    _emit_text(lines)

    if args.json is not None:
        _emit([json_bytes(outcome.to_json_dict())], args.json)
    return 0 if outcome.overall_pass else 1


def _cmd_plot_data(args: argparse.Namespace) -> int:
    # Binned in the unit variable values / a, so no width of order a divides the counts.
    unit_law = RwaSpec(n=args.n).target_law()
    batch = rwa_batch(RwaSpec(n=args.n, a=args.a), args.count, args.seed)
    bins = args.bins if args.bins is not None else max(_MIN_BINS, math.ceil(2.0 * args.count ** (1.0 / 3.0)))
    density, edges = np.histogram(batch.values / args.a, bins=bins, range=(-1.0, 1.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    header = ["bin_center", "empirical_density", "theoretical_density"]
    table = np.stack([args.a * centers, density / args.a, unit_law.pdf(centers) / args.a], axis=1)
    _emit(csv_chunks(header, table), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring

# The parts of argparse's own messages that repeat what was typed: the
# arguments left over, a refused choice and an ambiguous option.
_ECHOED = re.compile(
    r"(?<=^unrecognized arguments: ).*"
    r"|(?<=invalid choice: ).*?(?= \(choose from )"
    r"|(?<=ambiguous option: ).*?(?= could match )",
    re.DOTALL,
)

# How every text that float() reads and that starts with "-" begins: argparse
# takes such a text after an option as its value.  Its own pattern misses
# "-1e-3" and "-inf", which it then reads as options.
_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error line repeats typed text only through
    `excerpt`.  Every subparser is one, as `add_subparsers` makes parsers of
    its parent's class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NUMBER

    def error(self, message: str):
        super().error(_ECHOED.sub(lambda echo: excerpt(echo.group()), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rwa",
        description=(
            "Exact and Monte Carlo checks that the randomly weighted average "
            "of arcsine variables follows a power semicircle law."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The n and a of every subcommand on one (n, a) instance; the one-law samplers take a alone.
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=_int_any, required=True, help="number of averaged variables (>= 2)")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--a", type=_float_any, default=1.0, help="scale: every value lies in (-a, a) (default 1)")

    # Options shared by every subcommand that draws and writes a CSV.
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--count", type=_positive_int, required=True)
    draws.add_argument("--seed", type=_nonneg_int, required=True)
    draws.add_argument("--out", default=None, help="CSV path (default: stdout)")

    p_moment = sub.add_parser("moment", parents=[instance, scale], help="exact moment table, both routes side by side")
    p_moment.add_argument("--k-max", type=_nonneg_int, required=True, help="table covers E S^(2k) for k = 0..k_max")
    p_moment.add_argument("--json", action="store_true", help="emit the table as JSON")
    p_moment.set_defaults(func=_cmd_moment)

    p_lemma = sub.add_parser("lemma-check", help="gamma-ratio composition identity for r = 0..r_max")
    p_lemma.add_argument("--params", type=_half_integer_list, required=True, help="comma-separated half-integers, e.g. '1/2,1,3/2'")
    p_lemma.add_argument("--r-max", type=_nonneg_int, required=True, help="check every exponent r = 0..r_max")
    p_lemma.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_lemma.set_defaults(func=_cmd_lemma_check)

    p_sample = sub.add_parser("sample", help="draw from one of the laws involved")
    sample_sub = p_sample.add_subparsers(dest="source", required=True)

    p_arc = sample_sub.add_parser("arcsine", parents=[draws, scale], help="arcsine law on (-a, a)")
    p_arc.set_defaults(func=_cmd_sample_table, draw=lambda args, rng: (["value"], Arcsine(a=args.a).sample(rng, args.count)[:, None]))

    p_psc = sample_sub.add_parser("psc", parents=[draws, scale], help="power semicircle law on (-a, a)")
    p_psc.add_argument("--lambda", dest="lam", type=_float_any, required=True, help="exponent p/2, p an integer in 0..1000")
    p_psc.set_defaults(func=_cmd_sample_table, draw=lambda args, rng: (["value"], PowerSemicircle(lam=args.lam, a=args.a).sample(rng, args.count)[:, None]))

    p_spc = sample_sub.add_parser("spacings", parents=[draws], help="uniform spacing weights (flat Dirichlet rows)")
    p_spc.add_argument("--n", type=_int_any, required=True, help="number of spacings per row (>= 2)")
    p_spc.set_defaults(func=_cmd_sample_table, draw=_spacings_table)

    p_rwa = sample_sub.add_parser("rwa", parents=[draws, instance, scale], help="the randomly weighted average itself")
    p_rwa.add_argument("--shards", type=_int_any, default=1)
    p_rwa.add_argument("--envelope", default=None, help="also write a JSON envelope with a values digest")
    p_rwa.set_defaults(func=_cmd_sample_rwa)

    p_verify = sub.add_parser("verify", parents=[instance, scale], help="KS + moment-band verification of one (n, a) instance")
    p_verify.add_argument("--shards", type=_int_any, default=VerifyConfig.shards)
    p_verify.add_argument("--count", type=_int_any, default=VerifyConfig.sample_count, help=f"Monte Carlo draws (>= {MIN_SAMPLE_COUNT}, default {VerifyConfig.sample_count})")
    p_verify.add_argument("--seed", type=_nonneg_int, default=VerifyConfig.seed)
    p_verify.add_argument("--k-max", type=_nonneg_int, default=VerifyConfig.max_moment_k, help=f"band-check moments up to order 2*k_max (default {VerifyConfig.max_moment_k})")
    p_verify.add_argument("--alpha", type=_float_any, default=VerifyConfig.alpha, help=f"KS significance level (default {VerifyConfig.alpha})")
    p_verify.add_argument("--json", default=None, help="also write the full outcome as JSON to this path")
    p_verify.add_argument("--lambda-override", type=_float_any, default=VerifyConfig.lambda_override, help="(testing only) force this exponent, p/2 with p an integer in 0..1000, as the KS null instead of (n-1)/2")
    p_verify.set_defaults(func=_cmd_verify)

    p_plot = sub.add_parser("plot-data", parents=[draws, instance, scale], help="histogram vs target density, as CSV")
    p_plot.add_argument("--bins", type=_bins, default=None, help=f"histogram bins, >= {_MIN_BINS} (default: Rice rule)")
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
    except ValueError as exc:  # the library's argument checks, and NumPy's size-product limit
        parser.error(f"{command}: {exc}")
    except (OSError, ArithmeticError, MemoryError) as exc:
        # An exception with no text, such as MemoryError(), is named by its class.
        print(f"error: {command}: {str(exc) or type(exc).__name__} (in {_failing_function(exc)})", file=sys.stderr)
        return 1


def _failing_function(exc: BaseException) -> str:
    """`module.function` of the innermost traceback frame inside this package."""
    where = ""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith(f"{__package__}."):
            where = f"{module[len(__package__) + 1:]}.{frame.f_code.co_name}"
    return where
