"""End-to-end tests of the ``rwa`` command line tool.

Everything runs through ``main(argv)`` so exit codes and output are checked
exactly as a shell user would see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rwa_semicircle
from rwa_semicircle import moments, render
from rwa_semicircle.cli import build_parser, main
from rwa_semicircle.exactmath import HalfInteger
from rwa_semicircle.gof import ks_statistic
from rwa_semicircle.moments import rwa_moment_closed
from rwa_semicircle.render import csv_bytes
from rwa_semicircle.rwa import RwaSpec, rwa_batch
from rwa_semicircle.verify import VerifyConfig, VerifyOutcome, run_verification


def _usage_error(argv: list[str]) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# usage errors -> exit code 2

_BAD_VALUES = [
    ["sample", "arcsine", "--a", "inf", "--count", "5", "--seed", "1"],
    ["sample", "psc", "--lambda", "inf", "--count", "5", "--seed", "1"],
    ["sample", "psc", "--lambda", "nan", "--count", "5", "--seed", "1"],
    ["verify", "--n", "3", "--a", "inf"],
    ["verify", "--n", "3", "--lambda-override", "inf"],
    ["moment", "--n", "3", "--k-max", "1", "--a", "1e999"],
    ["sample", "rwa", "--n", "3", "--count", "5", "--seed", "-1"],
    ["sample", "spacings", "--n", "3", "--count", "5", "--seed", "-1"],
    ["verify", "--n", "3", "--seed", "-1"],
    ["plot-data", "--n", "3", "--count", "100", "--seed", "-1"],
    ["verify", "--n", "3", "--count", "100", "--shards", "200"],
    ["sample", "rwa", "--n", "3", "--count", "5", "--seed", "1", "--shards", "6"],
    ["sample", "rwa", "--n", "3", "--count", "5", "--seed", "1", "--shards", "0"],
    # the exponent is p/2 for an integer p in 0..1000
    ["sample", "psc", "--lambda", "0.3", "--count", "5", "--seed", "1"],
    ["sample", "psc", "--lambda", "500.5", "--count", "5", "--seed", "1"],
    ["verify", "--n", "3", "--count", "1000", "--lambda-override", "1e6"],
    ["verify", "--n", "3", "--count", "1000", "--lambda-override", "1e308"],
    # so the target law (n - 1)/2 needs n <= 1001
    ["verify", "--n", "1002", "--count", "1000", "--k-max", "0"],
    ["plot-data", "--n", "1002", "--count", "100", "--seed", "1"],
    # a size beyond NumPy's index range
    ["sample", "rwa", "--n", "3", "--seed", "1", "--count", "10000000000000000000"],
    ["verify", "--n", "3", "--count", "10000000000000000000"],
    ["sample", "psc", "--lambda", "2", "--seed", "1", "--count", "10000000000000000000"],
    ["sample", "spacings", "--n", "10000000000000000000", "--count", "1", "--seed", "1"],
    ["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--bins", "10000000000000000000"],
    # the moment table asks the target law too
    ["moment", "--n", "1002", "--k-max", "0"],
    # bins + 1 float64 edges beyond NumPy's array limit
    ["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--bins", "4611686018427387904"],
    # a scale below the smallest normal float
    ["moment", "--n", "3", "--k-max", "1", "--a", "1e-320"],
    ["sample", "arcsine", "--a", "5e-324", "--count", "5", "--seed", "1"],
]


class TestUsageErrors:
    def test_no_arguments(self):
        _usage_error([])

    def test_unknown_subcommand(self):
        _usage_error(["frobnicate"])

    def test_moment_rejects_n_below_two(self):
        _usage_error(["moment", "--n", "1", "--k-max", "2"])

    def test_moment_requires_k_max(self):
        _usage_error(["moment", "--n", "3"])

    def test_moment_rejects_negative_k_max(self):
        _usage_error(["moment", "--n", "3", "--k-max", "-1"])

    def test_lemma_check_rejects_zero_parameter(self):
        _usage_error(["lemma-check", "--params", "0,1", "--r-max", "3"])

    def test_lemma_check_rejects_non_half_integer(self):
        _usage_error(["lemma-check", "--params", "1/3", "--r-max", "3"])

    def test_lemma_check_rejects_empty_params(self):
        _usage_error(["lemma-check", "--params", ",", "--r-max", "3"])

    def test_sample_psc_rejects_negative_lambda(self):
        _usage_error(["sample", "psc", "--lambda", "-1", "--count", "5", "--seed", "1"])

    def test_sample_rejects_zero_count(self):
        _usage_error(["sample", "arcsine", "--count", "0", "--seed", "1"])

    def test_sample_rejects_nonpositive_scale(self):
        _usage_error(["sample", "arcsine", "--a", "0", "--count", "5", "--seed", "1"])

    def test_verify_rejects_count_below_hundred(self):
        _usage_error(["verify", "--n", "3", "--count", "50"])

    def test_verify_rejects_alpha_one(self):
        _usage_error(["verify", "--n", "3", "--alpha", "1.0"])

    def test_plot_data_rejects_few_bins(self):
        _usage_error(
            ["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--bins", "5"]
        )

    # Fixed ids: these cases are tracked by name across versions of the suite.
    @pytest.mark.parametrize("argv", _BAD_VALUES, ids=[f"env{i}-argv{i}" for i in range(len(_BAD_VALUES))])
    def test_bad_value_is_one_line_usage_error(self, argv, capsys):
        _usage_error(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.startswith("rwa") and ": error: " in message
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["moment", "--n", "x", "--k-max", "1"],
             "rwa moment: error: argument --n: expected an integer, got 'x'"),
            (["sample", "arcsine", "--count", "0", "--seed", "1"],
             "rwa sample arcsine: error: argument --count: expected a positive integer, got '0'"),
            (["moment", "--n", "3", "--k-max", "-1"],
             "rwa moment: error: argument --k-max: expected an integer >= 0, got '-1'"),
            (["sample", "spacings", "--n", "1", "--count", "5", "--seed", "1"],
             "rwa: error: sample spacings: need n >= 2 spacings, got 1"),
            (["verify", "--n", "3", "--count", "50"],
             "rwa: error: verify: need at least 100 draws, got 50"),
            (["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--bins", "5"],
             "rwa plot-data: error: argument --bins: need at least 10 bins, got '5'"),
            (["verify", "--n", "3", "--alpha", "x"],
             "rwa verify: error: argument --alpha: expected a number, got 'x'"),
            (["moment", "--n", "3", "--k-max", "1", "--a", "1e999"],
             "rwa: error: moment: scale must be positive and finite, at least the smallest normal float "
             "2.2250738585072014e-308, got a=inf"),
            (["sample", "arcsine", "--a", "-2", "--count", "5", "--seed", "1"],
             "rwa: error: sample arcsine: scale must be positive and finite, at least the smallest normal float "
             "2.2250738585072014e-308, got a=-2.0"),
            (["sample", "psc", "--lambda", "-1", "--count", "5", "--seed", "1"],
             "rwa: error: sample psc: exponent must be p/2 for an integer p in 0..1000, got lam=-1.0"),
            (["verify", "--n", "3", "--alpha", "1.0"],
             "rwa: error: verify: alpha must be in (0, 1), got 1.0"),
            (["sample", "rwa", "--n", "3", "--count", "5", "--seed", "1", "--shards", "6"],
             "rwa: error: sample rwa: cannot split 5 draws over 6 shards"),
            (["lemma-check", "--params", "1/3", "--r-max", "3"],
             "rwa lemma-check: error: argument --params: 1/3 is not a half-integer"),
            (["verify", "--n", "3", "--count", "100", "--shards", "200"],
             "rwa: error: verify: cannot split 100 draws over 200 shards"),
            # A size beyond NumPy's index range is the draw's own size rule,
            # which names the count and n of the draw.
            (["sample", "spacings", "--n", "10000000000000000000", "--count", "1", "--seed", "1"],
             "rwa: error: sample spacings: count=1 draws of n=10000000000000000000 values are "
             "80000000000000000000 bytes, beyond NumPy's array limit of 9223372036854775807"),
            (["sample", "rwa", "--n", "1" + "0" * 40, "--count", "1", "--seed", "1"],
             "rwa: error: sample rwa: count=1 draws of n=about 10^40.0 values are about 10^40.9 bytes, "
             "beyond NumPy's array limit of 9223372036854775807"),
            (["sample", "rwa", "--n", "3", "--seed", "1", "--count", "10000000000000000000"],
             "rwa: error: sample rwa: count=10000000000000000000 draws of n=3 values are about 10^20.4 bytes, "
             "beyond NumPy's array limit of 9223372036854775807"),
            (["sample", "arcsine", "--seed", "1", "--count", "10000000000000000000"],
             "rwa: error: sample arcsine: count=10000000000000000000 draws of n=1 values are "
             "80000000000000000000 bytes, beyond NumPy's array limit of 9223372036854775807"),
            (["sample", "psc", "--lambda", "1", "--seed", "1", "--count", "10000000000000000000"],
             "rwa: error: sample psc: count=10000000000000000000 draws of n=1 values are "
             "80000000000000000000 bytes, beyond NumPy's array limit of 9223372036854775807"),
            (["plot-data", "--n", "3", "--seed", "1", "--count", "10000000000000000000"],
             "rwa: error: plot-data: count=10000000000000000000 draws of n=3 values are about 10^20.4 bytes, "
             "beyond NumPy's array limit of 9223372036854775807"),
            (["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--bins", "10000000000000000000"],
             "rwa plot-data: error: argument --bins: expected a bin count whose bins + 1 float64 edges "
             "fit in one NumPy array, got '10000000000000000000'"),
            (["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--bins", "4611686018427387904"],
             "rwa plot-data: error: argument --bins: expected a bin count whose bins + 1 float64 edges "
             "fit in one NumPy array, got '4611686018427387904'"),
            # An alpha in (0, 1) whose half rounds to 0 names alpha, not the log.
            (["verify", "--n", "3", "--count", "1000", "--seed", "1", "--alpha", "5e-324"],
             "rwa: error: verify: alpha must be at least 1e-323, so that alpha / 2 is a positive float, got 5e-324"),
            # A subnormal scale, where the draws keep only a few bits and the
            # true law fails KS, is refused before drawing.
            (["verify", "--n", "3", "--count", "100000", "--seed", "1", "--a", "1e-322"],
             "rwa: error: verify: scale must be positive and finite, at least the smallest normal float "
             "2.2250738585072014e-308, got a=1e-322"),
            (["lemma-check", "--params", "0,1", "--r-max", "3"],
             "rwa lemma-check: error: argument --params: half-integer must be >= 1/2, got 0"),
        ],
    )
    def test_bounded_argument_message(self, argv, message, capsys):
        _usage_error(argv)
        assert capsys.readouterr().err.splitlines()[-1] == message

    @pytest.mark.parametrize(
        "argv, option, value, message",
        [
            (["verify", "--n", "3"], "--a", "-1e-3", "verify: scale must be positive and finite"),
            (["verify", "--n", "3"], "--a", "-inf", "verify: scale must be positive and finite"),
            (["moment", "--n", "3", "--k-max", "2"], "--a", "-1E+2", "moment: scale must be positive and finite"),
            (["verify", "--n", "3"], "--alpha", "-1e-3", "verify: alpha must be in (0, 1), got -0.001"),
            (["verify", "--n", "3"], "--lambda-override", "-nan", "verify: exponent must be p/2"),
            (["sample", "psc", "--count", "5", "--seed", "1"], "--lambda", "-1e1", "sample psc: exponent must be p/2"),
            (["moment", "--k-max", "2"], "--n", "-1_0", "moment: need an integer n >= 2, got -10"),
        ],
    )
    def test_a_negative_number_in_any_spelling_is_a_value(self, argv, option, value, message, capsys):
        # argparse's own pattern takes "-1" and "-.5" as values but reads
        # "-1e-3" or "-inf" as an option, which leaves the option before it
        # with no value; any text float() reads gets the library's message,
        # the same as when it is joined to its option by "=".
        _usage_error([*argv, option, value])
        split = capsys.readouterr().err.splitlines()[-1]
        _usage_error([*argv, f"{option}={value}"])
        assert capsys.readouterr().err.splitlines()[-1] == split
        assert split.startswith(f"rwa: error: {message}")

    def test_an_option_after_an_option_is_still_an_option(self, capsys):
        _usage_error(["moment", "--n", "3", "--k-max", "2", "--a", "-h"])
        assert capsys.readouterr().err.splitlines()[-1] == "rwa moment: error: argument --a: expected one argument"
        with pytest.raises(SystemExit) as exc:
            main(["moment", "--k-max", "2", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rwa moment ")

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["sample", "foo"], "rwa sample: error: argument source: invalid choice: 'foo' (choose from "),
            (["sample", "rwa", "--n", "3", "--count", "5", "--s=1"],
             "rwa sample rwa: error: ambiguous option: --s=1 could match --seed, --shards"),
        ],
    )
    def test_a_short_argument_is_repeated_in_full(self, argv, text, capsys):
        # Only a long echo is cut; a short one keeps argparse's own text.
        _usage_error(argv)
        assert capsys.readouterr().err.splitlines()[-1].startswith(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--bins", "1" + "0" * 400],
            ["moment", "--n", "-1" + "0" * 400, "--k-max", "0"],
            ["sample", "spacings", "--n", "-1" + "0" * 400, "--count", "5", "--seed", "1"],
            ["verify", "--n", "3", "--count", "-1" + "0" * 400],
            ["verify", "--n", "3", "--count", "1000", "--shards", "1" + "0" * 400],
            ["moment", "--n", "x" * 400, "--k-max", "0"],
            ["lemma-check", "--params", "1/2,-1" + "0" * 400, "--r-max", "1"],
            ["lemma-check", "--params", "1/3" + "0" * 400, "--r-max", "1"],
            # argparse's own messages: a stray argument, a refused choice and
            # an ambiguous option repeat what was typed
            ["moment", "--n", "3", "--k-max", "1", "--seed=1" + "0" * 400],
            ["moment", "--n", "3", "--k-max", "1", *["a"] * 300],
            ["sample", "x" * 300],
            ["y" * 300],
            ["sample", "rwa", "--n", "3", "--count", "5", "--s=1" + "0" * 300],
        ],
        ids=["bins", "moment-n", "spacings-n", "verify-count", "shards", "text", "params-value", "params-text",
             "unrecognized", "many-unrecognized", "source-choice", "command-choice", "ambiguous"],
    )
    def test_a_long_argument_gives_a_short_error_line(self, argv, capsys):
        # The refused text is cut, and a refused number is shown by its power
        # of ten, so the line stays short however long the argument.
        _usage_error(argv)
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if ": error: " in line]
        assert len(lines) == 1
        assert len(lines[0]) <= 200, lines[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "1002", "--count", "1000"],
            ["plot-data", "--n", "1002", "--count", "100", "--seed", "1"],
            ["moment", "--n", "1002", "--k-max", "0"],
        ],
    )
    def test_size_without_target_law_is_refused_before_drawing(self, argv, monkeypatch, capsys):
        from rwa_semicircle import cli, verify

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a batch for a size with no target law")

        monkeypatch.setattr(verify, "rwa_batch", no_draw)
        monkeypatch.setattr(cli, "rwa_batch", no_draw)
        # Any term-count warning would print; none may come before the refusal.
        monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", 0)
        _usage_error(argv)
        err = capsys.readouterr().err
        assert "warning:" not in err
        assert "n=1002" in err.splitlines()[-1]

    @pytest.mark.parametrize("count", ["9223372036854775807", "10000000000000000000"])
    def test_size_beyond_numpy_is_refused_before_the_walk_warning(self, count, monkeypatch, capsys):
        from rwa_semicircle import cli

        def no_walk(*args, **kwargs):
            raise AssertionError("walked the moment table for a draw no array can hold")

        monkeypatch.setattr(cli, "run_verification", no_walk)
        _usage_error(["verify", "--n", "3", "--count", count, "--k-max", "100000"])
        err = capsys.readouterr().err
        assert "warning:" not in err
        assert f"count={count} draws of n=3 values" in err.splitlines()[-1]

    def test_plot_data_settles_its_bins_before_drawing(self, monkeypatch):
        from rwa_semicircle import cli

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a batch for more bins than NumPy can hold")

        monkeypatch.setattr(cli, "rwa_batch", no_draw)
        # Beyond NumPy's index range, and within it but with more edges than
        # one array can hold.
        for bins in ("10000000000000000000", "4611686018427387904"):
            _usage_error(["plot-data", "--n", "3", "--count", "1000000", "--seed", "1", "--bins", bins])

    @pytest.mark.parametrize("bins, code", [(2**60 - 66, 1), (2**60 - 65, 2)])
    def test_bin_edge_rule_is_numpy_own_limit(self, bins, code, capsys):
        # NumPy sizes the edges from float(bins + 1): 2^60 - 128 at the
        # largest count accepted, 2^60 (8 * 2^60 bytes, beyond its limit) at
        # the smallest refused.  The accepted one reaches the allocation,
        # which fails for want of memory (exit 1), not for NumPy's size limit.
        argv = ["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--bins", str(bins)]
        if code == 2:
            _usage_error(argv)
        else:
            assert main(argv) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert "array is too big" not in message
        assert ("argument --bins" in message) == (code == 2)

    def test_bins_beyond_the_float_range_is_refused(self, capsys):
        # float(bins + 1) would overflow; the parser refuses the count first.
        _usage_error(["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--bins", "1" + "0" * 400])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("rwa plot-data: error: argument --bins: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "spacings", "--n", "10000000000", "--count", "10000000000", "--seed", "1"],
            ["sample", "arcsine", "--count", "9223372036854775807", "--seed", "1"],
            ["sample", "psc", "--lambda", "1", "--count", "9223372036854775807", "--seed", "1"],
            ["sample", "rwa", "--n", "3", "--count", "9223372036854775807", "--seed", "1"],
            ["plot-data", "--n", "3", "--count", "9223372036854775807", "--seed", "1"],
            ["verify", "--n", "3", "--count", "9223372036854775807"],
        ],
    )
    def test_draw_beyond_numpy_index_range_names_count_and_n(self, argv, capsys):
        # Each size passes the parser; the draw, count by n values, is what no
        # array can hold.
        _usage_error(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        message = captured.err.splitlines()[-1]
        n = argv[argv.index("--n") + 1] if "--n" in argv else "1"
        assert f"count={argv[argv.index('--count') + 1]} draws of n={n} values" in message


@pytest.mark.parametrize(
    "argv",
    [
        # Near the smallest normal scale, densities of about 12.6 / a overflow.
        ["plot-data", "--n", "1001", "--count", "1000", "--seed", "1", "--a", "2.3e-308"],
        # 10^15 doubles are 7 PiB, beyond any x86-64 address space.
        ["sample", "rwa", "--n", "3", "--seed", "1", "--count", str(10**15)],
        ["verify", "--n", "3", "--count", str(10**15)],
        ["plot-data", "--n", "3", "--seed", "1", "--count", str(10**15)],
        # ... and each building-block sampler meets it at its own allocation.
        ["sample", "arcsine", "--seed", "1", "--count", str(10**15)],
        ["sample", "psc", "--lambda", "1.5", "--seed", "1", "--count", str(10**15)],
        ["sample", "spacings", "--n", "3", "--seed", "1", "--count", str(10**15)],
        # One draw of 10^15 values is as far beyond it as 10^15 draws of three.
        ["sample", "rwa", "--n", str(10**15), "--seed", "1", "--count", "1"],
    ],
)
def test_numeric_failure_is_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and err.splitlines()[-1] == errors[0]
    # The line names the subcommand and the innermost package function.
    command = " ".join(itertools.takewhile(lambda arg: not arg.startswith("--"), argv))
    where = {
        "plot-data": "cli._cmd_plot_data" if argv[-1] == "2.3e-308" else "rwa.rwa_batch",
        "sample arcsine": "distributions.sample",
        "sample psc": "distributions.sample",
        "sample spacings": "distributions.sample_spacings",
        "sample rwa": "rwa.rwa_batch" if argv[-1] == str(10**15) else "distributions.sample_spacings",
    }.get(command, "rwa.rwa_batch")
    assert errors[0].startswith(f"error: {command}: ")
    assert errors[0].endswith(f" (in {where})")


def test_an_exception_with_no_text_is_named_by_its_class(monkeypatch, capsys):
    # A table too large for memory raises MemoryError(), whose text is empty.
    def exhausted(params, r_max):
        raise MemoryError()

    monkeypatch.setattr(moments, "lemma_rows", exhausted)
    assert main(["moment", "--n", "3", "--k-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: moment: MemoryError (in moments.moment_rows)"]


@pytest.mark.parametrize(
    "argv",
    [
        ["plot-data", "--n", "1001", "--count", "1000", "--seed", "1", "--a", "2.3e-308"],
        ["verify", "--n", "3", "--count", str(10**15)],
    ],
)
def test_numeric_failure_prints_no_warning(argv):
    # pytest captures NumPy's RuntimeWarnings in-process, so run the module
    # as a user would and read all of stderr.
    env = {**os.environ, "PYTHONPATH": str(Path(rwa_semicircle.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "rwa_semicircle", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {argv[0]}: ")


def _run_with_closed_reader(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """Run the CLI in a child process whose stdout is a pipe with its read end
    already closed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rwa_semicircle.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "rwa_semicircle", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_reader_keeps_the_verdict(unbuffered, tmp_path):
    # A reader that closes stdout before the command writes (as `| head -c 1`
    # may) is not an I/O problem: the command writes its files, exits with
    # its verdict and prints nothing on stderr, however stdout is buffered.
    verify = ["verify", "--n", "3", "--count", "1000", "--seed", "1", "--json"]
    cases = [
        ([*verify, str(tmp_path / "pass.json")], 0),
        ([*verify, str(tmp_path / "fail.json"), "--lambda-override", "3"], 1),
        (["moment", "--n", "3", "--k-max", "2"], 0),
        (["sample", "arcsine", "--count", "10", "--seed", "1"], 0),
    ]
    for argv, code in cases:
        proc = _run_with_closed_reader(argv, unbuffered)
        assert (proc.returncode, proc.stderr) == (code, b""), argv
    for name in ("pass.json", "fail.json"):
        assert json.loads((tmp_path / name).read_text())["overall_pass"] is (name == "pass.json")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_reader_still_gets_the_full_digest(unbuffered, tmp_path):
    # The CSV is hashed as it is written, so the digest must keep taking
    # chunks after the reader has gone.
    env_path = tmp_path / "draws.json"
    proc = _run_with_closed_reader(
        ["sample", "rwa", "--n", "3", "--count", "100000", "--seed", "1", "--envelope", str(env_path)], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, b"")
    digest = rwa_batch(RwaSpec(n=3), 100000, 1).values_digest()
    assert json.loads(env_path.read_text())["values_sha256"] == digest


def test_term_count_warning_threshold(monkeypatch, capsys):
    from rwa_semicircle import cli

    # 3 parts cut at degree 2: two products of three series, each of
    # 1 + 2 + 3 = 6 integer products.
    monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", 12)
    cli._warn_long_table((HalfInteger(1),) * 3, 2)
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", 11)
    cli._warn_long_table((HalfInteger(1),) * 3, 2)
    assert "warning: this table forms 12 integer products (> 11)" in capsys.readouterr().err


def test_warning_counts_the_orders_in_closed_form(monkeypatch, capsys):
    from types import SimpleNamespace

    from rwa_semicircle import cli, moments

    # Every integer product of the series route goes through the kernel's
    # `operator.mul`; count them while each table is formed and check the
    # warning's closed form against the count, table by table.
    products = 0

    def counting_mul(x, y):
        nonlocal products
        products += 1
        return x * y

    monkeypatch.setattr(moments, "operator", SimpleNamespace(mul=counting_mul))
    monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", -1)
    tables = [["moment", "--n", str(n), "--k-max"] for n in (2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65, 1001)]
    tables += [["lemma-check", "--params", params, "--r-max"] for params in ("1/2", "1/2,1", "1,1/2,1,1", "1/2,3/2,1/2,5/2,1/2")]
    for argv in tables:
        for k_max in range(9):
            products = 0
            assert main([*argv, str(k_max)]) == 0
            assert f"warning: this table forms {products} integer products" in capsys.readouterr().err, (argv, k_max)


@pytest.mark.parametrize(
    "argv", [["moment", "--n", "3", "--k-max", "400"], ["lemma-check", "--params", "1/2,1,3/2,5/2", "--r-max", "400"]]
)
def test_a_table_of_one_power_is_no_long_run(argv, capsys):
    # Each table raises its series to their counts once, 161202 and 241803
    # integer products, far below the warning's limit.
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_verify_warns_before_a_long_enumeration(monkeypatch, capsys):
    from rwa_semicircle import cli

    monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", 0)
    main(["verify", "--n", "3", "--count", "200", "--seed", "1", "--k-max", "1"])
    assert "warning: this table forms 6 integer products" in capsys.readouterr().err


_HUGE = "400000000000000000"


@pytest.mark.parametrize(
    "argv, walker, count",
    [
        # n = 1001 takes 8 squarings and 7 products of its 8 series, each of
        # C(1157, 2) integer products: 10031190, just over the limit; n = 3
        # forms 2 such products, 1337292.
        (["moment", "--n", "1001", "--k-max", "1155"], "moment_rows", "10031190"),
        (["verify", "--n", "1001", "--count", "1000", "--k-max", "1155"], "run_verification", "10031190"),
        # Counted in closed form: 15 C(8 10^9 + 2, 2) integer products, given
        # as a power of ten, at a degree just below the exact layer's limit.
        (["moment", "--n", "1001", "--k-max", "8000000000"], "moment_rows", "about 10^20.7"),
        (["verify", "--n", "1001", "--count", "1000", "--k-max", "8000000000"], "run_verification", "about 10^20.7"),
        # 16001 distinct parts take 16000 products: 16000 C(8 10^9 + 2, 2).
        (["lemma-check", "--params", ",".join(f"{k}/2" for k in range(1, 16002)), "--r-max", "8000000000"],
         "lemma_rows", "about 10^23.7"),
    ],
)
def test_warning_weighs_each_composition_by_its_parts(argv, walker, count, monkeypatch, capsys):
    from rwa_semicircle import cli

    assert main(["moment", "--n", "3", "--k-max", "2"]) == 0
    assert capsys.readouterr().err == ""

    # The warning comes before the table.
    def walk(*args, **kwargs):
        raise RuntimeError("walked")

    monkeypatch.setattr(cli, walker, walk)
    with pytest.raises(RuntimeError):
        main(argv)
    assert f"warning: this table forms {count} integer products" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, degree, least",
    [
        (["moment", "--n", "3", "--k-max", str(10**12)], "1000000000000", "about 10^23.1"),
        (["lemma-check", "--params", "1/2,1", "--r-max", str(10**12)], "1000000000000", "about 10^23.1"),
        (["verify", "--n", "3", "--count", "1000", "--seed", "1", "--k-max", str(10**12)], "1000000000000", "about 10^23.1"),
        (["verify", "--n", "3", "--count", "10000000", "--seed", "1", "--k-max", str(10**12)], "1000000000000", "about 10^23.1"),
        (["moment", "--n", "3", "--k-max", _HUGE], _HUGE, "about 10^34.3"),
        (["verify", "--n", "3", "--count", "1000", "--k-max", _HUGE], _HUGE, "about 10^34.3"),
        # A degree with more digits than str() of an int allows.
        (["moment", "--n", "1001", "--k-max", "6" + "0" * 2249], "about 10^2249.8", "about 10^4498.7"),
    ],
    ids=[f"argv{i}" for i in range(7)],
)
def test_series_no_array_holds_is_a_usage_error(argv, degree, least):
    # A degree-r table holds at least about r^2/8 bytes.  The command runs
    # in a child process with its address space capped at 2 GiB, so that a
    # table built despite the rule fails there, not on the host.  The degree
    # is refused before anything else: no warning, no count, no draw.
    env = {**os.environ, "PYTHONPATH": str(Path(rwa_semicircle.__file__).resolve().parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "rwa_semicircle", *argv], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == build_parser().format_usage() + (
        f"rwa: error: {argv[0]}: a series of degree {degree} holds at least {least} bytes, "
        f"beyond NumPy's array limit of {np.iinfo(np.intp).max}\n"
    )


def test_verify_refuses_a_degree_before_it_draws(monkeypatch):
    from rwa_semicircle import verify

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a batch for a table no array can hold")

    monkeypatch.setattr(verify, "rwa_batch", no_draw)
    _usage_error(["verify", "--n", "3", "--count", "10000000", "--seed", "1", "--k-max", "1000000000000"])


def test_json_rows_and_rationals_share_one_form(capsys):
    from rwa_semicircle.moments import moment_rows

    assert main(["moment", "--n", "3", "--k-max", "2", "--a", "0.5", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [row.to_json_dict() for row in moment_rows(RwaSpec(n=3, a=0.5), 2)]
    assert main(["lemma-check", "--params", "1/2,5/2", "--r-max", "2", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][2]
    assert row["lhs"] == {"num": "12", "den": "1", "decimal": "12"}
    assert row["rhs"] == row["lhs"]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv", [["moment", "--n", "4", "--k-max", "3"], ["lemma-check", "--params", "1/2,1,3/2", "--r-max", "4"]]
)
def test_an_exact_table_renders_only_the_form_it_prints(argv, as_json, monkeypatch, capsysbinary):
    # The bytes are those the golden digests pin for an unpatched run.  Every
    # row agrees, so each renders its one value once, in the printed form only.
    rows = int(argv[-1]) + 1
    argv = [*argv, "--json"] if as_json else argv
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out

    def unprinted(*args, **kwargs):
        raise AssertionError("rendered the form this run does not print")

    rendered = []

    def counted(render):
        def count(value):
            rendered.append(value)
            return render(value)

        return count

    from rwa_semicircle import cli

    unused = [(cli, "rational_str"), (cli, "decimal_str")] if as_json else [(cli, "rational_json"), (moments, "rational_json")]
    used = [(cli, "rational_json"), (moments, "rational_json")] if as_json else [(cli, "rational_str")]
    for module, name in unused:
        monkeypatch.setattr(module, name, unprinted)
    for module, name in used:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == printed
    assert len(rendered) == rows


# ---------------------------------------------------------------------------
# exact numbers of more than 4300 digits, beyond what str() of an int renders


def _exact(num: str, den: str = "1") -> Fraction:
    """A rendered rational read back with no digit limit."""
    return Fraction(int(Decimal(num)), int(Decimal(den)))


def _exact_text(text: str) -> Fraction:
    return _exact(*text.split("/"))


class TestBeyondTheDigitLimit:
    def test_moment_table(self, capsys):
        expected = rwa_moment_closed(3, 8) * Fraction(10**300) ** 16
        assert expected.numerator > 10**4300
        argv = ["moment", "--n", "3", "--k-max", "8", "--a", "1e300"]
        assert main([*argv, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][8]
        assert _exact(row["closed_form"]["num"], row["closed_form"]["den"]) == expected
        assert _exact(row["oracle"]["num"], row["oracle"]["den"]) == expected
        assert main(argv) == 0
        last = capsys.readouterr().out.splitlines()[-1].split()
        assert [last[0], last[-1]] == ["8", "yes"]
        assert _exact_text(last[1]) == _exact_text(last[2]) == expected

    def test_verify_report(self, capsys, tmp_path):
        report = tmp_path / "v.json"
        argv = ["verify", "--n", "3", "--count", "1000", "--seed", "1", "--a", "1e-150", "--k-max", "15", "--json", str(report)]
        assert main(argv) == 0
        assert "verify: PASS" in capsys.readouterr().out
        row = json.loads(report.read_text())["moment_rows"][15]
        expected = rwa_moment_closed(3, 15) / Fraction(10**150) ** 30
        assert expected.denominator > 10**4300
        assert _exact(row["closed_form"]["num"], row["closed_form"]["den"]) == expected

    def test_lemma_check(self, capsys):
        argv = ["lemma-check", "--params", "1/2,1e5000", "--r-max", "1"]
        expected = Fraction(1, 2) + 10**5000
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"][0] == "1/2" and _exact(payload["params"][1]) == 10**5000
        lhs = payload["rows"][1]["lhs"]
        assert _exact(lhs["num"], lhs["den"]) == expected and payload["rows"][1]["rhs"] == lhs
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert _exact(lines[0].split(", ")[1].rstrip("]")) == 10**5000
        last = lines[-1].split()
        assert _exact_text(last[1]) == _exact_text(last[2]) == expected and last[3] == "yes"


# ---------------------------------------------------------------------------
# moment


class TestMomentCommand:
    def test_table_n3(self, capsys):
        assert main(["moment", "--n", "3", "--k-max", "2"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        # header block plus one row per k
        rows = lines[2:]
        assert len(rows) == 3
        assert rows[0].split()[:3] == ["0", "1", "1"]
        assert rows[1].split()[:3] == ["1", "1/4", "1/4"]
        assert rows[2].split()[:3] == ["2", "1/8", "1/8"]
        assert all(row.split()[-1] == "yes" for row in rows)

    def test_k_max_zero(self, capsys):
        assert main(["moment", "--n", "2", "--k-max", "0"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.strip()][2:]
        assert len(rows) == 1
        assert rows[0].split()[:3] == ["0", "1", "1"]

    def test_json_payload(self, capsys):
        assert main(["moment", "--n", "3", "--k-max", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_equal"] is True
        assert payload["n"] == 3
        assert [row["k"] for row in payload["rows"]] == [0, 1, 2]
        assert payload["rows"][1]["closed_form"]["num"] == "1"
        assert payload["rows"][1]["closed_form"]["den"] == "4"
        assert payload["rows"][2]["oracle"]["den"] == "8"
        assert payload["rows"][2]["consistent"] is True
        assert payload["rows"][1]["closed_form"]["decimal"].startswith("0.25")

    def test_scale_enters_exactly(self, capsys):
        # at a = 2 the k = 1 entry is (1/4) * 4 = 1
        assert main(["moment", "--n", "3", "--k-max", "1", "--a", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][1]["closed_form"]["num"] == "1"
        assert payload["rows"][1]["closed_form"]["den"] == "1"

    def test_decimal_scale_read_exactly(self, capsys):
        # a = 0.5 is read as the rational 1/2, so E S^2 = (1/4)(1/4) = 1/16
        assert main(["moment", "--n", "3", "--k-max", "1", "--a", "0.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][1]["closed_form"]["den"] == "16"

    def test_literal_parity_is_not_an_option(self, capsys):
        # The literal walk is the library's reference route only.
        _usage_error(["moment", "--n", "3", "--k-max", "2", "--literal-parity"])
        assert "unrecognized arguments: --literal-parity" in capsys.readouterr().err

    def test_route_disagreement_is_a_no_row(self, monkeypatch, capsys):
        from rwa_semicircle import moments

        # A composition side that is off by one from r = 1 on disagrees
        # with the closed form from order 2 on.
        table = moments.lemma_rows
        monkeypatch.setattr(moments, "lemma_rows", lambda params, r_max: [
            (r, lhs + (1 if r >= 1 else 0), rhs) for r, lhs, rhs in table(params, r_max)])
        argv = ["moment", "--n", "3", "--k-max", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [ln for ln in captured.out.splitlines() if ln.strip()][2:]
        assert [row.split()[-1] for row in rows] == ["yes", "NO", "NO"]
        # A differing row prints the oracle's own value: the closed form plus
        # the mixing constant that the extra one is multiplied by.
        closed = [rwa_moment_closed(3, k) for k in range(3)]
        oracle = [closed[0]] + [closed[k] + Fraction(*moments._mixing(3, k)) for k in (1, 2)]
        assert [row.split()[1:3] for row in rows] == [
            [render.rational_str(c), render.rational_str(o)] for c, o in zip(closed, oracle)]
        assert main([*argv, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_equal"] is False
        assert [row["consistent"] for row in payload["rows"]] == [True, False, False]
        assert [row["oracle"] for row in payload["rows"]] == [render.rational_json(o) for o in oracle]

    def test_a_closed_side_off_the_law_is_an_error(self, monkeypatch, capsys):
        from rwa_semicircle import moments

        # The law check multiplies the mixing constant by the identity
        # table's closed side: one that is off by one from r = 1 on fails it
        # at k = 1, in the library and on the command line.
        table = moments.lemma_rows
        monkeypatch.setattr(moments, "lemma_rows", lambda params, r_max: [
            (r, lhs, rhs + (1 if r >= 1 else 0)) for r, lhs, rhs in table(params, r_max)])
        with pytest.raises(ArithmeticError, match=r"^internal moment forms disagree at n=3, k=1: "):
            moments.moment_rows(RwaSpec(n=3), 2)
        assert main(["moment", "--n", "3", "--k-max", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: moment: internal moment forms disagree at n=3, k=1: ")


# ---------------------------------------------------------------------------
# lemma-check


class TestLemmaCheckCommand:
    def test_sweep_passes(self, capsys):
        assert main(["lemma-check", "--params", "1/2,1,3/2", "--r-max", "4"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.strip()][2:]
        assert len(rows) == 5
        assert all(row.split()[-1] == "yes" for row in rows)

    def test_r_zero_row_is_one(self, capsys):
        assert main(["lemma-check", "--params", "2", "--r-max", "0"]) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()][2:]
        assert rows[0].split()[:3] == ["0", "1", "1"]

    def test_a_failed_identity_prints_both_sides(self, monkeypatch, capsys):
        from rwa_semicircle import cli

        # A composition side off by one from r = 1 on: those rows print the
        # gamma ratio's own value beside it, in both forms.
        table = cli.lemma_rows
        monkeypatch.setattr(cli, "lemma_rows", lambda params, r_max: [
            (r, lhs + (1 if r >= 1 else 0), rhs) for r, lhs, rhs in table(params, r_max)])
        argv = ["lemma-check", "--params", "1/2,1", "--r-max", "2"]
        expected = table((HalfInteger.parse("1/2"), HalfInteger.parse("1")), 2)
        assert main(argv) == 1
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines() if ln.strip()][2:]
        assert rows == [[str(r), render.rational_str(lhs + (r >= 1)), render.rational_str(rhs), "NO" if r else "yes"]
                        for r, lhs, rhs in expected]
        assert main([*argv, "--json"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["lhs"], row["rhs"]) for row in rows] == [
            (render.rational_json(lhs + (r >= 1)), render.rational_json(rhs)) for r, lhs, rhs in expected]

    def test_json_payload(self, capsys):
        assert main(["lemma-check", "--params", "1/2,5/2", "--r-max", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_equal"] is True
        assert payload["params"] == ["1/2", "5/2"]
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert row["lhs"] == row["rhs"]
            assert row["equal"] is True


# ---------------------------------------------------------------------------
# sample


class TestSampleCommand:
    def test_text_only_stdout_gets_the_same_csv(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["sample", "rwa", "--n", "3", "--count", "40", "--seed", "11"]) == 0
        assert out.getvalue().encode("ascii") == rwa_batch(RwaSpec(n=3, a=1.0), 40, 11).csv_bytes()
        # The text tables and verdict lines take the same way out.
        for argv in (["verify", "--n", "3", "--count", "1000", "--seed", "1"], ["moment", "--n", "3", "--k-max", "4"]):
            with contextlib.redirect_stdout(io.StringIO()) as text:
                assert main(argv) == 0
            with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="ascii")) as binary:
                assert main(argv) == 0
            assert text.getvalue().encode("ascii") == binary.buffer.getvalue() != b""

    def test_arcsine_csv_shape_and_support(self, capsys):
        assert main(["sample", "arcsine", "--a", "2", "--count", "200", "--seed", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value"
        values = np.array([float(v) for v in lines[1:]])
        assert values.shape == (200,)
        assert np.all(np.abs(values) < 2.0)

    def test_arcsine_deterministic(self, capsys):
        main(["sample", "arcsine", "--count", "50", "--seed", "3"])
        first = capsys.readouterr().out
        main(["sample", "arcsine", "--count", "50", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_psc_lambda_flag(self, capsys):
        assert main(["sample", "psc", "--lambda", "1", "--count", "10", "--seed", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value"
        values = np.array([float(v) for v in lines[1:]])
        assert values.shape == (10,)
        assert np.all(np.abs(values) < 1.0)

    def test_psc_half_integer_lambda(self, capsys):
        assert main(["sample", "psc", "--lambda", "0.5", "--count", "10", "--seed", "4"]) == 0

    def test_spacings_rows_sum_to_one(self, capsys):
        assert main(["sample", "spacings", "--n", "4", "--count", "100", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "w1,w2,w3,w4"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (100, 4)
        assert np.all(rows >= 0.0)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12

    def test_spacings_have_no_method_option(self, capsys):
        # The spacings have one construction, the definition, so no --method.
        _usage_error(["sample", "spacings", "--n", "3", "--count", "5", "--seed", "1", "--method", "exponential"])
        assert "unrecognized arguments: --method exponential" in capsys.readouterr().err

    def test_rwa_stdout_matches_library_csv(self, capsys):
        assert main(["sample", "rwa", "--n", "3", "--count", "40", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        batch = rwa_batch(RwaSpec(n=3, a=1.0), 40, 11)
        assert out.encode("ascii") == batch.csv_bytes()

    def test_rwa_file_and_envelope(self, tmp_path, capsys):
        csv_path = tmp_path / "draws.csv"
        env_path = tmp_path / "draws.json"
        assert main(
            ["sample", "rwa", "--n", "2", "--count", "30", "--seed", "8",
             "--out", str(csv_path), "--envelope", str(env_path)]
        ) == 0
        payload = json.loads(env_path.read_text())
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert payload["values_sha256"] == digest
        assert payload["spec"] == {"n": 2, "a": 1.0}
        assert payload["seed"] == 8
        assert payload["count"] == 30

    def test_rwa_file_has_the_stdout_bytes(self, tmp_path, capsysbinary):
        # Rows up to and across render block edges, on two shards; each CSV
        # is hashed as it is written, to a file or to stdout.
        block = render._BLOCK
        for count in (block - 1, block, block + 1, 3 * block + 1):
            argv = ["sample", "rwa", "--n", "3", "--count", str(count), "--seed", "20", "--shards", "2"]
            csv_path, env_path, stdout_env_path = tmp_path / "draws.csv", tmp_path / "draws.json", tmp_path / "out.json"
            assert main([*argv, "--out", str(csv_path), "--envelope", str(env_path)]) == 0
            assert capsysbinary.readouterr().out == b""
            assert main([*argv, "--envelope", str(stdout_env_path)]) == 0
            batch = rwa_batch(RwaSpec(n=3), count, 20, shards=2)
            assert csv_path.read_bytes() == batch.csv_bytes() == capsysbinary.readouterr().out, count
            assert env_path.read_bytes() == stdout_env_path.read_bytes() == batch.envelope_bytes(), count
            assert json.loads(env_path.read_bytes())["values_sha256"] == batch.values_digest(), count

    def test_rwa_artifact_holds_the_sample_and_one_chunk(self, tmp_path, monkeypatch):
        # The CSV is rendered once, chunk by chunk, into its file and its
        # digest together, so the sample is the one array of its size that
        # is held.  One worker, so that the bound does not depend on the
        # cores.  Rendering the whole CSV for the file and again for the
        # envelope peaked at about four times the sample.
        from rwa_semicircle import rwa

        monkeypatch.setattr(rwa, "_available_cores", lambda: 1)
        count = 2**20 + 1
        argv = ["sample", "rwa", "--n", "3", "--count", str(count), "--seed", "5",
                "--out", str(tmp_path / "draws.csv"), "--envelope", str(tmp_path / "draws.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * count


# ---------------------------------------------------------------------------
# verify


class TestVerifyConfig:
    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), sample_count=50)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), alpha=0.0)

    def test_rejects_negative_k_max(self):
        with pytest.raises(ValueError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), max_moment_k=-1)

    def test_rejects_a_degree_no_array_holds(self):
        with pytest.raises(ValueError, match="a series of degree 1000000000000 holds"):
            VerifyConfig(spec=RwaSpec(3), max_moment_k=10**12)

    @pytest.mark.parametrize("field", ["sample_count", "seed", "max_moment_k", "shards"])
    def test_records_each_count_as_the_int_it_reads(self, field):
        given = dict(spec=RwaSpec(3), sample_count=100, seed=5, max_moment_k=2, shards=2)
        cfg = VerifyConfig(**{**given, field: np.int64(given[field])})
        assert render.json_bytes(cfg.to_json_dict()) == render.json_bytes(VerifyConfig(**given).to_json_dict())

    def test_records_the_size_as_the_int_it_reads(self):
        cfg = VerifyConfig(spec=RwaSpec(np.int64(3)), sample_count=100)
        assert render.json_bytes(cfg.to_json_dict()) == render.json_bytes(
            VerifyConfig(spec=RwaSpec(3), sample_count=100).to_json_dict())

    @pytest.mark.parametrize("shards", [0, 101])
    def test_rejects_shards_outside_one_to_count(self, shards):
        with pytest.raises(ValueError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), sample_count=100, shards=shards)

    def test_rejects_a_shard_count_that_is_no_int(self):
        # A float would be written into the JSON as a count no command can give.
        with pytest.raises(TypeError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), sample_count=100, shards=2.0)

    def test_verify_options_default_to_the_config_fields(self, capsys):
        defaults = {field.name: field.default for field in dataclasses.fields(VerifyConfig) if field.name != "spec"}
        args = build_parser().parse_args(["verify", "--n", "3"])
        assert defaults == {
            "sample_count": args.count, "seed": args.seed, "max_moment_k": args.k_max,
            "alpha": args.alpha, "shards": args.shards, "lambda_override": args.lambda_override,
        }
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name in ("sample_count", "max_moment_k", "alpha"):
            assert f"default {defaults[name]})" in text

    @pytest.mark.parametrize("lam", [-0.5, math.inf, math.nan])
    def test_rejects_lambda_override_outside_finite_nonnegative(self, lam):
        with pytest.raises(ValueError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), lambda_override=lam)

    @pytest.mark.parametrize("lam", [0.3, 500.5, 1e6])
    def test_rejects_lambda_override_that_is_no_power_semicircle_exponent(self, lam):
        with pytest.raises(ValueError, match="p/2"):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), lambda_override=lam)

    @pytest.mark.parametrize("lam", [None, 3.0])
    def test_rejects_size_without_target_law(self, lam):
        with pytest.raises(ValueError, match="n=1002 has no target law"):
            VerifyConfig(spec=RwaSpec(n=1002), sample_count=100, lambda_override=lam)


class TestRunVerification:
    def test_outcome_structure(self):
        cfg = VerifyConfig(spec=RwaSpec(n=3, a=1.0), sample_count=20_000, seed=7, max_moment_k=2)
        outcome = run_verification(cfg)
        assert isinstance(outcome, VerifyOutcome)
        assert len(outcome.moment_rows) == 3
        assert [row.k for row in outcome.moment_rows] == [0, 1, 2]
        assert outcome.ks_critical == pytest.approx(1.6276 / math.sqrt(20_000), rel=1e-3)
        assert outcome.overall_pass == (
            outcome.ks_pass and all(r.within_band() for r in outcome.moment_rows)
        )

    def test_exact_routes_agree_in_rows(self):
        cfg = VerifyConfig(spec=RwaSpec(n=4, a=2.5), sample_count=5_000, seed=3, max_moment_k=3)
        outcome = run_verification(cfg)
        for row in outcome.moment_rows:
            assert row.closed_form == row.oracle

    def test_reads_the_batch_once_for_every_order(self, monkeypatch):
        from rwa_semicircle import moments

        calls = []
        original = moments.empirical_moment

        def counting(values, k_max, *args, **kwargs):
            calls.append(k_max)
            return original(values, k_max, *args, **kwargs)

        monkeypatch.setattr(moments, "empirical_moment", counting)
        cfg = VerifyConfig(spec=RwaSpec(n=3, a=2.5), sample_count=1_000, seed=7, max_moment_k=3)
        assert len(run_verification(cfg).moment_rows) == 4
        assert calls == [3]

    def test_holds_the_sample_and_a_few_blocks(self, monkeypatch):
        # After the draw only the sample and arrays of one block are held: the
        # moments are summed block by block and KS reads the batch sorted in
        # place.  One worker, so that the bound does not depend on the cores
        # (each worker holds one chunk's arrays).  Before, the peak was about
        # four arrays the size of the sample.
        from rwa_semicircle import rwa

        monkeypatch.setattr(rwa, "_available_cores", lambda: 1)
        count = 2**20 + 1
        cfg = VerifyConfig(spec=RwaSpec(n=8, a=2.5), sample_count=count, seed=3, max_moment_k=3)
        tracemalloc.start()
        try:
            run_verification(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * count

    def test_no_batch_outlives_the_sort(self, monkeypatch):
        # The draw is sorted in place for KS; by then no SampleBatch may be
        # left whose values no longer match the draw its seed re-derives.
        from rwa_semicircle import verify

        drawn = []

        def keeping_a_weak_ref(*args, **kwargs):
            batch = rwa_batch(*args, **kwargs)
            drawn.append(weakref.ref(batch))
            return batch

        def checking(values, cdf):
            assert drawn and drawn[0]() is None
            return ks_statistic(values, cdf)

        monkeypatch.setattr(verify, "rwa_batch", keeping_a_weak_ref)
        monkeypatch.setattr(verify, "ks_statistic", checking)
        cfg = VerifyConfig(spec=RwaSpec(n=3, a=2.5), sample_count=1_000, seed=7, max_moment_k=2)
        assert run_verification(cfg).ks_pass

    def test_zeroth_row_always_inside_band(self):
        cfg = VerifyConfig(spec=RwaSpec(n=2, a=1.0), sample_count=500, seed=1, max_moment_k=0)
        outcome = run_verification(cfg)
        row = outcome.moment_rows[0]
        assert row.empirical == 1.0
        assert row.within_band()


class TestVerifyCommand:
    def test_documented_example_passes(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code = main(
            ["verify", "--n", "3", "--count", "100000", "--seed", "7",
             "--k-max", "3", "--alpha", "0.01", "--json", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: PASS" in out
        payload = json.loads(report.read_text())
        assert payload["overall_pass"] is True
        assert payload["ks_pass"] is True
        assert len(payload["moment_rows"]) == 4
        # the report carries the full configuration
        assert payload["config"] == {
            "n": 3,
            "a": 1.0,
            "sample_count": 100000,
            "seed": 7,
            "max_moment_k": 3,
            "alpha": 0.01,
            "shards": 1,
            "lambda_override": None,
        }

    # 2.2250738585072014e-308 is the smallest scale accepted, the smallest normal float.
    @pytest.mark.parametrize("a", ["1e-150", "1e50", "2.2250738585072014e-308"])
    def test_scale_far_from_one_passes(self, a, capsys):
        # Every z is taken on values / a, so the verdict is the a = 1 one.
        assert main(["verify", "--n", "3", "--count", "2000", "--seed", "7", "--a", a]) == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_scale_whose_square_overflows_passes(self, capsys):
        # a^2 overflows, but the scaled E S^2 = a^2 / 4 = 5.6e307 is in range;
        # orders 4 and 6 are beyond it, and keep their a = 1 z all the same
        argv = ["verify", "--n", "3", "--count", "2000", "--seed", "7", "--a", "1.5e154", "--k-max", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        zs = [line.rsplit("(z = ", 1)[1] for line in out.splitlines() if "moment order" in line]
        assert zs == ["0.00 vs 4.0)", "1.64 vs 4.0)", "1.93 vs 4.0)", "2.06 vs 4.0)"]

    def test_underflowing_rows_keep_their_z(self, capsys):
        # orders 4 and 6 underflow at a = 1e-150; their z is the a = 1 one
        assert main(["verify", "--n", "3", "--count", "2000", "--seed", "7", "--a", "1e-150"]) == 0
        out = capsys.readouterr().out
        assert "moment order 4: empirical outside the float range vs exact 1.25E-601 (z = 1.93 vs 4.0)" in out
        assert "moment order 6: empirical outside the float range vs exact 7.8125E-902 (z = 2.06 vs 4.0)" in out

    @pytest.mark.parametrize(
        ("a", "extra", "code", "null_orders"),
        [
            ("1.5e154", [], 0, [4, 6]),
            ("1e-150", [], 0, [4, 6]),
            # The scaled order-2 moment a^2 / 4 leaves the float range.
            ("1e200", [], 0, [2, 4, 6]),
            ("1e300", [], 0, [2, 4, 6]),
            # The largest accepted exponent at a huge scale, and a wrong one:
            # KS fails, and the rows are still reported.
            ("1e300", ["--lambda-override", "500"], 1, [2, 4, 6]),
            ("1e300", ["--lambda-override", "3"], 1, [2, 4, 6]),
        ],
        ids=["1.5e154", "1e-150", "1e200", "1e300", "1e300-lambda-500", "1e300-lambda-3"],
    )
    def test_rows_outside_the_float_range_are_null_and_keep_the_verdict(self, a, extra, code, null_orders, tmp_path, capsys):
        # An estimate that overflows, or is nonzero and rounds to 0.0, is null
        # in the JSON and named in the text; the exit code follows the
        # verdicts, and z, taken on values / a, is the a = 1 one.
        base = ["verify", "--n", "3", "--count", "2000", "--seed", "7", "--k-max", "3", *extra]
        assert main(base) == code
        unit_z = [line.rsplit("(z = ", 1)[1] for line in capsys.readouterr().out.splitlines() if "moment order" in line]
        report = tmp_path / "out.json"
        assert main([*base, "--a", a, "--json", str(report)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = [line for line in captured.out.splitlines() if "moment order" in line]
        assert [line.rsplit("(z = ", 1)[1] for line in lines] == unit_z
        assert [line.split(": ")[1].startswith("empirical outside the float range ") for line in lines] == [
            order in null_orders for order in (0, 2, 4, 6)
        ]
        for row in json.loads(report.read_text())["moment_rows"]:
            null = row["order"] in null_orders
            assert (row["empirical"] is None, row["std_error"] is None) == (null, null)
            assert (row["mc_count"], row["seed"]) == (2000, 7)

    def test_n2_reduces_to_uniform_and_passes(self, capsys):
        code = main(["verify", "--n", "2", "--count", "100000", "--seed", "7"])
        assert code == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_wrong_exponent_is_rejected(self, capsys, tmp_path):
        report = tmp_path / "bad.json"
        code = main(
            ["verify", "--n", "3", "--count", "100000", "--seed", "7",
             "--lambda-override", "3", "--json", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "verify: FAIL" in out
        payload = json.loads(report.read_text())
        assert payload["ks_pass"] is False
        assert payload["overall_pass"] is False

    def test_route_disagreement_fails_the_verdict(self, monkeypatch, capsys, tmp_path):
        from rwa_semicircle import moments

        # The Monte Carlo checks pass; only the two exact routes disagree,
        # from order 2 on.
        table = moments.lemma_rows
        monkeypatch.setattr(moments, "lemma_rows", lambda params, r_max: [
            (r, lhs + (1 if r >= 1 else 0), rhs) for r, lhs, rhs in table(params, r_max)])
        report = tmp_path / "v.json"
        assert main(["verify", "--n", "3", "--count", "2000", "--seed", "7", "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "[PASS] ks:" in out and "[PASS] moment order 0:" in out
        assert "[FAIL] moment order 2:" in out and "verify: FAIL" in out
        payload = json.loads(report.read_text())
        assert [row["consistent"] for row in payload["moment_rows"]] == [True, False, False, False]
        assert payload["overall_pass"] is False

    def test_json_report_bytes_reproducible(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["verify", "--n", "4", "--count", "5000", "--seed", "21", "--k-max", "2"]
        main(argv + ["--json", str(first)])
        main(argv + ["--json", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_exact_rows_match_the_moment_command(self, capsys, tmp_path):
        # both commands read a = 0.1 as 1/10, so E S^2 = (1/4)(1/100) = 1/400
        assert main(["moment", "--n", "3", "--k-max", "1", "--a", "0.1", "--json"]) == 0
        moment_row = json.loads(capsys.readouterr().out)["rows"][1]
        report = tmp_path / "v.json"
        main(["verify", "--n", "3", "--a", "0.1", "--count", "1000", "--seed", "3",
              "--k-max", "1", "--json", str(report)])
        capsys.readouterr()
        verify_row = json.loads(report.read_text())["moment_rows"][1]
        assert verify_row["closed_form"] == moment_row["closed_form"]
        assert (verify_row["closed_form"]["num"], verify_row["closed_form"]["den"]) == ("1", "400")

    def test_human_output_lists_each_moment(self, capsys):
        main(["verify", "--n", "3", "--count", "2000", "--seed", "5", "--k-max", "2"])
        out = capsys.readouterr().out
        for order in (0, 2, 4):
            assert f"moment order {order}:" in out


# ---------------------------------------------------------------------------
# plot-data


def _read_plot_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def _two_pass_plot_csv(n: int, a: float, count: int, seed: int, bins: int) -> bytes:
    """plot-data's CSV with the edges made first, then a histogram against
    them, both in the unit variable values / a."""
    edges = np.histogram_bin_edges([], bins=bins, range=(-1.0, 1.0))
    density, _ = np.histogram(rwa_batch(RwaSpec(n=n, a=a), count, seed).values / a, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    header = ["bin_center", "empirical_density", "theoretical_density"]
    return csv_bytes(header, np.stack([a * centers, density / a, RwaSpec(n=n).target_law().pdf(centers) / a], axis=1))


class TestPlotDataCommand:
    @pytest.mark.parametrize("bins", [None, 17])
    @pytest.mark.parametrize("a", [1.0, 2.5, 1e300])
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_one_histogram_matches_edges_then_histogram(self, n, a, bins, capsysbinary):
        argv = ["plot-data", "--n", str(n), "--a", repr(a), "--count", "2000", "--seed", str(n)]
        assert main(argv if bins is None else [*argv, "--bins", str(bins)]) == 0
        rice = math.ceil(2.0 * 2000 ** (1.0 / 3.0))
        expected = _two_pass_plot_csv(n, a, 2000, n, rice if bins is None else bins)
        assert capsysbinary.readouterr().out == expected

    def test_three_columns_and_normalization(self, capsys):
        assert main(
            ["plot-data", "--n", "3", "--count", "20000", "--seed", "6", "--bins", "11"]
        ) == 0
        header, data = _read_plot_csv(capsys.readouterr().out)
        assert header == ["bin_center", "empirical_density", "theoretical_density"]
        assert data.shape == (11, 3)
        width = 2.0 / 11
        assert abs(data[:, 1].sum() * width - 1.0) < 1e-9

    def test_n3_center_density_is_two_over_pi(self, capsys):
        main(["plot-data", "--n", "3", "--count", "20000", "--seed", "6", "--bins", "11"])
        _, data = _read_plot_csv(capsys.readouterr().out)
        center = data[5]
        assert abs(center[0]) < 1e-12
        assert center[2] == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert center[1] == pytest.approx(2.0 / math.pi, abs=0.08)

    def test_n2_theoretical_column_is_flat(self, capsys):
        main(["plot-data", "--n", "2", "--count", "5000", "--seed", "2", "--bins", "10"])
        _, data = _read_plot_csv(capsys.readouterr().out)
        assert np.max(np.abs(data[:, 2] - 0.5)) < 1e-12

    def test_default_bin_count_follows_rice_rule(self, capsys):
        main(["plot-data", "--n", "3", "--count", "1000", "--seed", "1"])
        _, data = _read_plot_csv(capsys.readouterr().out)
        assert data.shape[0] == math.ceil(2.0 * 1000 ** (1.0 / 3.0))

    def test_density_at_a_scale_whose_square_overflows(self, capsys):
        assert main(["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--a", "1e300", "--bins", "10"]) == 0
        _, data = _read_plot_csv(capsys.readouterr().out)
        assert np.all(np.isfinite(data[:, 2])) and np.all(data[:, 2] > 0)

    @pytest.mark.parametrize("a", ["2.3e-308", "2.2250738585072014e-308"])
    def test_density_at_the_smallest_scales(self, a, capsys):
        # The histogram is taken of values / a, so no bin width of order a
        # divides the counts.
        assert main(["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--a", a]) == 0
        _, data = _read_plot_csv(capsys.readouterr().out)
        assert np.all(np.isfinite(data))
        assert np.all(np.abs(data[:, 0]) < float(a)) and np.all(data[:, 2] > 0)

    def test_shards_is_not_an_option(self, capsys):
        # Its CSV records no shard count, so no plot-data output names one.
        _usage_error(["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--shards", "2"])
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err
        _usage_error(["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--shards", "101"])

    def test_writes_file_and_reproduces(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["plot-data", "--n", "4", "--a", "2.5", "--count", "3000", "--seed", "13"]
        main(argv + ["--out", str(first)])
        main(argv + ["--out", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        _, data = _read_plot_csv(first.read_text())
        assert np.all(np.abs(data[:, 0]) < 2.5)
