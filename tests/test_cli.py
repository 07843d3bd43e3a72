"""End-to-end tests of the ``rwa`` command line tool.

Everything runs through ``main(argv)`` so exit codes and output are checked
exactly as a shell user would see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwa_semicircle
from rwa_semicircle.cli import main
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
    ["plot-data", "--n", "3", "--count", "100", "--seed", "1", "--shards", "101"],
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
             "rwa sample spacings: error: argument --n: the average needs n >= 2, got '1'"),
            (["verify", "--n", "3", "--count", "50"],
             "rwa verify: error: argument --count: verification needs at least 100 draws, got '50'"),
            (["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--bins", "5"],
             "rwa plot-data: error: argument --bins: need at least 10 bins, got '5'"),
            (["verify", "--n", "3", "--alpha", "x"],
             "rwa verify: error: argument --alpha: expected a number, got 'x'"),
            (["moment", "--n", "3", "--k-max", "1", "--a", "1e999"],
             "rwa moment: error: argument --a: expected a finite number, got '1e999'"),
            (["sample", "arcsine", "--a", "-2", "--count", "5", "--seed", "1"],
             "rwa sample arcsine: error: argument --a: expected a positive number, got '-2'"),
            (["sample", "psc", "--lambda", "-1", "--count", "5", "--seed", "1"],
             "rwa sample psc: error: argument --lambda: exponent must be p/2 for an integer p in 0..1000, got lam=-1.0"),
            (["verify", "--n", "3", "--alpha", "1.0"],
             "rwa verify: error: argument --alpha: expected a value in (0, 1), got '1.0'"),
            (["sample", "rwa", "--n", "3", "--count", "5", "--seed", "1", "--shards", "6"],
             "rwa: error: sample rwa: cannot split 5 draws over 6 shards"),
            (["lemma-check", "--params", "1/3", "--r-max", "3"],
             "rwa lemma-check: error: argument --params: 1/3 is not a half-integer"),
        ],
    )
    def test_bounded_argument_message(self, argv, message, capsys):
        _usage_error(argv)
        assert capsys.readouterr().err.splitlines()[-1] == message

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "1002", "--count", "1000"],
            ["plot-data", "--n", "1002", "--count", "100", "--seed", "1"],
        ],
    )
    def test_size_without_target_law_is_refused_before_drawing(self, argv, monkeypatch, capsys):
        from rwa_semicircle import cli, verify

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a batch for a size with no target law")

        monkeypatch.setattr(verify, "rwa_batch", no_draw)
        monkeypatch.setattr(cli, "rwa_batch", no_draw)
        _usage_error(argv)
        err = capsys.readouterr().err
        assert "warning:" not in err
        assert "n=1002" in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--count", "1000", "--a", "1e300"],
        ["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--a", "1e-320"],
        # The largest accepted exponent at a huge scale.
        ["verify", "--n", "3", "--count", "1000", "--a", "1e300", "--lambda-override", "500"],
        # 10^15 doubles are 7 PiB, beyond any x86-64 address space.
        ["sample", "rwa", "--n", "3", "--seed", "1", "--count", str(10**15)],
        ["verify", "--n", "3", "--count", str(10**15)],
        ["plot-data", "--n", "3", "--seed", "1", "--count", str(10**15)],
        # The scaled order-2 moment a^2 / 4 leaves the float range.
        ["verify", "--n", "3", "--count", "1000", "--a", "1e200"],
        # The moment rows are computed even where the KS test fails.
        ["verify", "--n", "3", "--count", "1000", "--a", "1e300", "--lambda-override", "3"],
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
    where = {
        "1e300": "moments.moment_rows",
        "3": "moments.moment_rows",
        "500": "moments.moment_rows",
        "1e200": "moments.moment_rows",
        "1e-320": "cli._cmd_plot_data",
        str(10**15): "rwa.rwa_batch",
    }[argv[-1]]
    command = " ".join(itertools.takewhile(lambda arg: not arg.startswith("--"), argv))
    assert errors[0].startswith(f"error: {command}: ")
    assert errors[0].endswith(f" (in {where})")
    # A moment row out of the float range names its order and the scale.
    if argv[-1] == "1e300":
        assert errors[0] == "error: verify: moment order 2 at a=1e+300 is beyond the float range (in moments.moment_rows)"


@pytest.mark.parametrize(
    "argv",
    [
        ["plot-data", "--n", "3", "--count", "1000", "--seed", "1", "--a", "1e-320"],
        ["verify", "--n", "3", "--count", "1000", "--a", "1e300"],
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


def test_term_count_warning_threshold(capsys):
    from rwa_semicircle.cli import _warn_term_count

    _warn_term_count(10_000_001)
    assert "warning" in capsys.readouterr().err
    _warn_term_count(10_000_000)
    assert capsys.readouterr().err == ""


def test_verify_warns_before_a_long_enumeration(monkeypatch, capsys):
    from rwa_semicircle import cli

    monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", 0)
    main(["verify", "--n", "3", "--count", "200", "--seed", "1", "--k-max", "1"])
    assert "warning: this enumeration visits 4 compositions" in capsys.readouterr().err


def test_literal_parity_warning_counts_the_literal_walk(monkeypatch, capsys):
    from rwa_semicircle import cli

    # n = 3, k = 0..2: the even rows walk 1 + 3 + 6 = 10 compositions, the
    # literal walks of orders 0, 2, 4 another 1 + 6 + 15 = 22.
    monkeypatch.setattr(cli, "_TERM_WARN_LIMIT", 20)
    assert main(["moment", "--n", "3", "--k-max", "2"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["moment", "--n", "3", "--k-max", "2", "--literal-parity"]) == 0
    assert "warning: this enumeration visits 32 compositions" in capsys.readouterr().err


def test_json_rows_and_rationals_share_one_form(capsys):
    from rwa_semicircle.moments import moment_rows

    assert main(["moment", "--n", "3", "--k-max", "2", "--a", "0.5", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [row.to_json_dict() for row in moment_rows(RwaSpec(n=3, a=0.5), 2)]
    assert main(["lemma-check", "--params", "1/2,5/2", "--r-max", "2", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][2]
    assert row["lhs"] == {"num": "12", "den": "1", "decimal": "12"}
    assert row["rhs"] == row["lhs"]


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

    def test_literal_parity_route_agrees(self, capsys):
        assert main(["moment", "--n", "3", "--k-max", "2", "--literal-parity"]) == 0


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

    def test_spacings_exponential_method(self, capsys):
        assert main(
            ["sample", "spacings", "--n", "3", "--count", "20", "--seed", "5",
             "--method", "exponential"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12

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

    @pytest.mark.parametrize("shards", [0, 101])
    def test_rejects_shards_outside_one_to_count(self, shards):
        with pytest.raises(ValueError):
            VerifyConfig(spec=RwaSpec(n=3, a=1.0), sample_count=100, shards=shards)

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

        def counting(values, k_max):
            calls.append(k_max)
            return original(values, k_max)

        monkeypatch.setattr(moments, "empirical_moment", counting)
        cfg = VerifyConfig(spec=RwaSpec(n=3, a=2.5), sample_count=1_000, seed=7, max_moment_k=3)
        assert len(run_verification(cfg).moment_rows) == 4
        assert calls == [3]

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

    @pytest.mark.parametrize("a", ["1e-150", "1e50"])
    def test_scale_far_from_one_passes(self, a, capsys):
        # Every z is taken on values / a, so the verdict is the a = 1 one.
        assert main(["verify", "--n", "3", "--count", "2000", "--seed", "7", "--a", a]) == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_scale_whose_square_overflows_passes(self, capsys):
        # a^2 overflows, but the scaled E S^2 = a^2 / 4 = 5.6e307 is in range
        argv = ["verify", "--n", "3", "--count", "2000", "--seed", "7", "--a", "1.5e154", "--k-max", "1"]
        assert main(argv) == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_underflowing_rows_keep_their_z(self, capsys):
        # orders 4 and 6 underflow to 0 at a = 1e-150; their z is the a = 1 one
        assert main(["verify", "--n", "3", "--count", "2000", "--seed", "7", "--a", "1e-150"]) == 0
        out = capsys.readouterr().out
        assert "moment order 4: empirical 0 vs exact 1.25E-601 (z = 1.93 vs 4.0)" in out
        assert "moment order 6: empirical 0 vs exact 7.8125E-902 (z = 2.06 vs 4.0)" in out

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


class TestPlotDataCommand:
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
