"""Golden digests of the seeded artifacts.

Rerun-equals-rerun (criterion 8) cannot notice a change that moves every
run the same way, such as a refactor of the sampler or a new NumPy stream.
These SHA-256 values pin the bytes themselves, so any change to the draw
order or to the rendering fails here and has to be re-pinned on purpose.
"""

from __future__ import annotations

import hashlib
import json
from decimal import ROUND_DOWN, Inexact, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rwa_semicircle import gof, render
from rwa_semicircle.cli import main
from rwa_semicircle.verify import VerifyConfig, run_verification
from rwa_semicircle.rwa import RwaSpec, rwa_batch


def _check(actual: str, expected: str, what: str) -> None:
    assert actual == expected, (
        f"{what}: digest {actual} != pinned {expected} (NumPy {np.__version__}); "
        "the draw order or the rendering changed"
    )


@pytest.mark.parametrize(
    "n, a, seed, shards, expected",
    [
        (2, 1.0, 1234, 1, "059b3bce682f4d1b67c45dc467aef226b944645c659c6ff3d8006249a36eeeb8"),
        (3, 2.5, 1234, 3, "f46c326cf96d5da0393c3f69bf2acb27815bf30f47923bf7467e67c63697588d"),
        (8, 1.0, 7, 2, "5428abdf7a9133848f09bbb12e6744bf6d9b02b5c744d9de5aa4aeffdb9df78b"),
        (64, 0.5, 11, 4, "b428e81173bafb06dd171692ed5a1941f941361302de8a17a80ec125f3fd914b"),
    ],
)
def test_batch_csv_digest(n, a, seed, shards, expected):
    batch = rwa_batch(RwaSpec(n, a), 5_000, seed, shards=shards)
    _check(hashlib.sha256(batch.csv_bytes()).hexdigest(), expected, f"rwa_batch n={n} a={a} seed={seed} shards={shards}")


@pytest.mark.parametrize(
    "a, expected",
    [
        (1.0, "2932be55b8271c00b7bcb034fbfe81727476b5fda02ff3c3a76b565c342e02d0"),
        (2.5, "40863207dd570080d3ce04b22082c2318af651459382a9ebadc93c772b552124"),
    ],
)
def test_verify_json_digest(a, expected):
    cfg = VerifyConfig(spec=RwaSpec(n=4, a=a), sample_count=5_000, seed=1234, max_moment_k=3)
    text = json.dumps(run_verification(cfg).to_json_dict(), indent=2, sort_keys=True) + "\n"
    _check(hashlib.sha256(text.encode("ascii")).hexdigest(), expected, f"verify JSON n=4 a={a}")


def test_decimal_readings_ignore_the_callers_decimal_context():
    # Every `decimal` reading is made in one fixed context, so a caller's
    # rounding, capitals, exponent limit or traps change no byte.
    with localcontext() as ctx:
        ctx.rounding, ctx.capitals, ctx.Emax = ROUND_DOWN, 0, 10
        ctx.traps[Inexact] = True
        assert render.decimal_str(Fraction(2, 3)) == "0.666666666666666666666666666667"
        assert render.decimal_str(Fraction(10**40, 3)) == "3.33333333333333333333333333333E+39"
        test_verify_json_digest(2.5, "40863207dd570080d3ce04b22082c2318af651459382a9ebadc93c772b552124")


def test_verify_json_digest_across_ks_blocks():
    # Pinned when the KS statistic was computed over the whole sample at once:
    # 3B + 1 draws, B the points of one KS block, so the digest covers three
    # block boundaries and a one-point last block (and four sampler chunks).
    count = 196_609
    assert count == 3 * gof._BLOCK_POINTS + 1
    cfg = VerifyConfig(spec=RwaSpec(n=8, a=2.5), sample_count=count, seed=1234, max_moment_k=3)
    text = json.dumps(run_verification(cfg).to_json_dict(), indent=2, sort_keys=True) + "\n"
    _check(hashlib.sha256(text.encode("ascii")).hexdigest(),
           "7880845ff546eda33c394827d8ac019c17310c3b95398d7a4f1004e284b89152", "verify JSON n=8 a=2.5 over KS blocks")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sample", "arcsine", "--a", "2", "--count", "3000", "--seed", "9"],
         "2bbd9cc1263b191db87eef11cdac6a28a9044a60007e8cd60c7316c0347baef9"),
        (["sample", "psc", "--lambda", "1.5", "--count", "3000", "--seed", "4"],
         "b9a6a33f11c69f6a01cc65b525529415fb191d49875b2ddd36af1ee14fa30000"),
        (["sample", "spacings", "--n", "4", "--count", "2000", "--seed", "5"],
         "f0041bd97b94675e31aea329a5015220c6c9fd1a50ae5f769d08e5974ae812ed"),
        (["sample", "spacings", "--n", "64", "--count", "2000", "--seed", "5"],
         "951f51dbf915b313f14f003244a619b8d74481470f39d57e80be5adf2ebcab83"),
        (["plot-data", "--n", "4", "--a", "2.5", "--count", "3000", "--seed", "13"],
         "f6f1eb1443afba22c45809e604f4dcef8d13206503ef13d1c6fb262c382c45f3"),
        (["sample", "spacings", "--n", "3", "--count", "2000", "--seed", "5"],
         "cf09e8b6773ad98cb9f694ecd81cfb24fd8a40af068634478de873d4d30bc8ea"),
        (["sample", "spacings", "--n", "2", "--count", "2000", "--seed", "5"],
         "70fb3fd93696b19c9010a1106c9b3705038aaeaffc52f9ee717312f60dea57c3"),
        # Rows wider than a render block.
        (["sample", "spacings", "--n", "5000", "--count", "3", "--seed", "5"],
         "b8f5a773cad6695cc1c8eabde8fad7f2ea629237d669faee43141c13b3037b02"),
    ],
)
def test_cli_artifact_digest(argv, expected, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    _check(hashlib.sha256(out.read_bytes()).hexdigest(), expected, " ".join(argv))


@pytest.mark.parametrize(
    "argv, columns, expected",
    [
        (["sample", "rwa", "--n", "3", "--count", "49153", "--seed", "20", "--shards", "2"], 1,
         "5849a3819f49664b52d68ef3e3b7d76a54d78e8f57e0f40ecb1c2ddc320a8c52"),
        (["sample", "spacings", "--n", "4", "--count", "12289", "--seed", "20"], 4,
         "db85a24d032d37bf75e8422ba05b5cfcc3dc2cda79efee9cad002293e5ab3d32"),
    ],
)
def test_cli_artifact_digest_across_render_chunks(argv, columns, expected, tmp_path):
    # Pinned when the CSV was rendered in one piece: more than three render
    # blocks of cells, the last of them one row, so the digest covers block
    # boundaries and a one-row last block.
    cells = int(argv[argv.index("--count") + 1]) * columns
    assert cells > 3 * render._BLOCK and cells % render._BLOCK == columns
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    _check(hashlib.sha256(out.read_bytes()).hexdigest(), expected, " ".join(argv))


def test_cli_envelope_digest(tmp_path):
    envelope = tmp_path / "draws.json"
    argv = ["sample", "rwa", "--n", "3", "--count", "4000", "--seed", "2", "--shards", "2",
            "--out", str(tmp_path / "draws.csv"), "--envelope", str(envelope)]
    assert main(argv) == 0
    _check(hashlib.sha256(envelope.read_bytes()).hexdigest(),
           "6ed86b48e4353ad9255883ef356d15fac4709193f5777f42ac8ad6f0dc44de1d", "sample rwa envelope")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["moment", "--n", "4", "--k-max", "3"],
         "4e1c6ea8b6b6568b184f7938f499086faaf9b899cbf12abcf144c69331bae42f"),
        (["moment", "--n", "4", "--k-max", "3", "--json"],
         "5f8687f6321223f14e6672d69f13afe4023122c2f75e5f81d4d0aa774a8913ff"),
        (["moment", "--n", "4", "--k-max", "3", "--a", "2.5"],
         "9372f95dd61c98ff291858dd9e03eff6f88c877a95e0b660379ad47bd6a82c73"),
        (["lemma-check", "--params", "1/2,1,3/2", "--r-max", "4"],
         "f062c10575442e6d1b1ee7623763ce162c35f1e2cf1d8064fd1e62c1c7e5ee36"),
        (["lemma-check", "--params", "1/2,1,3/2", "--r-max", "4", "--json"],
         "af4d83b1e687d8ca6cba9f5be46b16a9ce047507f25a62e3f5676f2121c3277c"),
    ],
)
def test_cli_exact_table_digest(argv, expected, capsysbinary):
    # The exact tables draw nothing, so these pin the report's layout: the
    # text columns, the JSON keys and the rational forms.
    assert main(argv) == 0
    _check(hashlib.sha256(capsysbinary.readouterr().out).hexdigest(), expected, " ".join(argv))
