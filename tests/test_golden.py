"""Golden digests of the seeded artifacts.

Rerun-equals-rerun (criterion 8) cannot notice a change that moves every
run the same way, such as a refactor of the sampler or a new NumPy stream.
These SHA-256 values pin the bytes themselves, so any change to the draw
order or to the rendering fails here and has to be re-pinned on purpose.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

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
        (1.0, "88b7170aae82b492305da3cbea971948085ba094f44513ff009d3ef8112e8315"),
        (2.5, "404163fb6a3fec9715f82878dc241db6be92a823e6f9ada8e49e07b6dee8a850"),
    ],
)
def test_verify_json_digest(a, expected):
    cfg = VerifyConfig(spec=RwaSpec(n=4, a=a), sample_count=5_000, seed=1234, max_moment_k=3)
    text = json.dumps(run_verification(cfg).to_json_dict(), indent=2, sort_keys=True) + "\n"
    _check(hashlib.sha256(text.encode("ascii")).hexdigest(), expected, f"verify JSON n=4 a={a}")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sample", "arcsine", "--a", "2", "--count", "3000", "--seed", "9"],
         "2bbd9cc1263b191db87eef11cdac6a28a9044a60007e8cd60c7316c0347baef9"),
        (["sample", "psc", "--lambda", "1.5", "--count", "3000", "--seed", "4"],
         "b9a6a33f11c69f6a01cc65b525529415fb191d49875b2ddd36af1ee14fa30000"),
        (["sample", "spacings", "--n", "4", "--count", "2000", "--seed", "5"],
         "f0041bd97b94675e31aea329a5015220c6c9fd1a50ae5f769d08e5974ae812ed"),
        (["sample", "spacings", "--n", "4", "--count", "2000", "--seed", "5", "--method", "exponential"],
         "06b8e4a66fb66afaa1a34360caff6d476e2d2b58f812b8f6b24355e814492950"),
        (["plot-data", "--n", "4", "--a", "2.5", "--count", "3000", "--seed", "13"],
         "3881bf343c119b4c45e154a0bcd58d9a928f1b7fcb503c95b6ab3aa52ca8f0bc"),
    ],
)
def test_cli_artifact_digest(argv, expected, tmp_path):
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
