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

from rwa_semicircle.cli import VerifyConfig, run_verification
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
