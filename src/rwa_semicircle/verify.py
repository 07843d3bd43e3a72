"""Verification of one (n, a) instance against its target power semicircle law.

One seeded batch is drawn and tested twice: a one-sample KS test against
the target CDF, and a band check of each empirical even moment against the
exact rows of one :func:`~rwa_semicircle.moments.moment_rows` table.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass

from .distributions import PowerSemicircle, check_size
from .gof import ks_coefficient, ks_critical_one_sample, ks_statistic
from .moments import MomentReport, check_degree, moment_rows
from .render import magnitude
from .rwa import RwaSpec, check_shards, rwa_batch

__all__ = ["MIN_SAMPLE_COUNT", "VerifyConfig", "VerifyOutcome", "run_verification"]
MIN_SAMPLE_COUNT = 100  # the fewest draws a verification run accepts


@dataclass(frozen=True)
class VerifyConfig:
    """Everything one verification run depends on, each count kept as the exact int its rule reads."""

    spec: RwaSpec
    sample_count: int = 100_000
    seed: int = 1234
    max_moment_k: int = 3
    alpha: float = 0.01
    shards: int = 1
    lambda_override: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_count", operator.index(self.sample_count))
        if self.sample_count < MIN_SAMPLE_COUNT:
            raise ValueError(f"need at least {MIN_SAMPLE_COUNT} draws, got {magnitude(self.sample_count)}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        ks_coefficient(self.alpha)
        object.__setattr__(self, "max_moment_k", check_degree(self.max_moment_k, "max_moment_k"))
        object.__setattr__(self, "shards", check_shards(self.sample_count, self.shards))
        self.spec.target_law()
        check_size((self.sample_count, self.spec.n))
        if self.lambda_override is not None:
            PowerSemicircle(lam=self.lambda_override)

    def to_json_dict(self) -> dict:
        """Every field, with the spec's n and a lifted to the top level."""
        out = asdict(self)
        out.update(out.pop("spec"))
        return out


@dataclass(frozen=True)
class VerifyOutcome:
    """KS verdict plus one MomentReport per even order."""

    config: VerifyConfig
    ks_statistic: float
    ks_critical: float
    moment_rows: tuple[MomentReport, ...]

    @property
    def ks_pass(self) -> bool:
        return self.ks_statistic < self.ks_critical

    @property
    def overall_pass(self) -> bool:
        return self.ks_pass and all(row.passes() for row in self.moment_rows)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "ks_statistic": self.ks_statistic,
            "ks_critical": self.ks_critical,
            "ks_pass": self.ks_pass,
            "moment_rows": [row.to_json_dict() for row in self.moment_rows],
            "overall_pass": self.overall_pass,
        }


def run_verification(cfg: VerifyConfig) -> VerifyOutcome:
    """Draw one batch and test it: the standard-error band check of each
    empirical even moment up to order 2*max_moment_k against the exact
    values, then one-sample KS against the target power semicircle
    (exponent (n-1)/2, or the override for negative-control testing).
    """
    batch = rwa_batch(cfg.spec, cfg.sample_count, cfg.seed, shards=cfg.shards)
    override = cfg.lambda_override
    law = cfg.spec.target_law() if override is None else PowerSemicircle(lam=override, a=cfg.spec.a)
    # The moments first: their sums follow NumPy's pairwise tree over the
    # batch in draw order, and a sorted batch would give other bits.
    rows = moment_rows(cfg.spec, cfg.max_moment_k, batch)
    # Then the draw, which this run owns and needs no more in draw order, is
    # sorted in place, so that KS reads it without a sorted copy.  The batch
    # is dropped first: no SampleBatch is left whose values differ from the
    # draw its seed re-derives.
    values = batch.values
    del batch
    values.sort()
    d = ks_statistic(values, law.cdf)
    critical = ks_critical_one_sample(cfg.alpha, cfg.sample_count)
    return VerifyOutcome(config=cfg, ks_statistic=d, ks_critical=critical, moment_rows=rows)
