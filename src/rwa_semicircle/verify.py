"""Verification of one (n, a) instance against its target power semicircle law.

One seeded batch is drawn and tested twice: a one-sample KS test against
the target CDF, and a band check of each empirical even moment against the
exact rows of one :func:`~rwa_semicircle.moments.moment_rows` table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import PowerSemicircle
from .gof import ks_critical_one_sample, ks_statistic
from .moments import MomentReport, moment_rows
from .rwa import RwaSpec, rwa_batch

__all__ = ["VerifyConfig", "VerifyOutcome", "run_verification"]


@dataclass(frozen=True)
class VerifyConfig:
    """Everything one verification run depends on."""

    spec: RwaSpec
    sample_count: int = 100_000
    seed: int = 1234
    max_moment_k: int = 3
    alpha: float = 0.01
    shards: int = 1
    lambda_override: float | None = None

    def __post_init__(self) -> None:
        if self.sample_count < 100:
            raise ValueError(f"sample_count must be >= 100, got {self.sample_count}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_moment_k < 0:
            raise ValueError(f"max_moment_k must be >= 0, got {self.max_moment_k}")
        if not (1 <= self.shards <= self.sample_count):
            raise ValueError(
                f"shards must be in 1..sample_count={self.sample_count}, got {self.shards}"
            )
        self.spec.target_law()
        if self.lambda_override is not None:
            PowerSemicircle(lam=self.lambda_override)

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "a": self.spec.a,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "max_moment_k": self.max_moment_k,
            "alpha": self.alpha,
            "shards": self.shards,
            "lambda_override": self.lambda_override,
        }


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
        return self.ks_pass and all(row.within_band() for row in self.moment_rows)

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
    """Draw one batch and test it: one-sample KS against the target power
    semicircle (exponent (n-1)/2, or the override for negative-control
    testing), then the standard-error band check of each empirical even
    moment up to order 2*max_moment_k against the exact values.
    """
    batch = rwa_batch(cfg.spec, cfg.sample_count, cfg.seed, shards=cfg.shards)
    override = cfg.lambda_override
    law = cfg.spec.target_law() if override is None else PowerSemicircle(lam=override, a=cfg.spec.a)
    d = ks_statistic(batch.values, law.cdf)
    critical = ks_critical_one_sample(cfg.alpha, cfg.sample_count)
    rows = moment_rows(cfg.spec, cfg.max_moment_k, batch)
    return VerifyOutcome(config=cfg, ks_statistic=d, ks_critical=critical, moment_rows=rows)
