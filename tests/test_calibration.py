"""Type I calibration of `run_verification`: on the true law, each check
must reject about as often as its stated rate says.

M seeded runs at n = 3 and N = 2,000 are counted, and each rejection count
must lie in the binomial acceptance region of its rate, two-sided for KS
and one-sided for the moment band, whose rate is a Bonferroni bound:

- KS rejects when D >= c(alpha)/sqrt(N).  That threshold is the
  Dvoretzky-Kiefer-Wolfowitz bound with Massart's constant (Massart 1990),
  so its size is at most alpha at every N; its exact size at N = 2,000 is
  P(D >= c(alpha)/sqrt(N)) = 0.00975 (the `scipy.stats.kstwo` law of D),
  just below alpha = 0.01.
- The moment band rejects when any of the k_max non-trivial rows is more
  than BAND_Z standard errors off, at most k_max P(|Z| > BAND_Z) = 1.9e-4.

Seeds 0..999 gave 7 KS rejections and 0 moment-band rejections.
"""

from __future__ import annotations

import functools

import pytest
import scipy.stats

from rwa_semicircle import moments
from rwa_semicircle.gof import ks_critical_one_sample
from rwa_semicircle.rwa import RwaSpec
from rwa_semicircle.verify import VerifyConfig, run_verification

RUNS = 1000
COUNT = 2000
ALPHA = 0.01
K_MAX = 3
REGION = 0.999  # probability of the acceptance region under the stated rate


@pytest.fixture(scope="module")
def rejections():
    # The closed-form moments do not depend on the seed, so each is computed
    # once; the oracle's rows still come off one truncated power per run, as
    # do every draw, statistic and band check.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "rwa_moment_closed", functools.cache(moments.rwa_moment_closed))
        outcomes = [
            run_verification(VerifyConfig(spec=RwaSpec(n=3), sample_count=COUNT, seed=seed, max_moment_k=K_MAX, alpha=ALPHA))
            for seed in range(RUNS)
        ]
    ks = sum(not out.ks_pass for out in outcomes)
    band = sum(not all(row.within_band() for row in out.moment_rows) for out in outcomes)
    return ks, band


def test_ks_rejects_at_its_exact_size(rejections):
    size = scipy.stats.kstwo.sf(ks_critical_one_sample(ALPHA, COUNT), COUNT)
    assert size == pytest.approx(0.00975, abs=5e-6)
    low, high = scipy.stats.binom.interval(REGION, RUNS, size)
    assert low <= rejections[0] <= high, (rejections[0], low, high)


def test_moment_band_rejects_within_its_bound(rejections):
    bound = K_MAX * 2.0 * scipy.stats.norm.sf(moments.BAND_Z)
    assert bound == pytest.approx(1.9e-4, rel=0.01)
    high = scipy.stats.binom.ppf(REGION, RUNS, bound)
    assert rejections[1] <= high, (rejections[1], high)
