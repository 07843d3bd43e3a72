import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from rwa_semicircle.distributions import PowerSemicircle
from rwa_semicircle.gof import _BLOCK_POINTS, ks_coefficient, ks_critical_one_sample, ks_statistic
from twosample import ks_critical_two_sample, ks_statistic_two_sample

B = _BLOCK_POINTS


def _whole_ks(values, cdf) -> float:
    """The statistic in one pass over the whole sorted sample: the reference
    the blocked walk must match bit for bit."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))


class TestOneSampleKS:
    def test_hand_worked_example(self):
        """Three points against the uniform CDF on [0,1].

        values 0.1, 0.5, 0.9 -> empirical steps at 1/3, 2/3, 1;
        the largest gap is |1/3 - 0.1| = 7/30 at the first point.
        """
        d = ks_statistic(np.array([0.1, 0.5, 0.9]), lambda x: x)
        assert d == pytest.approx(7.0 / 30.0)

    def test_matches_scipy_kstest(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=3000)
        mine = ks_statistic(x, scipy.stats.norm.cdf)
        ref = scipy.stats.kstest(x, "norm").statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_perfect_fit_has_small_statistic(self):
        # plug the quantiles of the reference law straight in
        n = 1000
        grid = (np.arange(n) + 0.5) / n
        d = ks_statistic(grid, lambda x: x)
        assert d == pytest.approx(0.5 / n)

    def test_sorted_input_not_required(self):
        rng = np.random.default_rng(0)
        x = rng.random(500)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        assert ks_statistic(x, lambda t: t) == ks_statistic(shuffled, lambda t: t)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), lambda x: x)


class TestBlockedKS:
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_bits_match_the_whole_sample_form(self, n, a):
        # Draws of the target law, tested against it and against the
        # negative control's exponent, at sizes on and around block edges.
        target = PowerSemicircle(lam=(n - 1) / 2, a=a)
        control = PowerSemicircle(lam=3.0, a=a)
        x = target.sample(np.random.default_rng(n), 3 * B + 7)
        for size in (1, B - 1, B, B + 1, 3 * B + 7):
            for law in (target, control):
                d = ks_statistic(x[:size], law.cdf)
                assert d == _whole_ks(x[:size], law.cdf), (size, law)

    @pytest.mark.parametrize("index", [B - 1, 2 * B - 1])
    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_supremum_on_the_last_point_of_a_block(self, index, shift):
        # A perfect fit, (i + 1/2)/N, with the last point of a block moved by
        # 1/N down (D+) or up (D-): the gap there is 3/(2N), 1/(2N) elsewhere.
        size = 2 * B
        x = (np.arange(size) + 0.5) / size
        x[index] += shift / size
        d = ks_statistic(x, lambda t: t)
        assert d == _whole_ks(x, lambda t: t)
        assert d == pytest.approx(1.5 / size, rel=1e-9)

    @pytest.mark.parametrize("size", [10, B + 1, 3 * B + 7])
    def test_nan_in_the_sample_gives_nan(self, size):
        law = PowerSemicircle(lam=1.0)
        x = law.sample(np.random.default_rng(5), size)
        x[size // 2] = np.nan
        assert math.isnan(_whole_ks(x, law.cdf))
        assert math.isnan(ks_statistic(x, law.cdf))

    @pytest.mark.parametrize("size", [10, B + 1, 3 * B + 7])
    def test_leaves_an_unsorted_sample_unchanged(self, size):
        law = PowerSemicircle(lam=1.0)
        x = law.sample(np.random.default_rng(7), size)
        before = x.copy()
        d = ks_statistic(x, law.cdf)
        assert x.tobytes() == before.tobytes()
        assert d == ks_statistic(np.sort(x), law.cdf)

    @pytest.mark.parametrize("index", [B - 1, 2 * B - 1])
    def test_points_out_of_order_across_a_block_edge_are_sorted(self, index):
        # A perfect fit with the last point of a block and the first of the
        # next swapped: only the check across the edge sees the disorder,
        # and read unsorted the gap there would be 3/(2N).
        size = 3 * B
        x = (np.arange(size) + 0.5) / size
        x[[index, index + 1]] = x[[index + 1, index]]
        assert ks_statistic(x, lambda t: t) == pytest.approx(0.5 / size, rel=1e-9)

    def test_a_sorted_sample_is_read_without_a_copy(self):
        law = PowerSemicircle(lam=1.0)
        # A few blocks, where a sorted copy alone would be the sample's size.
        x = np.sort(law.sample(np.random.default_rng(6), 16 * B))
        tracemalloc.start()
        try:
            ks_statistic(x, law.cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    def test_memory_is_the_sorted_copy_plus_a_few_blocks(self):
        # At 4B points the CDF and grid arrays of the whole sample would be
        # about 25 blocks; walked in blocks they are about 8.3 (n = 3).
        law = PowerSemicircle(lam=1.0)
        x = law.sample(np.random.default_rng(6), 4 * B)
        tracemalloc.start()
        try:
            ks_statistic(x, law.cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 10 * 8 * B


class TestTwoSampleKS:
    def test_identical_samples_give_zero(self):
        x = np.array([0.2, 0.4, 0.9])
        assert ks_statistic_two_sample(x, x) == 0.0

    def test_disjoint_samples_give_one(self):
        assert ks_statistic_two_sample(np.array([0.0, 0.1]), np.array([5.0, 6.0])) == 1.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=800)
        y = rng.normal(loc=0.2, size=1200)
        mine = ks_statistic_two_sample(x, y)
        ref = scipy.stats.ks_2samp(x, y, method="asymp").statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic_two_sample(np.array([]), np.array([1.0]))


class TestCriticalValues:
    def test_coefficient_at_one_percent(self):
        """c(0.01) = sqrt(-ln(0.005)/2) = 1.6276... — the 1.628/sqrt(N)
        rule-of-thumb threshold."""
        assert ks_coefficient(0.01) == pytest.approx(1.62762, abs=5e-6)
        assert ks_coefficient(0.01) == pytest.approx(math.sqrt(-0.5 * math.log(0.005)))

    def test_coefficient_at_five_percent(self):
        assert ks_coefficient(0.05) == pytest.approx(1.35810, abs=5e-6)

    def test_one_sample_threshold_scales_like_inverse_root_n(self):
        assert ks_critical_one_sample(0.01, 10_000) == pytest.approx(ks_coefficient(0.01) / 100.0)

    def test_two_sample_threshold(self):
        thr = ks_critical_two_sample(0.05, 400, 400)
        assert thr == pytest.approx(1.35810 * math.sqrt(2.0 / 400.0), abs=1e-5)

    def test_false_positive_rate_is_near_alpha(self):
        """With the null true, rejections at level alpha should occur at
        roughly rate alpha: by the Dvoretzky-Kiefer-Wolfowitz-Massart bound
        the threshold's size is at most alpha at every n, and close to it."""
        rng = np.random.default_rng(42)
        alpha = 0.05
        n = 2000
        rejections = sum(
            ks_statistic(rng.random(n), lambda x: x) >= ks_critical_one_sample(alpha, n)
            for _ in range(400)
        )
        assert 4 <= rejections <= 40  # expect ~20

    def test_smallest_alpha_is_the_smallest_with_a_positive_half(self):
        """5e-324, the smallest subnormal, halves to 0, which has no log: it is
        refused by name, and 1e-323 still takes the log of its half."""
        with pytest.raises(ValueError, match=r"alpha must be at least 1e-323, .* got 5e-324"):
            ks_coefficient(5e-324)
        assert ks_coefficient(1e-323) == math.sqrt(-0.5 * math.log(5e-324))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ks_coefficient(0.0)
        with pytest.raises(ValueError):
            ks_coefficient(1.0)
        with pytest.raises(ValueError):
            ks_critical_one_sample(0.01, 0)
        with pytest.raises(ValueError):
            ks_critical_two_sample(0.01, 5, 0)
