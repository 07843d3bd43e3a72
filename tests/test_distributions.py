import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from rwa_semicircle.distributions import Arcsine, PowerSemicircle, sample_spacings
from rwa_semicircle.gof import ks_critical_one_sample, ks_statistic


class TestArcsine:
    def test_pdf_matches_scipy(self):
        x = np.linspace(-0.99, 0.99, 401)
        mine = Arcsine(a=1.0).pdf(x)
        # scipy's arcsine lives on [0, 1]; shift/scale to (-1, 1)
        ref = scipy.stats.arcsine(loc=-1, scale=2).pdf(x)
        np.testing.assert_allclose(mine, ref, rtol=1e-12)

    def test_pdf_diverges_at_endpoints(self):
        with pytest.raises(ValueError):
            Arcsine(a=1.0).pdf(1.0)
        with pytest.raises(ValueError):
            Arcsine(a=2.0).pdf(np.array([0.0, -2.0]))

    def test_sampling_distribution(self):
        rng = np.random.default_rng(42)
        x = Arcsine(a=1.0).sample(rng, 100_000)
        d = ks_statistic(x, scipy.stats.arcsine(loc=-1, scale=2).cdf)
        assert d < ks_critical_one_sample(0.01, x.size)

    def test_sample_scale_is_bitwise(self):
        x1 = Arcsine(a=1.0).sample(np.random.default_rng(5), 1000)
        x3 = Arcsine(a=3.0).sample(np.random.default_rng(5), 1000)
        assert np.array_equal(3.0 * x1, x3)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Arcsine(a=0.0)
        with pytest.raises(ValueError):
            Arcsine(a=-1.0)
        with pytest.raises(ValueError):
            Arcsine(a=math.inf)


class TestPowerSemicircle:
    def test_wigner_semicircle_density(self):
        """lam = 1 is the classical semicircle 2 sqrt(a^2 - x^2) / (pi a^2)."""
        x = np.linspace(-0.9, 0.9, 181)
        law = PowerSemicircle(lam=1.0, a=1.0)
        np.testing.assert_allclose(law.pdf(x), 2.0 / math.pi * np.sqrt(1 - x * x), rtol=1e-13)
        np.testing.assert_allclose(law.pdf(1.0), 0.0, atol=1e-15)

    def test_uniform_case(self):
        law = PowerSemicircle(lam=0.5, a=2.0)
        x = np.linspace(-2.0, 2.0, 101)
        np.testing.assert_allclose(law.pdf(x), 0.25, rtol=1e-13)
        np.testing.assert_allclose(law.cdf(x), (x + 2.0) / 4.0, atol=1e-13)

    def test_lam_zero_is_arcsine(self):
        x = np.linspace(-0.995, 0.995, 399)
        np.testing.assert_allclose(
            PowerSemicircle(lam=0.0, a=1.0).pdf(x), Arcsine(a=1.0).pdf(x), rtol=1e-12
        )

    def test_density_integrates_to_one(self):
        """Quadrature over the substitution x = a sin(t) removes the edge
        singularity/zero, so plain Gauss quadrature nails the integral."""
        for lam in (0.0, 0.5, 1.0, 1.5, 2.0, 3.5):
            for a in (1.0, 2.5):
                law = PowerSemicircle(lam=lam, a=a)

                def integrand(t):
                    x = a * np.sin(t)
                    return law.pdf(x) * a * np.cos(t)

                total, err = scipy.integrate.quad(integrand, -math.pi / 2, math.pi / 2)
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_sample_scale_is_bitwise(self):
        x1 = PowerSemicircle(lam=1.0, a=1.0).sample(np.random.default_rng(5), 1000)
        x3 = PowerSemicircle(lam=1.0, a=3.0).sample(np.random.default_rng(5), 1000)
        assert np.array_equal(3.0 * x1, x3)

    def test_sample_at_huge_scale_is_finite(self):
        a = 1e308
        x = PowerSemicircle(lam=1.0, a=a).sample(np.random.default_rng(1), 1000)
        assert np.all(np.isfinite(x))
        assert np.all(np.abs(x) <= a)

    def test_cdf_matches_scipy_beta(self):
        # the law is the affine image of Beta(lam + 1/2, lam + 1/2)
        for lam, a in [(0.0, 1.0), (1.0, 1.0), (2.0, 2.5), (3.5, 0.7)]:
            law = PowerSemicircle(lam=lam, a=a)
            x = np.linspace(-a, a, 201)
            ref = scipy.stats.beta(lam + 0.5, lam + 0.5, loc=-a, scale=2 * a).cdf(x)
            np.testing.assert_allclose(law.cdf(x), ref, atol=1e-13)

    def test_endpoint_rules(self):
        # lam >= 1/2: the density extends continuously to the edge
        assert PowerSemicircle(lam=1.0, a=1.0).pdf(1.0) == 0.0
        assert PowerSemicircle(lam=0.5, a=1.0).pdf(-1.0) == pytest.approx(0.5)
        # lam < 1/2: the edge is a pole, not a value
        with pytest.raises(ValueError):
            PowerSemicircle(lam=0.0, a=1.0).pdf(1.0)
        with pytest.raises(ValueError):
            PowerSemicircle(lam=0.25, a=2.0).pdf(np.array([0.0, 2.0]))

    def test_outside_support_rejected(self):
        with pytest.raises(ValueError):
            PowerSemicircle(lam=1.0, a=1.0).pdf(1.0001)
        with pytest.raises(ValueError):
            PowerSemicircle(lam=1.0, a=1.0).cdf(-1.0001)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerSemicircle(lam=-0.5, a=1.0)
        with pytest.raises(ValueError):
            PowerSemicircle(lam=1.0, a=0.0)
        with pytest.raises(ValueError):
            PowerSemicircle(lam=math.inf, a=1.0)

    @pytest.mark.parametrize("lam,a", [(0.0, 1.0), (0.5, 1.0), (1.0, 2.5), (2.0, 1.0)])
    def test_sampling_distribution(self, lam, a):
        rng = np.random.default_rng(42)
        law = PowerSemicircle(lam=lam, a=a)
        x = law.sample(rng, 100_000)
        assert np.max(np.abs(x)) <= a
        d = ks_statistic(x, law.cdf)
        assert d < ks_critical_one_sample(0.01, x.size)

    def test_sample_moments(self):
        rng = np.random.default_rng(7)
        x = PowerSemicircle(lam=1.0, a=1.0).sample(rng, 200_000)
        # Wigner: E X^2 = 1/4, E X^4 = 1/8
        assert float(np.mean(x**2)) == pytest.approx(0.25, abs=0.002)
        assert float(np.mean(x**4)) == pytest.approx(0.125, abs=0.002)


class TestSpacings:
    def test_rows_live_on_the_simplex(self):
        rng = np.random.default_rng(42)
        for method in ("sorted-uniforms", "exponential"):
            w = sample_spacings(5, rng, size=2000, method=method)
            assert w.shape == (2000, 5)
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_single_draw_shape(self):
        w = sample_spacings(3, np.random.default_rng(0))
        assert w.shape == (3,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_weight_is_one_over_n(self):
        rng = np.random.default_rng(42)
        w = sample_spacings(4, rng, size=100_000)
        np.testing.assert_allclose(w.mean(axis=0), 0.25, atol=0.005)

    def test_methods_agree_in_distribution(self):
        """The sorted-uniform gaps and the normalized exponentials are two
        constructions of the same flat Dirichlet law; their first-coordinate
        samples must pass a two-sample KS test."""
        from twosample import ks_critical_two_sample, ks_statistic_two_sample

        rng = np.random.default_rng(42)
        w1 = sample_spacings(5, rng, size=100_000, method="sorted-uniforms")
        w2 = sample_spacings(5, rng, size=100_000, method="exponential")
        d = ks_statistic_two_sample(w1[:, 0], w2[:, 0])
        assert d < ks_critical_two_sample(0.01, 100_000, 100_000)

    def test_first_weight_marginal_is_beta(self):
        # R_1 ~ Beta(1, n-1), i.e. P(R_1 <= t) = 1 - (1-t)^(n-1)
        rng = np.random.default_rng(42)
        w = sample_spacings(4, rng, size=100_000)
        d = ks_statistic(w[:, 0], lambda t: 1.0 - (1.0 - t) ** 3)
        assert d < ks_critical_one_sample(0.01, 100_000)

    def test_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_spacings(0, rng)
        with pytest.raises(ValueError):
            sample_spacings(3, rng, method="bogus")
        with pytest.raises(ValueError):
            sample_spacings(3, rng, size=-1)


class TestExactPointValues:
    def test_arcsine_pdf_known_points(self):
        assert Arcsine(a=1.0).pdf(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert Arcsine(a=1.0).pdf(0.6) == pytest.approx(1.0 / (math.pi * 0.8), rel=1e-12)
        assert Arcsine(a=2.0).pdf(0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_psc_cdf_known_points(self):
        # midpoint is exactly 1/2 for every member (symmetric law)
        for lam in (0.0, 0.5, 1.0, 3.5):
            assert PowerSemicircle(lam=lam, a=1.0).cdf(0.0) == 0.5
        # the uniform member: F(x) = (x + 1)/2
        assert PowerSemicircle(lam=0.5, a=1.0).cdf(0.5) == pytest.approx(0.75, abs=1e-14)
        # edge of support closes the mass
        assert PowerSemicircle(lam=1.0, a=1.0).cdf(1.0) == 1.0
        assert PowerSemicircle(lam=1.0, a=1.0).cdf(-1.0) == 0.0


class TestCdfPdfConsistency:
    def test_centered_difference_of_cdf_recovers_pdf(self):
        """dF/dx = f, checked by a centered difference on an interior grid."""
        h = 1e-5
        for lam in (0.0, 0.5, 1.0, 2.0, 3.5):
            for a in (1.0, 2.5):
                law = PowerSemicircle(lam=lam, a=a)
                x = np.linspace(-0.9 * a, 0.9 * a, 201)
                slope = (law.cdf(x + h) - law.cdf(x - h)) / (2.0 * h)
                assert np.max(np.abs(slope - law.pdf(x))) < 1e-6


class TestLargeSampleMoments:
    def test_arcsine_sample_mean_is_centered(self):
        rng = np.random.default_rng(42)
        x = Arcsine(a=1.0).sample(rng, 1_000_000)
        se = math.sqrt(0.5 / x.size)  # Var X = a^2 / 2
        assert abs(float(np.mean(x))) < 4.0 * se

    def test_first_spacing_mean_n4(self):
        rng = np.random.default_rng(42)
        w = sample_spacings(4, rng, size=1_000_000)
        # E R_1 = 1/4, Var R_1 = 3/80
        se = math.sqrt((3.0 / 80.0) / w.shape[0])
        assert abs(float(np.mean(w[:, 0])) - 0.25) < 4.0 * se

    def test_first_spacing_square_mean_n3(self):
        rng = np.random.default_rng(42)
        w = sample_spacings(3, rng, size=1_000_000)
        # E R_1^2 = 1/6, Var R_1^2 = 1/15 - 1/36 = 7/180
        se = math.sqrt((7.0 / 180.0) / w.shape[0])
        assert abs(float(np.mean(w[:, 0] ** 2)) - 1.0 / 6.0) < 4.0 * se
