import numpy as np
import pytest
import scipy.special as sp

from rwa_semicircle.special import betainc


class TestBetaincAgainstScipy:
    """scipy.special.betainc is the independent reference implementation."""

    SHAPES = [(0.5, 0.5), (1.0, 1.0), (1.5, 1.5), (4.5, 4.5), (2.0, 3.5), (0.75, 4.0), (6.0, 0.9)]

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_dense_grid(self, a, b):
        x = np.linspace(0.0, 1.0, 2001)
        np.testing.assert_allclose(betainc(a, b, x), sp.betainc(a, b, x), atol=5e-14, rtol=0)

    def test_random_points(self):
        rng = np.random.default_rng(42)
        x = rng.random(20_000)
        for a, b in self.SHAPES:
            np.testing.assert_allclose(betainc(a, b, x), sp.betainc(a, b, x), atol=5e-14, rtol=0)


class TestBetaincStructure:
    def test_endpoints_exact(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_midpoint_exact(self):
        """For a == b the distribution is symmetric about 1/2, and the CDF
        there must be exactly one half (not just close)."""
        for s in (0.5, 1.0, 1.5, 2.0, 7.25):
            assert betainc(s, s, 0.5) == 0.5

    def test_reflection_identity(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        x = np.linspace(0.01, 0.99, 99)
        total = betainc(2.5, 1.5, x) + betainc(1.5, 2.5, 1.0 - x)
        np.testing.assert_allclose(total, 1.0, atol=1e-14)

    def test_monotone_nondecreasing(self):
        x = np.linspace(0.0, 1.0, 513)
        y = betainc(3.0, 0.5, x)
        assert np.all(np.diff(y) >= 0)

    def test_scalar_in_scalar_out(self):
        out = betainc(1.5, 1.5, 0.25)
        assert isinstance(out, float)

    def test_array_in_array_out(self):
        out = betainc(1.5, 1.5, np.array([0.25, 0.75]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            betainc(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            betainc(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            betainc(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            betainc(1.0, -2.0, 0.5)

    def test_uniform_case_is_identity(self):
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(betainc(1.0, 1.0, x), x, atol=1e-15)

    def test_unconverged_fraction_raises(self, monkeypatch):
        from rwa_semicircle import special

        monkeypatch.setattr(special, "_MAXIT", 1)
        with pytest.raises(ArithmeticError):
            betainc(4.0, 4.0, np.array([0.2, 0.3]))
