import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from rwa_semicircle.distributions import _NETWORK_MAX, _NETWORKS, Arcsine, PowerSemicircle, check_size, sample_spacings
from rwa_semicircle.gof import ks_critical_one_sample, ks_statistic
from rwa_semicircle.special import betainc

# The sizes n whose exponents (n - 1)/2 the Wallis form is checked at.
THEOREM_SIZES = [2, 3, 4, 5, 8, 9, 16, 33, 64, 65, 200]


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

    @pytest.mark.parametrize("a", [1.0, 2.5, 1e-150])
    @pytest.mark.parametrize("size", [None, 7, (5, 3)])
    def test_sample_is_a_cos_pi_u(self, a, size):
        """The in-place kernel has the bits of the formula read literally."""
        x = Arcsine(a=a).sample(np.random.default_rng(11), size)
        ref = a * np.cos(math.pi * np.random.default_rng(11).random(size))
        assert type(x) is type(ref)
        assert np.shape(x) == np.shape(ref)
        assert np.asarray(x).tobytes() == np.asarray(ref).tobytes()

    def test_sample_scale_is_bitwise(self):
        x1 = Arcsine(a=1.0).sample(np.random.default_rng(5), 1000)
        x3 = Arcsine(a=3.0).sample(np.random.default_rng(5), 1000)
        assert np.array_equal(3.0 * x1, x3)

    def test_is_the_lam_zero_power_semicircle(self):
        law = Arcsine(a=2.0)
        assert isinstance(law, PowerSemicircle) and law.lam == 0.0
        x = np.concatenate([np.linspace(-2.0, 2.0, 401), [-(2 - 1e-7), 2 - 1e-7]])
        ref = scipy.stats.arcsine(loc=-2.0, scale=4.0).cdf(x)
        # SciPy's arcsin(sqrt(.)) is 2.4e-13 off at the last point (mpmath);
        # the Wallis form is within 2e-17 there.
        np.testing.assert_allclose(law.cdf(x), ref, atol=1e-12, rtol=0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Arcsine(a=0.0)
        with pytest.raises(ValueError):
            Arcsine(a=-1.0)
        with pytest.raises(ValueError):
            Arcsine(a=math.inf)
        # A subnormal scale: its draws keep only a few significant bits.
        with pytest.raises(ValueError, match="at least the smallest normal float 2.2250738585072014e-308"):
            Arcsine(a=5e-324)

    @pytest.mark.parametrize(
        "a",
        [10**400, -(10**400), Fraction(10**400, 3), Fraction(1, 10**400), math.nextafter(sys.float_info.min, 0)],
        ids=["int", "negative-int", "fraction", "tiny-fraction", "largest-subnormal"],
    )
    def test_scale_is_checked_as_the_float_the_samplers_use(self, a):
        """An exact scale whose float overflows, underflows to 0 or is
        subnormal is refused at construction, with a short message, rather
        than at the first draw."""
        with pytest.raises(ValueError, match="scale must be positive and finite") as err:
            Arcsine(a=a)
        assert len(str(err.value)) < 200


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

    @pytest.mark.parametrize("x", [0.3, np.float64(0.3), np.array(0.3)], ids=["float", "float64", "0-d-array"])
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_a_scalar_point_gives_a_float(self, lam, x):
        """pdf and cdf share one scalar rule, np.ndim(x) == 0."""
        law = PowerSemicircle(lam=lam, a=2.0)
        assert type(law.pdf(x)) is float
        assert type(law.cdf(x)) is float
        assert law.pdf(x) == law.pdf(np.array([0.3]))[0]

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

    @pytest.mark.parametrize("a", [1.0, 2.5, 1e-150])
    @pytest.mark.parametrize("size", [None, 7, (5, 3)])
    def test_sample_is_a_cos_pi_u(self, a, size):
        """The in-place kernel has the bits of the formula read literally."""
        x = Arcsine(a=a).sample(np.random.default_rng(11), size)
        ref = a * np.cos(math.pi * np.random.default_rng(11).random(size))
        assert type(x) is type(ref)
        assert np.shape(x) == np.shape(ref)
        assert np.asarray(x).tobytes() == np.asarray(ref).tobytes()

    def test_sample_scale_is_bitwise(self):
        x1 = PowerSemicircle(lam=1.0, a=1.0).sample(np.random.default_rng(5), 1000)
        x3 = PowerSemicircle(lam=1.0, a=3.0).sample(np.random.default_rng(5), 1000)
        assert np.array_equal(3.0 * x1, x3)

    def test_sample_at_huge_scale_is_finite(self):
        a = 1e308
        x = PowerSemicircle(lam=1.0, a=a).sample(np.random.default_rng(1), 1000)
        assert np.all(np.isfinite(x))
        assert np.all(np.abs(x) <= a)

    @pytest.mark.parametrize(
        "lam, a, atol",
        [(0.0, 1.0, 1e-13), (2.0, 2.5, 1e-13), (3.5, 0.7, 1e-13)]
        # the theorem's exponents (n - 1)/2, and p = 2 lam = 1000, the last
        # one the Wallis form takes
        + [((n - 1) / 2, 1.0, 1e-14) for n in THEOREM_SIZES]
        + [(500.0, 1.0, 1e-14)],
    )
    def test_cdf_matches_scipy_beta(self, lam, a, atol):
        # the law is the affine image of Beta(lam + 1/2, lam + 1/2); the grid
        # includes both edges and the points 1e-7 inside them
        law = PowerSemicircle(lam=lam, a=a)
        x = a * np.concatenate([np.linspace(-1.0, 1.0, 2001), [-(1 - 1e-7), 1 - 1e-7]])
        ref = scipy.stats.beta(lam + 0.5, lam + 0.5, loc=-a, scale=2 * a).cdf(x)
        np.testing.assert_allclose(law.cdf(x), ref, atol=atol, rtol=0)

    @pytest.mark.parametrize("n", THEOREM_SIZES)
    def test_wallis_cdf_matches_betainc(self, n):
        """The continued fraction is the second, independent CDF route."""
        lam = (n - 1) / 2
        s = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-(1 - 1e-7), 1 - 1e-7]])
        ref = betainc(lam + 0.5, lam + 0.5, 0.5 * (1.0 + s))
        np.testing.assert_allclose(PowerSemicircle(lam=lam, a=2.5).cdf(2.5 * s), ref, atol=5e-14, rtol=0)

    @pytest.mark.parametrize("n", THEOREM_SIZES)
    def test_wallis_cdf_properties(self, n):
        a = 2.5
        law = PowerSemicircle(lam=(n - 1) / 2, a=a)
        assert law.cdf(0.0) == 0.5
        assert (law.cdf(-a), law.cdf(a)) == (0.0, 1.0)
        assert isinstance(law.cdf(0.3), float)
        x = np.linspace(-a, a, 100_001)
        f = law.cdf(x)
        assert np.all(np.diff(f) >= 0.0)
        np.testing.assert_allclose(f + law.cdf(-x), 1.0, atol=1e-15, rtol=0)

    @pytest.mark.parametrize("lam", [1.0, 3.5])
    def test_cdf_at_huge_scale(self, lam):
        # x/a is formed first, so 2a never overflows
        x = np.array([0.0, 5e307, -5e307])
        a = 1e308
        out = PowerSemicircle(lam=lam, a=a).cdf(x)
        np.testing.assert_array_equal(out, PowerSemicircle(lam=lam, a=1.0).cdf(x / a))
        assert out[0] == 0.5

    @pytest.mark.parametrize(
        "law",
        [Arcsine, lambda a: PowerSemicircle(1.0, a), lambda a: PowerSemicircle(3.5, a)],
        ids=["arcsine", "lam=1", "lam=3.5"],
    )
    @pytest.mark.parametrize("a", [1e200, 1e300])
    def test_pdf_at_a_scale_whose_square_overflows(self, law, a):
        # f(x) = f_1(x/a) / a: a is never squared
        x = np.linspace(-0.999, 0.999, 1001)
        np.testing.assert_allclose(a * law(a).pdf(a * x), law(1.0).pdf(x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("state", ["warn", "raise"])
    def test_pdf_overflow_is_the_library_error_alone(self, state):
        # f(0) = C_500 / a, about 12.6 / a, is beyond the float range just
        # above the smallest normal scale; NumPy neither warns nor raises first.
        law = PowerSemicircle(lam=500, a=2.3e-308)
        with np.errstate(over=state), pytest.raises(ArithmeticError, match=r"^density overflows at scale a=2.3e-308$"):
            law.pdf(0.0)

    def test_endpoint_rules(self):
        # lam >= 1/2: the density extends continuously to the edge
        assert PowerSemicircle(lam=1.0, a=1.0).pdf(1.0) == 0.0
        assert PowerSemicircle(lam=0.5, a=1.0).pdf(-1.0) == pytest.approx(0.5)
        # lam = 0: the edge is a pole, not a value
        with pytest.raises(ValueError):
            PowerSemicircle(lam=0.0, a=1.0).pdf(1.0)
        with pytest.raises(ValueError):
            Arcsine(a=2.0).pdf([0.0, 2.0])

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
        # the exponent is p/2 for an integer p in 0..1000
        for lam in (0.3, 1.25, 500.5, 1e6, math.nan):
            with pytest.raises(ValueError):
                PowerSemicircle(lam=lam, a=1.0)
        # beyond the float range too, compared with no float conversion
        for lam in (10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="p/2"):
                PowerSemicircle(lam=lam, a=1.0)

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


def _spacings_by_definition(u: np.ndarray) -> np.ndarray:
    """Sort each row of uniforms, pad it with 0 and 1, take differences."""
    return np.diff(np.sort(u, axis=1), axis=1, prepend=0.0, append=1.0)


class _FixedUniforms:
    """A generator stand-in whose `random(shape)` returns fixed rows."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


def _tie_rows(m: int) -> list[list[float]]:
    """Rows of m uniforms from four values, 0.0 and 1 - 2^-53 among them, so
    that nearly every row repeats a value; plus the rows of all zeros, of
    all 1 - 2^-53 and one in descending order."""
    values = [0.0, 0.25, 0.5, 1.0 - 2.0**-53]
    rows = np.random.default_rng(m).choice(values, size=(64, m)).tolist()
    return rows + [[0.0] * m, [values[-1]] * m, sorted(np.linspace(0.0, values[-1], m), reverse=True)]


class TestSpacings:
    @pytest.mark.parametrize("size", [0, 1, 777])
    @pytest.mark.parametrize("n", [*range(2, _NETWORK_MAX + 4), 64, 1001])
    def test_kernel_matches_the_definition_bit_for_bit(self, n, size):
        got = sample_spacings(n, np.random.default_rng(31), size=size)
        expected = _spacings_by_definition(np.random.default_rng(31).random((size, n - 1)))
        assert got.shape == expected.shape == (size, n)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0], [0.5], [1.0 - 2.0**-53]],
            [[0.5, 0.5], [0.0, 0.3], [0.3, 0.0], [0.0, 0.0], [0.7, 0.2], [0.2, 0.7]],
            *(_tie_rows(m) for m in range(3, _NETWORK_MAX + 1)),
        ],
        ids=[f"n{m + 1}" for m in range(1, _NETWORK_MAX + 1)],
    )
    def test_ties_and_zeros_match_the_definition(self, rows):
        u = np.array(rows)
        got = sample_spacings(u.shape[1] + 1, _FixedUniforms(u), size=len(u))
        assert got.tobytes() == _spacings_by_definition(u).tobytes()

    @pytest.mark.parametrize("m", range(1, _NETWORK_MAX + 1))
    def test_each_network_sorts_every_row_of_zeros_and_ones(self, m):
        # The 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4): a comparator
        # network that sorts all 2^m rows of 0s and 1s sorts every row of m.
        rows = np.arange(2**m)[:, None] >> np.arange(m) & 1
        columns = list(rows.T)
        for i, j in _NETWORKS[m]:
            assert 0 <= i < j < m
            columns[i], columns[j] = np.minimum(columns[i], columns[j]), np.maximum(columns[i], columns[j])
        assert np.array_equal(np.array(columns).T, np.sort(rows, axis=1))

    def test_rows_live_on_the_simplex(self):
        w = sample_spacings(5, np.random.default_rng(42), size=2000)
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
        """The sorted-uniform gaps and NumPy's Dirichlet(1, ..., 1) sampler
        are two constructions of the same flat Dirichlet law; their
        first-coordinate samples must pass a two-sample KS test."""
        from twosample import ks_critical_two_sample, ks_statistic_two_sample

        rng = np.random.default_rng(42)
        w1 = sample_spacings(5, rng, size=100_000)
        w2 = rng.dirichlet(np.ones(5), size=100_000)
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
        for n in (0, 1):
            with pytest.raises(ValueError, match=rf"need n >= 2 spacings, got {n}"):
                sample_spacings(n, rng)
        with pytest.raises(ValueError):
            sample_spacings(3, rng, size=-1)

    @pytest.mark.parametrize("size", [2.5, "3"])
    def test_size_is_read_as_an_exact_int_before_any_draw(self, size):
        # As check_size reads a dimension: no float is truncated, no string parsed.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            sample_spacings(3, rng, size=size)
        assert rng.bit_generator.state == state


class TestSizeRule:
    def test_bound_is_numpy_array_limit(self):
        limit = np.iinfo(np.intp).max
        check_size(limit // 8)
        check_size((limit // 16, 2))
        with pytest.raises(ValueError, match=rf"count={limit // 8 + 1} draws of n=1 values"):
            check_size(limit // 8 + 1)
        with pytest.raises(ValueError, match=rf"count=2 draws of n={limit // 8} values"):
            check_size((2, limit // 8))

    @pytest.mark.parametrize("law", [Arcsine(), PowerSemicircle(lam=1)])
    def test_every_dimension_is_reported_as_an_exact_int(self, law):
        # A shape of a small and a huge int is not read through a float array.
        message = (
            f"count=1 draws of n={10**19} values are {8 * 10**19} bytes, "
            f"beyond NumPy's array limit of {np.iinfo(np.intp).max}"
        )
        with pytest.raises(ValueError) as exc:
            law.sample(np.random.default_rng(0), (1, 10**19))
        assert str(exc.value) == message

    @pytest.mark.parametrize("law", [Arcsine(), PowerSemicircle(lam=1.5)])
    @pytest.mark.parametrize("size", [(), 0, (2, 3, 4), np.int64(5)])
    def test_samplers_still_take_every_size_form(self, law, size):
        assert np.shape(law.sample(np.random.default_rng(0), size)) == np.shape(np.empty(size))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: Arcsine().sample(rng, 2**62),
            lambda rng: Arcsine().sample(rng, (2**40, 2**30)),
            lambda rng: PowerSemicircle(lam=1.0).sample(rng, 2**62),
            lambda rng: sample_spacings(10**10, rng, size=10**10),
            lambda rng: sample_spacings(3, rng, size=2**62),
        ],
    )
    def test_samplers_refuse_before_drawing(self, draw):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"count=\d+ draws of n=\d+ values"):
            draw(rng)
        assert rng.bit_generator.state == state


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


def _exact_even_cdf(n: int, x: float) -> Fraction:
    """The unit CDF of exponent (n - 1)/2 at the float x, exactly, for even n.

    The density is proportional to (1 - s^2)^m with m = (n - 2)/2, so
    F(x) = sum_j C(m, j) (-1)^j (x^(2j+1) + 1) / (2j + 1), divided by the
    same sum at x = 1: a polynomial with rational coefficients."""
    m = (n - 2) // 2
    terms = [Fraction((-1) ** j * math.comb(m, j), 2 * j + 1) for j in range(m + 1)]
    x = Fraction(x)
    return sum(t * (x ** (2 * j + 1) + 1) for j, t in enumerate(terms)) / (2 * sum(terms))


class TestExactRationalCdf:
    # Errors of the float CDF against the exact one, measured on this grid:
    # absolute at most 3.9e-16; relative 1.1e-16 at n = 2, 1.3e-13 at n = 4,
    # 2.1e-13 at n = 8 and 2.7e-10 at n = 64, each in the lower tail, where
    # from n = 4 on the Wallis head subtracts terms much larger than F.
    ABS_BOUND = 4 * 2.0**-53
    REL_BOUND = {2: 2 * 2.0**-53, 4: 2.5e-13, 8: 4e-13, 64: 5e-10}

    @pytest.mark.parametrize("n", sorted(REL_BOUND))
    def test_wallis_cdf_against_the_exact_polynomial(self, n):
        xs = np.linspace(-0.999, 0.999, 41)
        got = PowerSemicircle(lam=Fraction(n - 1, 2)).cdf(xs)
        for x, value in zip(xs.tolist(), got.tolist()):
            exact = _exact_even_cdf(n, x)
            error = abs(Fraction(value) - exact)
            assert error <= self.ABS_BOUND, (x, float(error))
            assert error <= self.REL_BOUND[n] * exact, (x, float(error / exact))


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
