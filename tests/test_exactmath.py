import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from rwa_semicircle.exactmath import (
    HalfInteger,
    composition_count,
    compositions,
    multinomial,
    rising_gamma_ratio,
)


class TestHalfInteger:
    def test_parse_accepts_fraction_integer_and_decimal_forms(self):
        assert HalfInteger.parse("1/2").twice_value == 1
        assert HalfInteger.parse("2").twice_value == 4
        assert HalfInteger.parse("2.5").twice_value == 5
        assert HalfInteger.parse(" 3/2 ").twice_value == 3

    @pytest.mark.parametrize("bad", ["0", "-1/2", "1/3", "0.75", "abc", ""])
    def test_parse_rejects_non_half_integers(self, bad):
        with pytest.raises(ValueError):
            HalfInteger.parse(bad)

    def test_value_and_str(self):
        assert str(HalfInteger(3)) == "3/2"
        assert str(HalfInteger(4)) == "2"

    def test_reads_a_numpy_int_as_its_int(self):
        value = HalfInteger(np.int64(3))
        assert type(value.twice_value) is int and value == HalfInteger(3) and str(value) == "3/2"

    def test_rejects_below_one_half(self):
        with pytest.raises(ValueError):
            HalfInteger(0)
        with pytest.raises(TypeError):
            HalfInteger(1.5)

    @pytest.mark.parametrize(
        "twice, value", [(0, "0"), (-6, "-3"), (-1, "-1/2"), (-2 * 10**30, "about -10^30.0")]
    )
    def test_refusal_names_the_value_as_a_reduced_rational(self, twice, value):
        with pytest.raises(ValueError, match=rf"^half-integer must be >= 1/2, got {re.escape(value)}$"):
            HalfInteger(twice)


class TestRisingGammaRatio:
    """Gamma(q+m)/Gamma(q) must be an exact rational for half-integer q."""

    def test_known_half_integer_values(self):
        # (1/2)(3/2) = 3/4
        assert rising_gamma_ratio(Fraction(1, 2), 2) == Fraction(3, 4)
        # (3/2)(5/2)(7/2) = 105/8
        assert rising_gamma_ratio(Fraction(3, 2), 3) == Fraction(105, 8)

    def test_integer_arguments_give_factorial_ratios(self):
        # Gamma(n+m)/Gamma(n) = (n+m-1)!/(n-1)!
        assert rising_gamma_ratio(Fraction(2, 2), 4) == Fraction(math.factorial(4))
        assert rising_gamma_ratio(Fraction(6, 2), 3) == Fraction(3 * 4 * 5)

    def test_empty_product_is_one(self):
        assert rising_gamma_ratio(Fraction(7, 2), 0) == 1

    def test_recurrence(self):
        """q^(m+1) = q^(m) * (q + m), the defining recurrence."""
        q = Fraction(5, 2)
        for m in range(10):
            assert rising_gamma_ratio(q, m + 1) == rising_gamma_ratio(q, m) * (q + m)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            rising_gamma_ratio(Fraction(1, 2), -1)


class TestMultinomial:
    @pytest.mark.parametrize(
        "r,parts,expected",
        [
            (0, (0,), 1),
            (4, (4,), 1),
            (4, (2, 2), 6),
            (4, (2, 1, 1), 12),
            (3, (1, 1, 1), 6),
            (5, (0, 5, 0), 1),
        ],
    )
    def test_values(self, r, parts, expected):
        assert multinomial(r, parts) == expected

    def test_matches_factorial_definition(self):
        parts = (3, 0, 2, 4)
        r = sum(parts)
        direct = math.factorial(r)
        for p in parts:
            direct //= math.factorial(p)
        assert multinomial(r, parts) == direct

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))

    def test_negative_part_rejected(self):
        for r, parts in ((1, (2, -1)), (2, (3, -1))):
            with pytest.raises(ValueError, match=r"^composition parts must be >= 0, got -1$"):
                multinomial(r, parts)


class TestCompositions:
    def test_order_is_lexicographically_decreasing(self):
        assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(compositions(3, 3)) == [
            (3, 0, 0),
            (2, 1, 0),
            (2, 0, 1),
            (1, 2, 0),
            (1, 1, 1),
            (1, 0, 2),
            (0, 3, 0),
            (0, 2, 1),
            (0, 1, 2),
            (0, 0, 3),
        ]

    def test_single_part(self):
        assert list(compositions(5, 1)) == [(5,)]

    def test_zero_total(self):
        assert list(compositions(0, 4)) == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("r,n", [(0, 1), (5, 2), (4, 3), (6, 4), (3, 6)])
    def test_count_matches_stars_and_bars(self, r, n):
        seen = list(compositions(r, n))
        assert len(seen) == composition_count(r, n) == math.comb(r + n - 1, n - 1)
        # every tuple really is a composition, and none repeat
        assert all(len(c) == n and sum(c) == r and min(c) >= 0 for c in seen)
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("r", range(0, 8))
    def test_matches_filtered_product_reference(self, r, n):
        reference = sorted(
            (c for c in itertools.product(range(r + 1), repeat=n) if sum(c) == r),
            reverse=True,
        )
        assert list(compositions(r, n)) == reference

    def test_stream_is_lazy(self):
        # C(10^6 + 49, 49) compositions: only a lazy stream returns at once
        assert next(compositions(10**6, 50)) == (10**6,) + (0,) * 49

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(compositions(3, 0))
        with pytest.raises(ValueError):
            list(compositions(-1, 2))
        with pytest.raises(ValueError):
            composition_count(-1, 2)


class TestAlgebraicInvariants:
    def test_rising_ratio_splits_multiplicatively(self):
        # prod over m1+m2 factors = (prod over first m1) * (prod shifted by m1)
        for twice in range(1, 8):
            q = Fraction(twice, 2)
            for m1 in range(0, 5):
                for m2 in range(0, 5):
                    whole = rising_gamma_ratio(q, m1 + m2)
                    split = rising_gamma_ratio(q, m1) * rising_gamma_ratio(q + m1, m2)
                    assert whole == split

    def test_rising_ratio_split_holds_for_general_rationals(self):
        for q in (Fraction(1, 3), Fraction(7, 5), Fraction(9, 2)):
            for m1 in range(0, 4):
                for m2 in range(0, 4):
                    assert rising_gamma_ratio(q, m1 + m2) == rising_gamma_ratio(
                        q, m1
                    ) * rising_gamma_ratio(q + m1, m2)

    def test_multinomial_coefficients_sum_to_power(self):
        # multinomial theorem at x_1 = ... = x_n = 1
        for n in range(1, 6):
            for r in range(0, 8):
                total = sum(multinomial(r, c) for c in compositions(r, n))
                assert total == n**r
