import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rwa_semicircle import moments
from rwa_semicircle.exactmath import HalfInteger, compositions, multinomial, rising_gamma_ratio
from rwa_semicircle.moments import (
    BAND_Z,
    MomentReport,
    empirical_moment,
    exact_scale,
    lemma_lhs,
    lemma_rhs,
    lemma_rows,
    moment_rows,
    oracle_term_count,
    psc_moment,
    rwa_moment_closed,
    rwa_moment_oracle,
)
from rwa_semicircle.render import decimal_str
from rwa_semicircle.rwa import RwaSpec, rwa_batch

H = HalfInteger


class TestLemma:
    """The gamma-ratio composition identity, exercised on hand-checked cases."""

    def test_two_flat_parameters_r_one(self):
        # a = (1, 1), r = 1: terms 1*1 + 1*1 = 2; rhs Gamma(3)/Gamma(2) = 2
        assert lemma_lhs((H(2), H(2)), 1) == Fraction(2)
        assert lemma_rhs((H(2), H(2)), 1) == Fraction(2)

    def test_two_halves_r_one(self):
        # a = (1/2, 1/2): 1*(1/2) + 1*(1/2) = 1 = Gamma(2)/Gamma(1)
        assert lemma_lhs((H(1), H(1)), 1) == lemma_rhs((H(1), H(1)), 1) == 1

    def test_three_halves_r_two(self):
        # worked by hand: the six compositions sum to 15/4 = (3/2)(5/2)
        params = (H(1), H(1), H(1))
        assert lemma_lhs(params, 2) == Fraction(15, 4)
        assert lemma_rhs(params, 2) == Fraction(15, 4)

    def test_r_zero_is_trivially_one(self):
        assert lemma_lhs((H(1), H(4)), 0) == lemma_rhs((H(1), H(4)), 0) == 1

    def test_single_parameter_collapses(self):
        # one part: both sides are the same rising factorial by definition
        assert lemma_lhs((H(3),), 5) == lemma_rhs((H(3),), 5)

    @pytest.mark.parametrize("r", range(0, 7))
    def test_mixed_parameters(self, r):
        params = (H(1), H(2), H(3), H(5))
        assert lemma_lhs(params, r) == lemma_rhs(params, r)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_kernel_matches_the_literal_sum_on_every_small_list(self, length):
        """Every list of `length` parameters 2q <= 7, at every r <= 6."""
        for twice in itertools.product(range(1, 8), repeat=length):
            params = tuple(map(H, twice))
            for r in range(7):
                assert lemma_lhs(params, r) == _literal_lemma_sum(params, r), (twice, r)

    def test_kernel_matches_the_literal_sum_on_seeded_lists(self):
        """50 seeded lists of up to 6 parameters 2q <= 41, each at one r <= 12."""
        rng = random.Random(2512)
        for _ in range(50):
            params = tuple(H(rng.randint(1, 41)) for _ in range(rng.randint(1, 6)))
            r = rng.randint(0, 12)
            assert lemma_lhs(params, r) == _literal_lemma_sum(params, r), (params, r)


def _literal_lemma_sum(params, r: int) -> Fraction:
    """The lemma's composition sum as written, term by term in `Fraction`s:
    multinomial(r; i) prod_j Gamma(a_j + i_j)/Gamma(a_j)."""
    total = Fraction(0)
    for comp in compositions(r, len(params)):
        term = Fraction(multinomial(r, comp))
        for a, i in zip(params, comp):
            term *= rising_gamma_ratio(Fraction(a.twice_value, 2), i)
        total += term
    return total


class TestClosedForm:
    def test_known_values(self):
        assert rwa_moment_closed(2, 1) == Fraction(1, 3)
        assert rwa_moment_closed(3, 1) == Fraction(1, 4)
        assert rwa_moment_closed(3, 2) == Fraction(1, 8)
        assert rwa_moment_closed(3, 3) == Fraction(5, 64)

    def test_zeroth_moment_is_one(self):
        for n in range(2, 9):
            assert rwa_moment_closed(n, 0) == 1

    def test_variance_shrinks_like_two_over_n_plus_one(self):
        # E S^2 = 1 / (n + 1) exactly
        for n in range(2, 12):
            assert rwa_moment_closed(n, 1) == Fraction(1, n + 1)

    def test_monotone_decreasing_in_k(self):
        seq = [rwa_moment_closed(4, k) for k in range(8)]
        assert all(seq[i] > seq[i + 1] for i in range(7))

    def test_matches_power_semicircle_moments(self):
        """The whole point: the average of n arcsine variables has the
        moments of the power semicircle with exponent (n-1)/2."""
        for n in range(2, 9):
            lam = Fraction(n - 1, 2)
            for k in range(0, 9):
                assert rwa_moment_closed(n, k) == psc_moment(lam, k)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rwa_moment_closed(1, 2)
        with pytest.raises(ValueError):
            rwa_moment_closed(3, -1)
        # An exponent beyond the float range meets the same rule.
        for n in (1002, 10**400):
            with pytest.raises(ValueError, match="p/2"):
                rwa_moment_closed(n, 0)

    def test_a_fault_in_the_mixing_constant_fails_the_check(self, monkeypatch):
        mixing = moments._mixing
        monkeypatch.setattr(moments, "_mixing", lambda n, k: (mixing(n, k)[0] + 1, mixing(n, k)[1]))
        with pytest.raises(ArithmeticError, match=r"^internal moment forms disagree at n=3, k=2: 13/96 vs 1/8$"):
            rwa_moment_closed(3, 2)


def _convolution_moments(n_max: int, k_max: int) -> dict[int, list[Fraction]]:
    """E S^(2k) for n = 2..n_max and k = 0..k_max by power series.

    multinomial(r; i) times the flat Dirichlet moment of i is the constant
    r!(n-1)!/(r+n-1)! for every composition i of r -- the cancellation the
    oracle's kernel is built on -- so with r = 2k
    E S^r = r!(n-1)!/(r+n-1)! 4^-k [u^k] (sum_j C(2j, j) u^j)^n.
    The power is built by one truncated convolution per extra factor.  It is
    the oracle's sum regrouped by degree, so it adds reach (n up to 64, k up
    to 40), not independence; `_factor_by_factor_oracle` is the reference
    that does not assume the cancellation.
    """
    series = [math.comb(2 * j, j) for j in range(k_max + 1)]
    power = [1] + [0] * k_max
    out = {}
    for n in range(1, n_max + 1):
        power = [sum(power[i] * series[d - i] for i in range(d + 1)) for d in range(k_max + 1)]
        if n >= 2:
            out[n] = [
                Fraction(
                    math.factorial(2 * k) * math.factorial(n - 1) * power[k],
                    math.factorial(2 * k + n - 1) * 4**k,
                )
                for k in range(k_max + 1)
            ]
    return out


def _factor_by_factor_oracle(n: int, r: int, walk) -> Fraction:
    """E S^r summed over the compositions in `walk` with each factor a
    `Fraction` and nothing cancelled: multinomial(r; i) times the flat
    Dirichlet moment (n-1)! prod i_j! / (r+n-1)! times the arcsine moments
    prod C(i_j, i_j/2) / 2^(i_j), zero when a part is odd.  `walk` may leave
    out compositions with an odd part, whose terms are zero."""
    central = [math.comb(i, i // 2) if i % 2 == 0 else 0 for i in range(r + 1)]
    total = Fraction(0)
    for comp in walk:
        dirichlet = Fraction(math.factorial(n - 1) * math.prod(map(math.factorial, comp)), math.factorial(r + n - 1))
        arcsine = Fraction(math.prod(map(central.__getitem__, comp)), 2**r)
        total += multinomial(r, comp) * dirichlet * arcsine
    return total


class TestOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_agrees_with_closed_form(self, n, k):
        assert rwa_moment_oracle(n, 2 * k) == rwa_moment_closed(n, k)

    @pytest.mark.parametrize("r", [1, 3, 5, 7])
    def test_odd_moments_vanish(self, r):
        assert rwa_moment_oracle(3, r) == 0

    def test_literal_parity_verifies_rather_than_assumes(self):
        """The literal route sums over every composition with an explicit
        parity factor; it must reproduce both the even values and the odd
        zeros."""
        for n in (2, 3, 4):
            for r in range(0, 9):
                literal = rwa_moment_oracle(n, r, literal_parity=True)
                fast = rwa_moment_oracle(n, r)
                assert literal == fast

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("r", range(13))
    def test_kernel_matches_the_factor_by_factor_expansion(self, n, r):
        """The cancelled kernel against every composition of r, factor by factor."""
        reference = _factor_by_factor_oracle(n, r, compositions(r, n))
        for literal_parity in (False, True):
            assert rwa_moment_oracle(n, r, literal_parity=literal_parity) == reference

    @pytest.mark.parametrize("r", [0, 2, 4, 6])
    def test_wide_kernel_matches_the_factor_by_factor_expansion(self, r):
        """n = 64 over the doubled compositions of r/2: the other terms have
        an odd part, so they are zero, and walking all of them at r = 6 would
        take 119,877,472 compositions."""
        doubled = (tuple(2 * h for h in half) for half in compositions(r // 2, 64))
        assert rwa_moment_oracle(64, r) == _factor_by_factor_oracle(64, r, doubled)

    def test_term_count(self):
        assert oracle_term_count(3, 4) == 6  # compositions of 2 into 3 parts
        assert oracle_term_count(3, 5) == 0  # odd: fast path skips entirely
        assert oracle_term_count(3, 5, literal_parity=True) == math.comb(7, 2)

    def test_multinomial_times_flat_dirichlet_is_constant(self):
        """The oracle's kernel, and the convolution route's: every
        composition of r carries the same weight r!(n-1)!/(r+n-1)!, so the
        oracle applies it once and walks only the arcsine central binomials.
        The flat Dirichlet moment E prod V_j^(i_j) is (n-1)! prod i_j! /
        (r+n-1)!."""
        for n in range(2, 6):
            for r in range(0, 7):
                weights = {
                    multinomial(r, c)
                    * Fraction(
                        math.factorial(n - 1) * math.prod(map(math.factorial, c)),
                        math.factorial(r + n - 1),
                    )
                    for c in compositions(r, n)
                }
                expected = Fraction(
                    math.factorial(r) * math.factorial(n - 1), math.factorial(r + n - 1)
                )
                assert weights == {expected}

    def test_convolution_route_matches_closed_form(self):
        moments = _convolution_moments(64, 40)
        for n in range(2, 41):
            assert moments[n] == [rwa_moment_closed(n, k) for k in range(41)]
        assert moments[64][:4] == [rwa_moment_closed(64, k) for k in range(4)]

    def test_n_two_reduces_to_uniform_moments(self):
        # at n=2 the average is uniform on (-1,1), whose even moments are
        # 1/(2k+1); the oracle has to find that through the expansion
        for k in range(6):
            assert rwa_moment_oracle(2, 2 * k) == Fraction(1, 2 * k + 1)


# Sizes at which repeated squaring splits a count differently: 1 (a list of
# one), counts below 4 (no squaring), powers of two and their neighbours.
_SHAPES = (1, 2, 3, 4, 7, 8, 9, 16, 17, 63, 64, 65)


def _small_r(n: int) -> int:
    """The highest order at which walking every composition into n parts
    stays quick."""
    return 6 if n <= 9 else 3 if n <= 17 else 2


class TestSeriesKernel:
    """The degree-r series coefficient against the walks it replaced."""

    @pytest.mark.parametrize("n", _SHAPES)
    def test_lemma_matches_the_multinomial_sum(self, n):
        # At n = 1/2 the oracle's test below covers the widest lists.
        for twice in (1, 2, 5) if n <= 17 else (5,):
            params = (H(twice),) * n
            for r in range(_small_r(n) + 1):
                assert lemma_lhs(params, r) == _literal_lemma_sum(params, r), (twice, r)

    @pytest.mark.parametrize("n", [n for n in _SHAPES if n >= 2])
    def test_both_oracle_routes_match_the_walks(self, n):
        for r in range(_small_r(n) + 1):
            reference = _factor_by_factor_oracle(n, r, compositions(r, n))
            if r % 2 == 0:
                assert reference == Fraction(*moments._mixing(n, r // 2)) * _literal_lemma_sum((H(1),) * n, r // 2)
            for literal_parity in (False, True):
                assert rwa_moment_oracle(n, r, literal_parity=literal_parity) == reference, (r, literal_parity)

    @pytest.mark.parametrize(
        "twice",
        [
            (1, 3, 1, 5, 1),
            (2, 2, 1, 2, 1, 1),
            (1,) * 7 + (5, 5),
            (3,) * 5 + (1, 2),
        ],
    )
    def test_mixed_lists_with_repeats_in_any_order(self, twice):
        orders = set(itertools.permutations(twice))
        for r in range(7):
            reference = _literal_lemma_sum(tuple(map(H, twice)), r)
            assert reference == lemma_rhs(tuple(map(H, twice)), r)
            for order in orders:
                assert lemma_lhs(tuple(map(H, order)), r) == reference, (order, r)

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 1001])
    def test_moment_table_rows_are_the_single_values(self, n):
        # The table reads every row off one power cut at degree k_max.
        rows = moment_rows(RwaSpec(n=n, a=2.5), 30)
        assert [row.k for row in rows] == list(range(31))
        for row in rows:
            scale = exact_scale(2.5) ** (2 * row.k)
            assert row.oracle == rwa_moment_oracle(n, 2 * row.k) * scale, row.k
            assert row.closed_form == rwa_moment_closed(n, row.k) * scale, row.k

    def test_a_table_makes_no_factorial_per_row(self, monkeypatch):
        # The table's factorials, the oracle column's r! among them, are
        # running products, so a longer table calls math.factorial no more.
        calls = []
        factorial = math.factorial
        monkeypatch.setattr(math, "factorial", lambda x: calls.append(x) or factorial(x))
        counts = []
        for k_max in (100, 200):
            calls.clear()
            moment_rows(RwaSpec(n=3), k_max)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_a_size_without_target_law_is_refused_before_the_table(self):
        # The oracle's table holds n copies of one parameter; the law is
        # asked first, so a huge n is refused before any of them is made.
        with pytest.raises(ValueError, match=r"^n=1000000000000 has no target law: "):
            moment_rows(RwaSpec(n=10**12), 0)

    @pytest.mark.parametrize("count", range(1, 10))
    def test_lemma_table_rows_are_the_single_values(self, count):
        # A parameter repeated 1 to 9 times, alone and beside another one
        # repeated 10 - count times: every squaring and bit pattern of a count.
        for params in ((H(1),) * count, (H(1),) * count + (H(4),) * (10 - count)):
            rows = lemma_rows(params, 12)
            assert [r for r, _, _ in rows] == list(range(13))
            for r, lhs, rhs in rows:
                assert (lhs, rhs) == (lemma_lhs(params, r), lemma_rhs(params, r)), (params, r)

    @pytest.mark.parametrize("twice", [(1,), (2, 2, 1), (1, 3, 5, 7, 4)])
    def test_lemma_table_closed_side_is_the_single_value(self, twice):
        # The table's closed side is a running product from one row to the next.
        params = tuple(map(H, twice))
        assert [rhs for _, _, rhs in lemma_rows(params, 60)] == [lemma_rhs(params, r) for r in range(61)]

    def test_refusals_keep_their_messages(self):
        for call in (
            lambda: lemma_lhs((H(1), H(3)), -1),
            lambda: lemma_rhs((H(1), H(3)), -1),
            lambda: rwa_moment_oracle(3, -1, literal_parity=True),
        ):
            with pytest.raises(ValueError, match=r"^r must be >= 0, got -1$"):
                call()
        # An empty list is refused before its degree is read, in one text.
        for route in (lemma_lhs, lemma_rhs, lemma_rows, moments.table_product_count):
            for r in (2, -1):
                with pytest.raises(ValueError, match=r"^need at least one part, got n=0$"):
                    route((), r)

    def test_the_runtime_path_walks_no_composition(self, monkeypatch, tmp_path):
        from rwa_semicircle import exactmath
        from rwa_semicircle.cli import main

        def no_walk(*args, **kwargs):
            raise AssertionError("walked the compositions at run time")

        monkeypatch.setattr(exactmath, "compositions", no_walk)
        monkeypatch.setattr(moments, "compositions", no_walk, raising=False)
        moment_rows(RwaSpec(n=5), 8, rwa_batch(RwaSpec(n=5), 1000, 1))
        assert rwa_moment_oracle(9, 11, literal_parity=True) == 0
        assert lemma_lhs((H(1), H(3), H(1)), 9) == lemma_rhs((H(1), H(3), H(1)), 9)
        assert main(["moment", "--n", "64", "--k-max", "6"]) == 0
        assert main(["lemma-check", "--params", "1/2,3/2,1/2", "--r-max", "9"]) == 0
        assert main(["verify", "--n", "3", "--count", "1000", "--seed", "1", "--json", str(tmp_path / "v.json")]) == 0


def _lagrange(points: list[tuple[int, Fraction]], x: int) -> Fraction:
    """The polynomial through `points`, of degree below their number, at x."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


class TestLemmaCertificate:
    """The lemma at n parameters 1/2, for every n at once.

    Without the lemma, the sum side is k! [t^k] f(t)^n with f(t) = sum_i
    C(2i, i) (t/4)^i = 1 + O(t), a polynomial in n of degree at most k; the
    closed side Gamma(n/2 + k)/Gamma(n/2) is one of degree k.  So agreement
    at the k + 1 sizes n = 2..k+2 proves it at every n.  The interpolant
    through those sizes must then give both sides at far sizes, and one size
    fewer must not be enough."""

    @pytest.mark.parametrize("k", range(11))
    def test_k_plus_one_sizes_fix_the_lemma_at_every_size(self, k):
        def halves(n):
            return (H(1),) * n

        points = [(n, lemma_lhs(halves(n), k)) for n in range(2, k + 3)]
        assert all(value == lemma_rhs(halves(n), k) for n, value in points)
        for n in (50, 333, 1001):
            assert _lagrange(points, n) == lemma_rhs(halves(n), k) == lemma_lhs(halves(n), k)
            if k >= 1:
                assert _lagrange(points[:-1], n) != lemma_rhs(halves(n), k)


_LIBRARY_REFUSALS = [
    ("lemma_lhs((HalfInteger(1),) * 3, 10**12)", 10**12, "about 10^23.1"),
    ("lemma_rows((HalfInteger(1), HalfInteger(2)), 10**12)", 10**12, "about 10^23.1"),
    ("moment_rows(RwaSpec(3), 10**12)", 10**12, "about 10^23.1"),
    ("rwa_moment_oracle(3, 2 * 10**12)", 10**12, "about 10^23.1"),
    # The literal route's C(i, i/2) take about i bits at even i: r^2/32
    # bytes, those of a series of degree r // 2.
    ("rwa_moment_oracle(3, 10**12, literal_parity=True)", 5 * 10**11, "about 10^22.5"),
    # The closed routes share the oracle's domain.
    ("psc_moment(1, 10**12)", 10**12, "about 10^23.1"),
    ("rwa_moment_closed(3, 10**12)", 10**12, "about 10^23.1"),
    ("lemma_rhs((HalfInteger(1),) * 3, 10**12)", 10**12, "about 10^23.1"),
    # Just past the limit, 2^33 = isqrt(8 maxsize + 7) + 1: the oracle's
    # odd order is refused where the closed route is.
    ("rwa_moment_closed(3, 2**33)", 2**33, "9223372036854775808"),
    ("rwa_moment_oracle(3, 2**34 + 1)", 2**33, "9223372036854775808"),
    # A NumPy degree is read as an exact int: its square in int64 wraps
    # to 7.8 10^18, within the limit.
    ("lemma_lhs((HalfInteger(1),), np.int64(10**10))", 10**10, "12500000000000000000"),
]


def _run_capped(call: str) -> subprocess.CompletedProcess:
    """Run `call` in a child process with its address space capped at 2 GiB,
    so that a series built despite a rule fails there, not on the host; the
    child prints the text of the ValueError the call raises."""
    code = (
        "import numpy as np\n"
        "from rwa_semicircle.exactmath import HalfInteger\n"
        "from rwa_semicircle.moments import (\n"
        "    lemma_lhs, lemma_rhs, lemma_rows, moment_rows, psc_moment, rwa_moment_closed, rwa_moment_oracle,\n"
        ")\n"
        "from rwa_semicircle.rwa import RwaSpec\n"
        f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(moments.__file__).resolve().parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )


@pytest.mark.parametrize(
    "call, degree, least", _LIBRARY_REFUSALS, ids=[f"{call}-{least.removeprefix('about ')}" for call, _, least in _LIBRARY_REFUSALS]
)
def test_series_no_array_holds_is_refused_before_it_is_built(call, degree, least):
    proc = _run_capped(call)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"a series of degree {degree} holds at least {least} bytes, "
        f"beyond NumPy's array limit of {np.iinfo(np.intp).max}\n"
    )


@pytest.mark.parametrize("literal_parity", [False, True])
@pytest.mark.parametrize("n", [1002, 10**12])
def test_the_oracle_refuses_the_sizes_the_closed_route_refuses(n, literal_parity):
    # Both routes ask the target law first: n = 1002 has none (2 lam = 1001),
    # and at n = 10^12 the oracle would build a series of 10^12 parts.
    with pytest.raises(ValueError, match=rf"^n={n} has no target law: ") as refused:
        rwa_moment_closed(n, 1)
    proc = _run_capped(f"rwa_moment_oracle({n}, {2 + literal_parity}, literal_parity={literal_parity})")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{refused.value}\n")


def test_largest_series_degree_is_about_8_6e9():
    limit = np.iinfo(np.intp).max
    largest = math.isqrt(8 * limit + 7)
    assert moments.check_degree(largest) == largest
    with pytest.raises(ValueError, match=f"degree {largest + 1} holds"):
        moments.check_degree(largest + 1)
    assert 8.5e9 < largest < 8.7e9
    # The oracle serves both orders of the last degree, 2k and 2k + 1.
    assert rwa_moment_oracle(3, 2 * largest + 1) == 0


def test_a_numpy_degree_gives_the_value_of_its_int():
    # Kept as an int64, degree 40 would overflow in 4^r and 2^r.
    params = (HalfInteger(1), HalfInteger(3))
    for call in (
        lambda r: lemma_lhs(params, r),
        lambda r: lemma_rhs(params, r),
        lambda r: lemma_rows(params, r),
        lambda r: moment_rows(RwaSpec(3), r),
        lambda r: psc_moment(1, r),
        lambda r: rwa_moment_closed(3, r),
        lambda r: rwa_moment_oracle(3, 2 * r),
        lambda r: rwa_moment_oracle(3, 2 * r, literal_parity=True),
        lambda r: moments.table_product_count(params, r),
    ):
        assert call(np.int64(40)) == call(40)


def test_a_numpy_size_gives_the_value_of_its_int():
    # RwaSpec reads n with operator.index, as the degree rule reads a degree.
    for n in (3, 1001):
        assert rwa_moment_closed(np.int64(n), 20) == rwa_moment_closed(n, 20)
        assert rwa_moment_oracle(np.int64(n), 40) == rwa_moment_oracle(n, 40)
        assert rwa_moment_oracle(np.int64(n), 40, literal_parity=True) == rwa_moment_oracle(n, 40, literal_parity=True)
    assert moment_rows(RwaSpec(np.int64(3)), 20) == moment_rows(RwaSpec(3), 20)


def _differences(values: list, order: int) -> list:
    """The order-th forward differences of values at consecutive sizes."""
    for _ in range(order):
        values = [right - left for left, right in zip(values, values[1:])]
    return values


class TestClosedFormCertificate:
    """The closed route's two forms at n parameters 1/2, for every n at once.

    The forms are _mixing(n, k) Gamma(n/2 + k)/Gamma(n/2) and
    psc_moment((n-1)/2, k).  Multiplied by P(n) = n (n+1) ... (n+2k-1)
    = 4^k (n/2)_k ((n+1)/2)_k, which is not 0 at any n >= 1, the first is
    (2k)!/k! (n/2)_k and the second 4^k (1/2)_k (n/2)_k: each is a
    polynomial in n of degree at most k.  So agreement at k + 1 sizes proves
    the forms equal at every n.  They are checked at the k + 2 sizes
    n = 2..k+3, where each form times P must have a (k+1)-th difference of
    0, as a degree of at most k requires, and a k-th difference that is not
    0.  With `TestLemmaCertificate`, oracle = closed form at every n for
    every order 2k <= 20."""

    @pytest.mark.parametrize("k", range(11))
    def test_k_plus_two_sizes_fix_the_closed_form_at_every_size(self, k):
        sizes = range(2, k + 4)
        mixed = [math.prod(range(n, n + 2 * k)) * Fraction(*moments._mixing(n, k)) * lemma_rhs((H(1),) * n, k) for n in sizes]
        law = [math.prod(range(n, n + 2 * k)) * psc_moment(Fraction(n - 1, 2), k) for n in sizes]
        assert mixed == law
        assert _differences(law, k + 1) == [0]
        assert 0 not in _differences(law, k)


class TestPscMoment:
    def test_catalan_numbers_at_lam_one(self):
        """4^k E X^(2k) of the Wigner semicircle is the k-th Catalan number."""
        for k in range(11):
            catalan = Fraction(math.comb(2 * k, k), k + 1)
            assert psc_moment(1, k) * 4**k == catalan

    def test_uniform_moments_at_lam_half(self):
        for k in range(8):
            assert psc_moment(Fraction(1, 2), k) == Fraction(1, 2 * k + 1)

    def test_arcsine_moments_at_lam_zero(self):
        """E X^(2k) of the unit arcsine law is C(2k, k) / 4^k."""
        for k in range(10):
            assert psc_moment(0, k) == Fraction(math.comb(2 * k, k), 4**k)

    def test_accepts_half_integer_inputs_of_all_spellings(self):
        assert psc_moment(Fraction(3, 2), 2) == psc_moment(1.5, 2)

    def test_rejects_non_half_integers_and_negatives(self):
        with pytest.raises(ValueError):
            psc_moment(Fraction(1, 3), 2)
        with pytest.raises(ValueError):
            psc_moment(-1, 2)
        with pytest.raises(ValueError):
            psc_moment(1, -1)
        with pytest.raises(ValueError, match="p/2"):
            psc_moment(501, 0)
        with pytest.raises(ValueError, match="p/2"):
            psc_moment(Fraction(1001, 2), 0)
        for lam in (10**400, Fraction(10**400), math.inf, math.nan):
            with pytest.raises(ValueError, match="p/2"):
                psc_moment(lam, 0)


class TestHankelPositivity:
    """[m_(i+j)] built from the exact moments must be positive semidefinite
    (necessary for any genuine moment sequence).  Checked in exact rational
    arithmetic via symmetric Gaussian elimination: all pivots >= 0."""

    @staticmethod
    def _is_psd(matrix: list[list[Fraction]]) -> bool:
        m = [row[:] for row in matrix]
        size = len(m)
        for i in range(size):
            pivot = m[i][i]
            if pivot < 0:
                return False
            if pivot == 0:
                # a PSD matrix with zero diagonal entry has a zero row/col
                if any(m[i][j] != 0 for j in range(i, size)):
                    return False
                continue
            for j in range(i + 1, size):
                factor = m[j][i] / pivot
                for k in range(i, size):
                    m[j][k] -= factor * m[i][k]
        return True

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rwa_moment_sequence_is_psd(self, n):
        moments = {}
        for order in range(0, 9):
            moments[order] = (
                Fraction(0) if order % 2 else rwa_moment_closed(n, order // 2)
            )
        hankel = [[moments[i + j] for j in range(5)] for i in range(5)]
        assert self._is_psd(hankel)

    def test_elimination_detects_a_non_moment_sequence(self):
        # sanity check of the checker itself: 1, 0, -1 cannot be moments
        bad = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        assert not self._is_psd(bad)


def _per_order_moment(values: np.ndarray, k: int) -> tuple[float, float]:
    """Reference kernel: the mean of v^(2k) and its standard error, with
    the batch read anew for this one order."""
    powers = values ** (2 * k)
    mean = float(powers.mean())
    var = float((powers**2).mean() - mean * mean)
    return mean, math.sqrt(max(var, 0.0) / values.size)


class TestEmpiricalMoment:
    def test_constant_sample(self):
        mean, se = empirical_moment(np.full(100, 2.0), 1)[1]
        assert mean == pytest.approx(4.0)
        assert se == 0.0

    def test_standard_error_shrinks_with_n(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, 40_000)
        _, se_small = empirical_moment(x[:1000], 1)[1]
        _, se_big = empirical_moment(x, 1)[1]
        assert se_big < se_small

    def test_tracks_exact_value(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, 200_000)
        mean, se = empirical_moment(x, 2)[2]  # E U^4 = 1/5
        assert abs(mean - 0.2) < 4 * se

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_moment(np.array([]), 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            empirical_moment(np.ones(3), -1)

    @pytest.mark.parametrize("n", [3, 8, 64])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_one_pass_matches_the_per_order_reference(self, n, k_max):
        values = rwa_batch(RwaSpec(n, 1.0), 20_000, seed=n).values
        rows = empirical_moment(values, k_max)
        assert len(rows) == k_max + 1
        assert rows[0] == (1.0, 0.0)
        for k, (mean, se) in enumerate(rows):
            ref_mean, ref_se = _per_order_moment(values, k)
            assert mean == pytest.approx(ref_mean, rel=1e-15, abs=0)
            assert se == pytest.approx(ref_se, rel=1e-15, abs=0)


def _one_pass_moment(values, k_max):
    """The moment stage as one pass over whole arrays: v^2 of the whole
    batch, multiplied forward, each order's mean by `ndarray.mean`."""
    v = np.asarray(values, dtype=np.float64)
    square, power, means = v * v, np.ones_like(v), [1.0]
    for _ in range(2 * k_max):
        power *= square
        means.append(float(power.mean()))
    return tuple((m, math.sqrt(max(means[2 * k] - m * m, 0.0) / v.size)) for k, m in enumerate(means[: k_max + 1]))


class TestSumTree:
    """The moment stage sums block by block along NumPy's pairwise tree, so
    its totals and means have the bits of the one-pass form."""

    @pytest.mark.parametrize("leaf", [128, 136, moments._LEAF_VALUES])
    @pytest.mark.parametrize(
        "size",
        [127, 128, 129, 136, 137, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 2**16 + 8, 2**16 + 9,
         2**17 - 1, 2**17, 2**17 + 1, 2**17 + 17, 3 * 10**6 + 1],
    )
    def test_total_is_numpys_sum(self, leaf, size, monkeypatch):
        # Squares spread over many binades, so that another order of the
        # additions would round differently.
        monkeypatch.setattr(moments, "_LEAF_VALUES", leaf)
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) * np.exp2(rng.integers(-30, 30, size))
        assert moments._tree_sums(x, 1.0, 1)[1] == np.add.reduce(x * x)

    @pytest.mark.parametrize("a", [1.0, 2.5, 1.5e154])
    def test_scaled_moments_match_the_one_pass_form(self, a):
        # A batch at scale a is a times the unit batch, bit for bit.
        values = a * rwa_batch(RwaSpec(3), 10**6 + 1, seed=11).values
        assert empirical_moment(values, 3, a) == _one_pass_moment(values / a, 3)

    def test_values_need_not_be_contiguous(self):
        values = rwa_batch(RwaSpec(3), 2 * (2**17 + 3), seed=12).values
        assert empirical_moment(values[::2], 2, 2.5) == _one_pass_moment(values[::2] / 2.5, 2)


class TestMomentReport:
    def test_exact_only_report(self):
        rep = moment_rows(RwaSpec(3, 1.0), 2)[2]
        assert rep.closed_form == Fraction(1, 8)
        assert rep.oracle == Fraction(1, 8)
        assert rep.consistent
        assert rep.empirical is None

    def test_scale_enters_as_a_to_the_2k(self):
        rep = moment_rows(RwaSpec(3, 2.5), 2)[2]
        assert rep.closed_form == Fraction(1, 8) * Fraction(5, 2) ** 4

    def test_monte_carlo_report_lands_in_band(self):
        batch = rwa_batch(RwaSpec(3, 1.0), 50_000, seed=42)
        rep = moment_rows(RwaSpec(3, 1.0), 1, batch)[1]
        assert rep.within_band()
        assert rep.z <= 4.0
        assert (rep.mc_count, rep.seed) == (50_000, 42)

    @pytest.mark.parametrize(
        "a, k_max",
        [(2.5, 3), (1e50, 3), (1e-100, 1), (1e-150, 1), (1e-100, 3), (1e-150, 3), (1.5e154, 1)],
    )
    def test_z_does_not_depend_on_the_scale(self, a, k_max):
        # z is taken on values / a against the unit moment, so neither a
        # scaled moment underflowing to 0 (a <= 1e-100, k >= 2) nor one near
        # the top of the float range (a = 1.5e154, a^2 / 4 = 5.6e307) can
        # move it.
        unit, scaled = (rwa_batch(RwaSpec(3, b), 2000, seed=7) for b in (1.0, a))
        unit_rows, scaled_rows = moment_rows(unit.spec, k_max, unit), moment_rows(scaled.spec, k_max, scaled)
        for k in range(1, k_max + 1):
            assert scaled_rows[k].z == pytest.approx(unit_rows[k].z, rel=1e-9, abs=0)

    def test_batch_must_match_spec(self):
        batch = rwa_batch(RwaSpec(3, 2.0), 100, seed=1)
        with pytest.raises(ValueError):
            moment_rows(RwaSpec(3, 1.0), 1, batch)

    def test_scale_is_read_decimally(self):
        assert exact_scale(0.1) == Fraction(1, 10)
        rep = moment_rows(RwaSpec(3, 0.1), 1)[1]
        assert rep.closed_form == rep.oracle == Fraction(1, 400)

    def test_z_is_the_gap_in_standard_errors(self):
        batch = rwa_batch(RwaSpec(3, 2.5), 2000, seed=7)
        mean, se = empirical_moment(batch.values / 2.5, 2)[2]
        rows = moment_rows(batch.spec, 2, batch)
        assert rows[2].z == abs(mean - 0.125) / se
        # order 0 is exact on every draw: no gap and no standard error
        assert rows[0].z == 0.0

    def test_band_is_band_z_standard_errors(self):
        rep = MomentReport(n=3, a=1.0, k=1, closed_form=Fraction(1, 4), oracle=Fraction(1, 4), z=BAND_Z)
        assert rep.within_band()
        assert not replace(rep, z=math.nextafter(BAND_Z, math.inf)).within_band()

    def test_scaled_estimate_is_rounded_once(self):
        # the unit estimate times the exact a^(2k): finite wherever the
        # scaled value is, though a^2 alone overflows at a = 1.5e154
        batch = rwa_batch(RwaSpec(3, 1.5e154), 2000, seed=7)
        mean, se = empirical_moment(batch.values / 1.5e154, 1)[1]
        rep = moment_rows(batch.spec, 1, batch)[1]
        scale = Fraction(15 * 10**153) ** 2
        assert (rep.empirical, rep.std_error) == (float(Fraction(mean) * scale), float(Fraction(se) * scale))

    def test_band_check_requires_mc(self):
        rep = moment_rows(RwaSpec(3, 1.0), 1)[1]
        with pytest.raises(ValueError):
            rep.within_band()

    def test_json_dict_renders_rationals_as_strings(self):
        rep = moment_rows(RwaSpec(3, 1.0), 2)[2]
        payload = rep.to_json_dict()
        assert payload["closed_form"] == {
            "num": "1",
            "den": "8",
            "decimal": "0.125",
        }
        assert payload["order"] == 4
        assert payload["consistent"] is True
        json.dumps(payload)  # must be serializable as-is

    def test_table_has_one_row_per_order(self):
        rows = moment_rows(RwaSpec(4, 1.0), 3)
        assert [row.k for row in rows] == [0, 1, 2, 3]
        assert all(row.closed_form == rwa_moment_closed(4, row.k) for row in rows)

    def test_negative_k_max_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            moment_rows(RwaSpec(3, 1.0), -1)

    def test_row_beyond_the_float_range_names_order_and_scale(self):
        # a^2 / 4 overflows at a = 1e200: the row keeps its order, scale and
        # z, and its estimate is None; so is one that underflows at 1e-150.
        for a, null_ks in ((1e200, [1, 2]), (1e-150, [2])):
            batch = rwa_batch(RwaSpec(3, a), 200, seed=1)
            unit = moment_rows(RwaSpec(3), 2, rwa_batch(RwaSpec(3), 200, seed=1))
            rows = moment_rows(batch.spec, 2, batch)
            assert [(row.k, row.a) for row in rows] == [(0, a), (1, a), (2, a)]
            assert [row.z for row in rows] == pytest.approx([row.z for row in unit], rel=1e-9, abs=0)
            for row in rows:
                null = row.k in null_ks
                assert (row.empirical is None, row.std_error is None) == (null, null)
                assert row.to_json_dict()["empirical"] is None if null else row.to_json_dict()["empirical"] > 0

    def test_inconsistent_report_possible_in_principle(self):
        rep = MomentReport(
            n=3, a=1.0, k=1, closed_form=Fraction(1, 4), oracle=Fraction(1, 5)
        )
        assert not rep.consistent


class TestDecimalStr:
    def test_thirty_significant_digits_by_default(self):
        s = decimal_str(Fraction(1, 3))
        assert s.startswith("0.3333333333")
        assert len(s.replace("0.", "")) == 30

    def test_exact_when_terminating(self):
        assert decimal_str(Fraction(1, 8)) == "0.125"
        assert decimal_str(Fraction(5, 64)) == "0.078125"
