"""Counting tests.

Covers: the ratio table (each table a prefix of a longer one, its forest
counts the closed form binom(3m, m)/(2m+1) to its last entry), the closed
form and the Lagrange extraction against each other and against
hand-checked values, the prime-power binomial kernel against math.comb,
table range errors, refusals of an n past the int-to-str digit limit, the
asymptotic approximation (sign, decay, frozen reference points, the
refusal of an n whose ln is not a finite float, the 330-digit
log10(27/4) of its decimal form), and the term ratio's march toward 27/4.
"""
from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from deptrees import (
    CountTable,
    build_count_table,
    count_closed_form,
    counting,
    cumulative_by_enumeration,
    enumerate_forests,
    enumerate_trees,
    mean_parameter,
    relative_error,
    stirling_log_approx,
    toll_by_name,
)
from deptrees.counting import _binomial, _check_size
from deptrees.verification import convolution_table, lagrange_coefficient

# first entries of A006013 and its sequence-of-forests companion
KNOWN_T = [0, 1, 2, 7, 30, 143, 728, 3876, 21318, 120175, 690690]
KNOWN_S = [1, 1, 3, 12, 55, 273, 1428, 7752, 43263, 246675, 1430715]


@pytest.fixture(scope="module")
def table_128():
    return build_count_table(128)


class TestSizeCheck:
    # the sized entry points whose own tests do not cover the refusals;
    # the sampler, oracle and toll totals are covered in their modules
    ENTRY_POINTS = {
        "build_count_table": (build_count_table, "n_max"),
        "count_closed_form": (count_closed_form, "n"),
        "stirling_log_approx": (stirling_log_approx, "n"),
        "convolution_table": (convolution_table, "n_max"),
        "lagrange_coefficient": (lagrange_coefficient, "n"),
        "mean_parameter": (partial(mean_parameter, toll_by_name("leaf")), "n"),
        "cumulative_by_enumeration": (
            partial(cumulative_by_enumeration, toll_by_name("leaf")), "n"
        ),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_size_that_is_not_an_int_is_refused(self, name):
        entry, what = self.ENTRY_POINTS[name]
        for bad in (2.5, 3.0):
            with pytest.raises(TypeError, match=f"^{what} must be an int, got float$"):
                entry(bad)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_size_below_one_is_refused(self, name):
        entry, what = self.ENTRY_POINTS[name]
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"^{what} must be at least 1, got {bad}$"):
                entry(bad)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_bool_is_an_int(self, name):
        entry, _ = self.ENTRY_POINTS[name]
        entry(True)
        with pytest.raises(ValueError, match="must be at least 1, got False"):
            entry(False)

    def test_a_size_above_its_bound_is_refused(self):
        # the bounds of count n, sample and verify --series-terms
        _check_size(10, "k", 1, 10, "k tried")
        with pytest.raises(ValueError, match="^k=11 is above 10, the largest k tried$"):
            _check_size(11, "k", 1, 10, "k tried")
        # the type is checked before either bound
        for bad in (11.0, 0.5):
            with pytest.raises(TypeError, match="^k must be an int, got float$"):
                _check_size(bad, "k", 1, 10, "k tried")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
    )
    def test_an_n_past_the_digit_limit_is_refused_by_its_size(self):
        # str() refuses an int of more than 4300 digits by default, so the
        # refusal names its size instead of raising that error in its place
        huge = 10**5000
        bits = huge.bit_length()
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueError) as refusal:
                _check_size(huge, most=5, largest="x")
            assert str(refusal.value) == f"n=<an int of {bits} bits> is above 5, the largest x"
            with pytest.raises(ValueError) as refusal:
                _check_size(-huge)
            assert str(refusal.value) == (
                f"n must be at least 1, got <a negative int of {bits} bits>"
            )
            for call in (stirling_log_approx, relative_error):
                with pytest.raises(ValueError) as refusal:
                    call(huge)
                assert str(refusal.value) == (
                    f"n=<an int of {bits} bits> is above about 9.4e+307, "
                    "the largest n whose ln_approx is finite"
                )
            with pytest.raises(IndexError, match=f"^n=<an int of {bits} bits> outside"):
                build_count_table(3).tree_count(huge)
        finally:
            sys.set_int_max_str_digits(before)


class TestCountTable:
    def test_known_values(self, table_128):
        assert list(table_128.t[:11]) == KNOWN_T
        assert list(table_128.s[:11]) == KNOWN_S

    def test_range_errors(self, table_128):
        for bad in (0, -1, 129):
            with pytest.raises(IndexError):
                table_128.tree_count(bad)
        with pytest.raises(IndexError):
            table_128.forest_count(-1)
        with pytest.raises(IndexError):
            table_128.forest_count(129)
        assert table_128.forest_count(0) == 1

    def test_n_max(self, table_128):
        assert table_128.n_max == 128
        assert build_count_table(1).n_max == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_count_table(0)

    def test_prefix_of_a_longer_table(self):
        # s_N needs t_{N+1}: each table is the prefix of a longer one, up to
        # and including its last entry
        big = build_count_table(200)
        for n in range(1, 65):
            assert build_count_table(n) == CountTable(big.t[: n + 1], big.s[: n + 1]), n

    def test_forest_counts_are_the_closed_form(self):
        s = build_count_table(300).s
        for m in range(301):
            assert s[m] * (2 * m + 1) == math.comb(3 * m, m), m

    def test_matches_enumeration(self, table_128):
        for n in range(1, 7):
            assert table_128.tree_count(n) == len(enumerate_trees(n))
        for m in range(0, 7):
            assert table_128.forest_count(m) == len(enumerate_forests(m))


class TestClosedForms:
    def test_small_values(self):
        for n in range(1, 11):
            assert count_closed_form(n) == KNOWN_T[n]
            assert lagrange_coefficient(n) == KNOWN_T[n]

    def test_three_way_agreement(self, table_128):
        for n in range(1, 129):
            t = table_128.tree_count(n)
            assert count_closed_form(n) == t
            assert lagrange_coefficient(n) == t

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            count_closed_form(0)
        with pytest.raises(ValueError):
            lagrange_coefficient(0)

    def test_closed_form_is_integral_binomial(self):
        # the defining quotient: n t_n = binom(3n-2, n-1); math.comb is the
        # oracle here, and the library reads the prime-power kernel
        for n in (*range(1, 601), 4999, 5000, 10**5):
            assert n * count_closed_form(n) == math.comb(3 * n - 2, n - 1), n

    @given(st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_at_random_sizes(self, n):
        assert count_closed_form(n) == lagrange_coefficient(n)


class TestBinomialKernel:
    """``counting._binomial(a, b)`` is binom(a+b, a), as math.comb computes it."""

    def test_every_small_pair(self):
        for a in range(121):
            for b in range(121):
                assert _binomial(a, b) == math.comb(a + b, a), (a, b)

    @given(st.integers(0, 3 * 10**4), st.integers(0, 3 * 10**4))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_seeded_pairs(self, a, b):
        assert _binomial(a, b) == math.comb(a + b, a)

    def test_sums_at_prime_powers(self):
        # a + b at and beside a prime's square, where the sieve stops, and
        # a, b at and beside powers of 2, 3 and 5, where the carries change
        for n in (96**2, 97**2 - 1, 97**2, 97**2 + 1, 98**2):
            for a in (1, 2, 97, n // 3, n // 2):
                assert _binomial(a, n - a) == math.comb(n, a), (a, n)
        for a in (2**11 - 1, 2**11, 3**7, 3**7 + 1, 5**5):
            for b in (1, 2**11, 3**7 - 1, 5**5 - 1):
                assert _binomial(a, b) == math.comb(a + b, a), (a, b)


class TestAsymptotics:
    def test_constants(self):
        # ln approx(n) = -ln(27 pi)/2 - (3/2) ln n + n ln(27/4): the amplitude,
        # the exponent -3/2 and the growth rate 27/4, read back out
        for n in (1, 10, 1000):
            amplitude = stirling_log_approx(n) + 1.5 * math.log(n) - n * math.log(27 / 4)
            assert amplitude == pytest.approx(-0.5 * math.log(27 * math.pi), abs=1e-9)
            step = stirling_log_approx(n + 1) - stirling_log_approx(n)
            assert step == pytest.approx(math.log(27 / 4) - 1.5 * math.log1p(1 / n), abs=1e-9)

    def test_log_approx_at_one(self):
        # ln(4/(27 sqrt(3 pi))) by hand
        expected = math.log(27 / 4) - 0.5 * math.log(27 * math.pi)
        assert stirling_log_approx(1) == pytest.approx(expected, abs=1e-15)

    def test_approx_underestimates(self):
        # the first-order correction is negative, so the approximation
        # sits below the exact count at every n
        for n in (1, 5, 10, 50, 128):
            assert relative_error(n) < 0

    def test_error_decays(self):
        errs = [abs(relative_error(n)) for n in (10, 40, 128)]
        assert errs[0] > errs[1] > errs[2]

    def test_frozen_reference_points(self):
        # values recorded from this implementation, pinned against drift
        assert relative_error(10) == pytest.approx(
            -0.02389229334660705, rel=1e-12
        )
        assert relative_error(100) == pytest.approx(
            -0.0023638836814076605, rel=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            stirling_log_approx(0)

    def test_the_float_range_bounds_the_sizes_taken(self):
        # ln_approx, nearly n ln(27/4), rounds to inf from about 9.4e307, and
        # an n from 2^1024 does not convert to a float; below, a finite float
        assert stirling_log_approx(10**307) == 1.9095425048844385e307
        assert stirling_log_approx(2**1023) == 1.7163857258792728e308
        for n in (10**308, 2**1024):
            with pytest.raises(ValueError) as refusal:
                stirling_log_approx(n)
            assert str(refusal.value) == (
                f"n={n} is above about 9.4e+307, the largest n whose ln_approx is finite"
            )

    def test_relative_error_refuses_before_the_binomial(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the binomial started")

        monkeypatch.setattr(counting, "count_closed_form", refuse)
        with pytest.raises(ValueError, match="the largest n whose ln_approx is finite"):
            relative_error(10**308)

    def test_log10_growth_is_log10_27_over_4(self):
        with localcontext() as ctx:
            ctx.prec = 360
            assert counting._LOG10_GROWTH == round((Decimal(27) / 4).log10().scaleb(330))


class TestGrowthRatio:
    # t_{n+1}/t_n, read exactly off the table
    @staticmethod
    def ratio(table, n):
        return Fraction(table.tree_count(n + 1), table.tree_count(n))

    def test_exact_small_values(self, table_128):
        assert self.ratio(table_128, 1) == 2
        assert self.ratio(table_128, 2) == Fraction(7, 2)
        assert self.ratio(table_128, 3) == Fraction(30, 7)

    def test_monotone_toward_limit(self, table_128):
        gaps = [Fraction(27, 4) - self.ratio(table_128, n) for n in (10, 40, 120)]
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
