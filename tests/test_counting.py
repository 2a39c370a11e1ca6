"""Counting tests.

Covers: the ratio table (each table a prefix of a longer one, its forest
counts the closed form binom(3m, m)/(2m+1) to its last entry), the closed
form and the Lagrange extraction against each other and against
hand-checked values, table range errors, the asymptotic approximation
(sign, decay, frozen reference points), and the term ratio's march toward
27/4.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deptrees import (
    CountTable,
    build_count_table,
    count_closed_form,
    enumerate_forests,
    enumerate_trees,
    relative_error,
    stirling_log_approx,
)
from deptrees.verification import lagrange_coefficient

# first entries of A006013 and its sequence-of-forests companion
KNOWN_T = [0, 1, 2, 7, 30, 143, 728, 3876, 21318, 120175, 690690]
KNOWN_S = [1, 1, 3, 12, 55, 273, 1428, 7752, 43263, 246675, 1430715]


@pytest.fixture(scope="module")
def table_128():
    return build_count_table(128)


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
        # the defining quotient: n t_n = binom(3n-2, n-1)
        for n in (1, 2, 17, 100):
            assert n * count_closed_form(n) == math.comb(3 * n - 2, n - 1)

    @given(st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_at_random_sizes(self, n):
        assert count_closed_form(n) == lagrange_coefficient(n)


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
