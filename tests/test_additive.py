"""Additive-parameter tests.

Covers: fold_cost against its defining recursion and against the
sum-over-subtrees identity, the builtin tolls' closed-form totals against
the cumulative GF, the verification maps of builtin toll GFs and of
builtin toll folds over canonical strings (against fold_cost), agreement of
the two cumulative GF forms, GF totals against exhaustive enumeration,
linearity, the unit-toll derivative identity, exact means and their
asymptotics, enumeration-backed custom tolls, and toll validation.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deptrees import (
    DepTree,
    TollSpec,
    build_count_table,
    builtin_tolls,
    cumulative_by_enumeration,
    enumerate_trees,
    fold_cost,
    mean_parameter,
    parse,
    serialize,
    toll_by_name,
    trees,
)
from deptrees.trees import OracleLimitError, iter_subtrees
from deptrees.verification import (
    _TOLL_FOLDS,
    _TOLL_GFS,
    PowerSeries,
    cumulative_gf,
    cumulative_gf_via_sequences,
    z_times_derivative,
)

LEAF = DepTree()

small_trees = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(enumerate_trees(n))
)


# frozen asymptotic tolerances for the means (measured values noted alongside):
# leaf mean / n -> 4/9, and (size mean - n) / n^(3/2) -> sqrt(pi/3)
LEAF_MEAN_GAP_TOL_AT_1000 = 1e-4   # measured 7.41e-05
SIZE_MEAN_GAP_TOL_AT_10000 = 0.01  # measured 0.0078 (0.0248 at n = 1000)


def toll_gf(name: str, order: int) -> PowerSeries:
    return _TOLL_GFS[name](PowerSeries(build_count_table(order).t))


def leaf_count(t: DepTree) -> int:
    return sum(1 for v in iter_subtrees(t) if not v.left and not v.right)


class TestFoldCost:
    def test_unit_toll_gives_size(self):
        unit = toll_by_name("unit")
        for n in range(1, 6):
            assert all(fold_cost(t, unit) == n for t in enumerate_trees(n))

    def test_leaf_toll_on_single_node(self):
        assert fold_cost(LEAF, toll_by_name("leaf")) == 1

    def test_leaf_toll_two_left_children(self):
        t = parse("[[|][|]|]")
        assert fold_cost(t, toll_by_name("leaf")) == 2

    @given(small_trees)
    def test_equals_sum_over_subtrees(self, t):
        # fold_cost sums e over the subtrees; c(t) is defined by the recursion
        def c(t, toll):
            return toll.evaluate(t) + sum(c(r, toll) for r in t.left + t.right)

        for toll in builtin_tolls():
            assert fold_cost(t, toll) == c(t, toll)

    def test_deep_chain(self):
        t = LEAF
        for _ in range(1500):
            t = DepTree(right=(t,))
        assert fold_cost(t, toll_by_name("unit")) == 1501
        assert fold_cost(t, toll_by_name("leaf")) == 1

    def test_rejects_bad_toll_values(self):
        for bad in (-1, True, Fraction(1, 2), None):
            toll = TollSpec("bad", lambda t, v=bad: v)
            with pytest.raises(ValueError):
                fold_cost(LEAF, toll)


class TestBuiltinTolls:
    def test_exactly_three(self):
        assert [t.name for t in builtin_tolls()] == ["unit", "leaf", "size"]

    def test_lookup(self):
        assert toll_by_name("leaf").name == "leaf"
        with pytest.raises(ValueError, match="unit, leaf, size"):
            toll_by_name("height")

    def test_unit_gf_is_tree_gf(self):
        T = PowerSeries(build_count_table(12).t)
        assert _TOLL_GFS["unit"](T) == T
        assert _TOLL_GFS["unit"](T).coeffs[3] == 7

    def test_leaf_gf_is_z(self):
        assert toll_gf("leaf", 9) == PowerSeries((0, 1, *[0] * 8))

    def test_size_gf_is_z_T_prime(self):
        E = toll_gf("size", 12)
        assert E == z_times_derivative(PowerSeries(build_count_table(12).t))
        assert E.coeffs[3] == 21

    def test_gfs_match_enumeration(self):
        # the verification map covers exactly the builtins, each E(z) equal
        # to e summed over the oracle's trees of every size
        assert set(_TOLL_GFS) == {toll.name for toll in builtin_tolls()}
        for toll in builtin_tolls():
            direct = [0] + [
                sum(toll.evaluate(t) for t in enumerate_trees(n)) for n in range(1, 7)
            ]
            assert toll_gf(toll.name, 6).coeffs == tuple(direct), toll.name

    def test_string_folds_match_fold_cost(self):
        # verify folds the builtins over canonical strings; the object fold
        # is the reference, tree by tree, so the totals agree for n <= 8
        assert set(_TOLL_FOLDS) == {toll.name for toll in builtin_tolls()}
        for n in range(1, 9):
            trees_n = enumerate_trees(n)
            texts = [serialize(t) for t in trees_n]
            for toll in builtin_tolls():
                folds = list(map(_TOLL_FOLDS[toll.name], texts))
                assert folds == [fold_cost(t, toll) for t in trees_n], (toll.name, n)

    def test_totals_match_the_cumulative_gf(self):
        T = PowerSeries(build_count_table(200).t)
        for toll in builtin_tolls():
            C = cumulative_gf(_TOLL_GFS[toll.name](T), T)
            assert [toll.total(n) for n in range(1, 201)] == list(C.coeffs[1:]), toll.name

    @pytest.mark.parametrize("n", [0, -3])
    def test_totals_refuse_sizes_below_one(self, n):
        for toll in builtin_tolls():
            with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
                toll.total(n)
            with pytest.raises(TypeError, match="n must be an int, got float"):
                toll.total(n + 2.5)


class TestCumulativeGF:
    def test_both_forms_agree(self):
        T = PowerSeries(build_count_table(32).t)
        for toll in builtin_tolls():
            E = _TOLL_GFS[toll.name](T)
            assert cumulative_gf(E, T) == cumulative_gf_via_sequences(E, T)

    def test_unit_gives_z_T_prime(self):
        T = PowerSeries(build_count_table(24).t)
        C = cumulative_gf(T, T)
        assert C == z_times_derivative(T)
        assert C.coeffs[3] == 21

    def test_leaf_expansion(self):
        T = PowerSeries(build_count_table(6).t)
        C = cumulative_gf(PowerSeries((0, 1, *[0] * 5)), T)
        assert C.coeffs == (0, 1, 2, 10, 56, 330, 2002)

    def test_zero_toll(self):
        T = PowerSeries(build_count_table(8).t)
        assert cumulative_gf(PowerSeries((0,) * 9), T) == PowerSeries((0,) * 9)

    def test_linearity(self):
        T = PowerSeries(build_count_table(16).t)
        E1 = _TOLL_GFS["leaf"](T)
        E2 = _TOLL_GFS["size"](T)
        lhs = cumulative_gf(E1 + E2, T)
        assert lhs == cumulative_gf(E1, T) + cumulative_gf(E2, T)

    def test_truncates_to_smaller_order(self):
        T = PowerSeries(build_count_table(10).t)
        E = PowerSeries((0, 1, *[0] * 3))
        assert cumulative_gf(E, T).order == 4

    def test_matches_enumeration(self):
        T = PowerSeries(build_count_table(6).t)
        for toll in builtin_tolls():
            C = cumulative_gf(_TOLL_GFS[toll.name](T), T)
            for n in range(1, 7):
                assert C.coeffs[n] == cumulative_by_enumeration(toll, n)

    def test_leaf_totals_by_hand(self):
        # size 3: 4 trees with one leaf, 3 with two
        counts = [leaf_count(t) for t in enumerate_trees(3)]
        assert sorted(counts) == [1, 1, 1, 1, 2, 2, 2]
        assert cumulative_by_enumeration(toll_by_name("leaf"), 3) == 10
        assert cumulative_by_enumeration(toll_by_name("leaf"), 2) == 2


class TestEnumerationRoute:
    def test_respects_oracle_limit(self, monkeypatch):
        # refused before the oracle builds a single tree
        def no_enumeration(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(trees, "_forests", no_enumeration)
        internal = TollSpec("internal", lambda t: 1 if t.left or t.right else 0)
        with pytest.raises(OracleLimitError):
            cumulative_by_enumeration(toll_by_name("leaf"), 11)
        with pytest.raises(OracleLimitError):
            mean_parameter(internal, 11)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            cumulative_by_enumeration(toll_by_name("leaf"), 0)

    def test_custom_toll_round_trip(self):
        # internal-node count: no closed form registered, enumeration only
        internal = TollSpec(
            "internal", lambda t: 1 if t.left or t.right else 0
        )
        leaf = toll_by_name("leaf")
        for n in range(1, 7):
            direct = sum(fold_cost(t, internal) for t in enumerate_trees(n))
            mean = mean_parameter(internal, n)
            assert mean == Fraction(direct, len(enumerate_trees(n)))
            # leaves + internal nodes = all nodes
            assert mean + mean_parameter(leaf, n) == n


class TestMeans:
    def test_unit_mean_is_n(self):
        unit = toll_by_name("unit")
        for n in (1, 2, 5, 16, 3000):
            assert mean_parameter(unit, n) == n

    def test_leaf_means(self):
        leaf = toll_by_name("leaf")
        assert mean_parameter(leaf, 1) == 1
        assert mean_parameter(leaf, 3) == Fraction(10, 7)

    def test_errors(self):
        leaf = toll_by_name("leaf")
        with pytest.raises(ValueError):
            mean_parameter(leaf, 0)

    def test_exactness(self):
        # means are exact rationals, never floats
        m = mean_parameter(toll_by_name("size"), 7)
        assert isinstance(m, Fraction)
        assert m.denominator > 1

    def test_leaf_mean_tends_to_four_ninths_of_n(self):
        n = 1000
        gap = abs(mean_parameter(toll_by_name("leaf"), n) / n - Fraction(4, 9))
        assert gap < LEAF_MEAN_GAP_TOL_AT_1000

    def test_size_mean_excess_tends_to_sqrt_pi_over_3(self):
        # (mean - n) / n^(3/2) -> sqrt(pi/3): offspring variance 3/2 at tau = 1/3
        size = toll_by_name("size")
        limit = math.sqrt(math.pi / 3)
        gaps = {
            n: abs(float(mean_parameter(size, n) - n) / n**1.5 - limit)
            for n in (1000, 10000)
        }
        assert gaps[10000] < gaps[1000]
        assert gaps[10000] < SIZE_MEAN_GAP_TOL_AT_10000
