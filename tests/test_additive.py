"""Additive-parameter tests.

Covers: fold_cost against its defining recursion and against the
sum-over-subtrees identity, the three builtin toll GFs, agreement of the
two cumulative GF forms, GF totals against exhaustive enumeration,
linearity, the unit-toll derivative identity, exact means,
enumeration-backed custom tolls, and toll validation.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deptrees import (
    DepTree,
    PowerSeries,
    TollSpec,
    build_count_table,
    builtin_tolls,
    cumulative_by_enumeration,
    cumulative_gf,
    cumulative_gf_via_sequences,
    enumerate_trees,
    fold_cost,
    mean_parameter,
    parse,
    serialize,
    size,
    solve_tree_gf,
    toll_by_name,
    z_times_derivative,
)
from deptrees.additive import toll_gf_by_enumeration
from deptrees.trees import OracleLimitError, iter_subtrees

LEAF = DepTree()

small_trees = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(enumerate_trees(n))
)


@pytest.fixture(scope="module")
def table_16():
    return build_count_table(16)


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
        # c(t) unrolls to the sum of e over all rooted subtrees
        for toll in builtin_tolls():
            expected = sum(toll.evaluate(v) for v in iter_subtrees(t))
            assert fold_cost(t, toll) == expected

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

    def test_spec_defaults_and_immutability(self):
        def evaluate(t):
            return 1

        spec = TollSpec("x", evaluate)
        assert (spec.name, spec.evaluate, spec.toll_gf, spec.description) == ("x", evaluate, None, "")
        assert spec == TollSpec("x", evaluate, None, "")
        assert hash(spec) == hash(TollSpec("x", evaluate))
        for field in ("name", "evaluate", "toll_gf", "description"):
            with pytest.raises(AttributeError):
                setattr(spec, field, None)
            with pytest.raises(AttributeError):
                delattr(spec, field)

    def test_lookup(self):
        assert toll_by_name("leaf").name == "leaf"
        with pytest.raises(ValueError, match="unit, leaf, size"):
            toll_by_name("height")

    def test_unit_gf_is_tree_gf(self):
        T = solve_tree_gf(12)
        assert toll_by_name("unit").toll_series(T) == T
        assert toll_by_name("unit").toll_series(T).coefficient(3) == 7

    def test_leaf_gf_is_z(self):
        E = toll_by_name("leaf").toll_series(solve_tree_gf(9))
        assert E == PowerSeries.monomial(9, 1)

    def test_size_gf_is_z_T_prime(self):
        E = toll_by_name("size").toll_series(solve_tree_gf(12))
        assert E == z_times_derivative(solve_tree_gf(12))
        assert E.coefficient(3) == 21

    def test_gfs_match_enumeration(self):
        # the TollSpec invariant, checked for every builtin
        for toll in builtin_tolls():
            E = toll.toll_series(solve_tree_gf(6))
            direct = toll_gf_by_enumeration(toll, 6)
            assert E == direct, toll.name


class TestCumulativeGF:
    def test_both_forms_agree(self):
        T = solve_tree_gf(32)
        for toll in builtin_tolls():
            E = toll.toll_series(T)
            assert cumulative_gf(E, T) == cumulative_gf_via_sequences(E, T)

    def test_unit_gives_z_T_prime(self):
        T = solve_tree_gf(24)
        C = cumulative_gf(T, T)
        assert C == z_times_derivative(T)
        assert C.coefficient(3) == 21

    def test_leaf_expansion(self):
        T = solve_tree_gf(6)
        C = cumulative_gf(PowerSeries.monomial(6, 1), T)
        assert C.coeffs == (0, 1, 2, 10, 56, 330, 2002)

    def test_zero_toll(self):
        T = solve_tree_gf(8)
        assert cumulative_gf(PowerSeries.zero(8), T) == PowerSeries.zero(8)

    def test_linearity(self):
        T = solve_tree_gf(16)
        E1 = toll_by_name("leaf").toll_series(T)
        E2 = toll_by_name("size").toll_series(T)
        lhs = cumulative_gf(E1 + E2, T)
        assert lhs == cumulative_gf(E1, T) + cumulative_gf(E2, T)

    def test_truncates_to_smaller_order(self):
        T = solve_tree_gf(10)
        E = PowerSeries.monomial(4, 1)
        assert cumulative_gf(E, T).order == 4

    def test_matches_enumeration(self):
        T = solve_tree_gf(6)
        for toll in builtin_tolls():
            C = cumulative_gf(toll.toll_series(T), T)
            for n in range(1, 7):
                assert C.coefficient(n) == cumulative_by_enumeration(toll, n)

    def test_leaf_totals_by_hand(self):
        # size 3: 4 trees with one leaf, 3 with two
        counts = [leaf_count(t) for t in enumerate_trees(3)]
        assert sorted(counts) == [1, 1, 1, 1, 2, 2, 2]
        assert cumulative_by_enumeration(toll_by_name("leaf"), 3) == 10
        assert cumulative_by_enumeration(toll_by_name("leaf"), 2) == 2


class TestEnumerationRoute:
    def test_respects_oracle_limit(self):
        with pytest.raises(OracleLimitError):
            cumulative_by_enumeration(toll_by_name("leaf"), 11)
        with pytest.raises(OracleLimitError):
            toll_gf_by_enumeration(toll_by_name("leaf"), 11)

    def test_custom_toll_gf_must_keep_the_order(self):
        short = TollSpec("short", lambda t: 1, lambda T: T.truncate(T.order - 1))
        with pytest.raises(ValueError, match="order 5, wanted 6"):
            short.toll_series(solve_tree_gf(6))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            cumulative_by_enumeration(toll_by_name("leaf"), 0)

    def test_custom_toll_round_trip(self):
        # internal-node count: no closed form registered, enumeration only
        internal = TollSpec(
            "internal", lambda t: 1 if t.left or t.right else 0
        )
        T = solve_tree_gf(6)
        E = internal.toll_series(T)
        C = cumulative_gf(E, T)
        for n in range(1, 7):
            assert C.coefficient(n) == cumulative_by_enumeration(internal, n)
        # leaves + internal nodes = all nodes
        leaf_E = toll_by_name("leaf").toll_series(T)
        assert E + leaf_E == T


class TestMeans:
    def test_unit_mean_is_n(self, table_16):
        unit = toll_by_name("unit")
        for n in (1, 2, 5, 16):
            assert mean_parameter(unit, n, table_16) == n

    def test_leaf_means(self, table_16):
        leaf = toll_by_name("leaf")
        assert mean_parameter(leaf, 1, table_16) == 1
        assert mean_parameter(leaf, 3, table_16) == Fraction(10, 7)

    def test_errors(self, table_16):
        leaf = toll_by_name("leaf")
        with pytest.raises(ValueError):
            mean_parameter(leaf, 0, table_16)
        with pytest.raises(IndexError):
            mean_parameter(leaf, 17, table_16)

    def test_exactness(self, table_16):
        # means are exact rationals, never floats
        m = mean_parameter(toll_by_name("size"), 7, table_16)
        assert isinstance(m, Fraction)
        assert m.denominator > 1
