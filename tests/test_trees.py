"""Tree model tests.

Covers: construction and the serialization-backed dunders (which refuse a
child that is not a tree), iterative size/subtree walks, the canonical
grammar (round trips and byte-exact error offsets), exhaustive enumeration
against the known counts, the construction's order over mixed sizes, the
grammar walk against the serialized objects (forests included), the traced
peaks of the walk and of the objects, the enumeration limit, checked
when an entry point is called, that nothing outlives a call, and
deep-chain safety (no recursion anywhere).
"""
from __future__ import annotations

import copy
import gc
import operator
import pickle
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from deptrees import (
    DEFAULT_ORACLE_LIMIT,
    DepTree,
    OracleLimitError,
    build_count_table,
    ParseError,
    enumerate_forests,
    enumerate_trees,
    parse,
    parse_forest,
    serialize,
    serialize_forest,
    size,
)
from deptrees.trees import _forests, iter_subtrees, tree_texts

LEAF = DepTree()

# t_n and s_m for small n, straight off the recurrences by hand
SMALL_T = [0, 1, 2, 7, 30, 143, 728]
SMALL_S = [1, 1, 3, 12, 55, 273, 1428]


def chain(depth: int, side: str = "left") -> DepTree:
    t = LEAF
    for _ in range(depth - 1):
        t = DepTree(left=(t,)) if side == "left" else DepTree(right=(t,))
    return t


small_trees = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(enumerate_trees(n))
)


class TestDepTree:
    def test_defaults_to_single_node(self):
        assert LEAF.left == ()
        assert LEAF.right == ()
        assert size(LEAF) == 1

    def test_sequences_coerced_to_tuples(self):
        t = DepTree(left=[LEAF], right=[LEAF, LEAF])
        assert isinstance(t.left, tuple)
        assert isinstance(t.right, tuple)
        assert size(t) == 4

    @pytest.mark.parametrize("left", ["[|]", ("]",), (3,)], ids=["str", "str-child", "int-child"])
    def test_a_child_that_is_not_a_tree_is_refused(self, left):
        # a str child must not pass for serialize's own "|" and "]" markers,
        # or DepTree(left="[|]") would equal DepTree(left=(DepTree(),)), hash and all
        bad = DepTree(left=left)
        with pytest.raises(TypeError, match="must be a DepTree"):
            serialize(bad)
        with pytest.raises(TypeError, match="must be a DepTree"):
            bad == DepTree(left=(LEAF,))
        with pytest.raises(TypeError, match="must be a DepTree"):
            hash(bad)

    def test_frozen(self):
        t = DepTree(left=(LEAF,))
        for field in ("left", "right"):
            with pytest.raises(AttributeError):
                setattr(t, field, (LEAF,))
            with pytest.raises(AttributeError):
                delattr(t, field)
        with pytest.raises(AttributeError):
            t.extra = 1
        assert t.left == (LEAF,) and t.right == ()

    def test_pickle_and_copy_round_trip(self):
        t = parse("[[|][|]|[[|]|]]")
        for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
            assert clone == t
            assert serialize(clone) == serialize(t)

    def test_equality_is_structural(self):
        a = DepTree(left=(LEAF,))
        b = DepTree(left=(DepTree(),))
        assert a == b
        assert hash(a) == hash(b)
        assert a != DepTree(right=(LEAF,))
        assert a != "[[|]|]"

    def test_ordering_matches_serialization(self):
        trees = enumerate_trees(4)
        assert trees == sorted(trees)
        assert serialize(trees[0]) == min(serialize(t) for t in trees)

    def test_every_comparison_is_the_order_of_the_serializations(self):
        trees = enumerate_trees(4)
        for a in trees:
            for b in trees:
                x, y = serialize(a), serialize(b)
                assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)

    @pytest.mark.parametrize("other", ["[|]", 1, None])
    def test_a_tree_does_not_compare_with_a_non_tree(self, other):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(LEAF, other)
            with pytest.raises(TypeError):
                compare(other, LEAF)

    def test_repr_short_and_truncated(self):
        assert repr(LEAF) == "<DepTree [|]>"
        deep = chain(40)
        assert repr(deep) == "<DepTree size=40>"

    def test_iter_subtrees_yields_one_per_node(self):
        t = parse("[[|][|]|[[|]|]]")
        subtrees = list(iter_subtrees(t))
        assert len(subtrees) == size(t) == 5
        assert t in subtrees


class TestSizes:
    # a forest's total size is the sum of its trees' sizes
    def test_total_size_empty_forest(self):
        assert parse_forest("") == ()
        assert sum(map(size, parse_forest(""))) == 0

    def test_total_size_sums(self):
        assert sum(map(size, (LEAF, chain(3), LEAF))) == 5

    @given(small_trees)
    def test_size_equals_serialization_node_count(self, t):
        # every node contributes exactly one "|"
        assert size(t) == serialize(t).count("|")


class TestSerialization:
    def test_known_forms(self):
        assert serialize(LEAF) == "[|]"
        assert serialize(DepTree(left=(LEAF,))) == "[[|]|]"
        assert serialize(DepTree(right=(LEAF,))) == "[|[|]]"
        assert serialize(DepTree((LEAF,), (LEAF,))) == "[[|]|[|]]"

    def test_left_children_in_order(self):
        inner = DepTree(left=(LEAF,))
        t = DepTree(left=(inner, LEAF))
        assert serialize(t) == "[[[|]|][|]|]"

    def test_forest_concatenation(self):
        assert serialize_forest(()) == ""
        assert serialize_forest((LEAF, DepTree(left=(LEAF,)))) == "[|][[|]|]"

    @given(small_trees)
    def test_round_trip(self, t):
        assert parse(serialize(t)) == t

    @given(st.lists(small_trees, max_size=3))
    def test_forest_round_trip(self, trees):
        forest = tuple(trees)
        assert parse_forest(serialize_forest(forest)) == forest

    def test_deep_chain_round_trip_both_sides(self):
        # would overflow the default recursion limit if anything recursed
        for side in ("left", "right"):
            t = chain(2000, side)
            assert size(t) == 2000
            text = serialize(t)
            assert len(text) == 3 * 2000
            assert parse(text) == t
            assert hash(t) == hash(parse(text))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),        # empty input
            ("x", 0),       # not a bracket
            ("[]", 1),      # no '|' in the node
            ("[||]", 2),    # second '|'
            ("[|", 2),      # unclosed
            ("[|]x", 3),    # trailing garbage
            ("[a|]", 1),    # stray character inside
            ("[|]]", 3),    # trailing bracket
            ("[[|]|", 5),   # unclosed outer
        ],
    )
    def test_offsets(self, text, offset):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert exc_info.value.offset == offset
        assert f"byte {offset}" in str(exc_info.value)

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)

    def test_forest_rejects_bad_tail(self):
        with pytest.raises(ParseError) as exc_info:
            parse_forest("[|][")
        assert exc_info.value.offset == 4


class TestEnumeration:
    def test_tree_counts(self):
        for n in range(1, 7):
            assert len(enumerate_trees(n)) == SMALL_T[n]

    def test_forest_counts(self):
        for m in range(0, 7):
            assert len(enumerate_forests(m)) == SMALL_S[m]

    def test_trees_sorted_unique_and_sized(self):
        for n in range(1, 6):
            trees = enumerate_trees(n)
            texts = [serialize(t) for t in trees]
            assert texts == sorted(texts)
            assert len(set(texts)) == len(texts)
            assert all(size(t) == n for t in trees)

    def test_size_two_order(self):
        assert [serialize(t) for t in enumerate_trees(2)] == ["[[|]|]", "[|[|]]"]

    def test_forests_partition_by_first_tree(self):
        # every size-3 forest starts with a tree of size 1, 2, or 3
        forests = enumerate_forests(3)
        assert all(sum(map(size, f)) == 3 for f in forests)
        assert {size(f[0]) for f in forests} == {1, 2, 3}

    def test_texts_are_the_serialized_objects(self):
        # a forest of size m is the left forest of a size-(m+1) tree whose
        # root has no right children: its string ends in "|]"
        table = build_count_table(9)
        for n in range(1, 10):
            texts = list(tree_texts(n))
            assert texts == [serialize(t) for t in enumerate_trees(n)]
            assert all(a < b for a, b in zip(texts, texts[1:]))
            assert len(texts) == table.tree_count(n)
            forests = [text[1:-2] for text in texts if text.endswith("|]")]
            assert forests == [serialize_forest(f) for f in enumerate_forests(n - 1)]
            assert len(forests) == table.forest_count(n - 1)

    def test_the_walk_starts_at_the_left_chain(self):
        assert next(tree_texts(10)) == "[" * 10 + "|]" * 10

    def test_the_walk_holds_no_size(self):
        # the oracle's lists of every smaller size took 85 MiB here
        tracemalloc.start()
        try:
            for _ in tree_texts(10):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_the_objects_hold_no_strings(self):
        # pairing each object with its string and sorting peaked at 35.5 MiB
        tracemalloc.start()
        try:
            trees = enumerate_trees(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trees) == 120175
        assert peak < 24 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_the_construction_is_in_string_order(self):
        # mixed sizes too: a forest sorts before its own prefixes, so the
        # key closes each string with "|", which sorts after "["
        for m in range(7):
            forests = _forests(m)[m]
            keys = [serialize_forest(forest) + "|" for forest, _ in forests]
            assert keys == sorted(set(keys))
            assert [j for _, j in forests] == [sum(map(size, forest)) for forest, _ in forests]
            assert len(forests) == sum(SMALL_S[:m + 1])

    def test_nothing_retained_between_calls(self):
        trees = enumerate_trees(6)
        ref = weakref.ref(trees[len(trees) // 2])
        del trees
        gc.collect()
        assert ref() is None

    def test_domain_errors(self):
        # the walk checks exactly as the object entry points do, when it is
        # called: these calls start no iteration
        for trees in (enumerate_trees, tree_texts):
            with pytest.raises(ValueError, match="n must be at least 1, got 0"):
                trees(0)
            # 2.5 passed the range check once, and the walk never ended
            with pytest.raises(TypeError, match="n must be an int, got float"):
                trees(2.5)
        with pytest.raises(ValueError, match="m must be at least 0, got -1"):
            enumerate_forests(-1)
        with pytest.raises(TypeError, match="m must be an int, got float"):
            enumerate_forests(1.5)

    def test_oracle_limit(self):
        for trees in (enumerate_trees, tree_texts):
            with pytest.raises(OracleLimitError) as exc_info:
                trees(DEFAULT_ORACLE_LIMIT + 1)
            assert exc_info.value.limit == DEFAULT_ORACLE_LIMIT
            assert str(exc_info.value) == (
                f"size {DEFAULT_ORACLE_LIMIT + 1} exceeds the enumeration limit "
                f"{DEFAULT_ORACLE_LIMIT}"
            )
        with pytest.raises(OracleLimitError):
            enumerate_forests(DEFAULT_ORACLE_LIMIT + 1)

    def test_limit_is_a_constant(self):
        # no entry point takes a limit, so the error above advises passing none
        for entry in (enumerate_trees, enumerate_forests):
            with pytest.raises(TypeError):
                entry(3, limit=3)

    def test_the_error_takes_only_the_size(self):
        error = OracleLimitError(11)
        assert str(error) == "size 11 exceeds the enumeration limit 10"
        assert error.limit == DEFAULT_ORACLE_LIMIT == 10
        with pytest.raises(TypeError):
            OracleLimitError(11, 10)
