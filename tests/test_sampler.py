"""Sampler tests.

The centerpiece is the exhaustive preimage count.  The sampler's only
random decision is one uniform star subset, which a pure map turns into
a tree, so for small sizes every subset is replayed through that map and
the hits are counted per tree.  Uniformity then reads "each tree of size
n is hit exactly n times" (each forest of size m exactly m+1 times among
the accepted subsets), with no statistics involved.  A chi-square smoke
test, determinism checks (a pickled or deep-copied state resumes the
stream), depth safety and range checks round it out,
with the contract that a ``random`` module put on the sampler after the
import serves every draw.  The decoder is held to a plainer reference
decoder, which builds a tuple per node and pushes every child slot, on
every subset at small sizes and on seeded subsets up to 10^5.
"""
from __future__ import annotations

import _random
import copy
import pickle
import random
import tracemalloc
import types
from collections import Counter
from itertools import accumulate, chain, combinations

import pytest

from deptrees import (
    SamplerState,
    enumerate_forests,
    enumerate_trees,
    sample_forest,
    sample_tree,
    serialize,
    serialize_forest,
    size,
)
from deptrees import sampler
from deptrees.sampler import _tree_from_stars, sample_text

# alpha = 0.001 critical value for 6 degrees of freedom (the 7 shapes of
# size 3), frozen from a one-time quantile computation
CHI2_CRIT_6DOF_999 = 22.457744484825323


def star_subsets(n: int):
    """Every sorted (n-1)-subset of range(3n-2): every draw at size n."""
    return combinations(range(3 * n - 2), n - 1)


def stars_of(word) -> list[int]:
    """The sorted star slots whose gaps are the child counts (a, b) of
    ``word``, node by node: the inverse of the decoder's gap count."""
    stars = []
    for gap, k in enumerate(chain.from_iterable(word)):
        stars += range(gap + len(stars), gap + len(stars) + k)
    return stars


def assert_stars_are_random_sample(state: SamplerState, seed: int, n: int) -> None:
    """``state.stars(n)`` draws the subset that ``random.Random(seed)``
    samples from range(3n-2), and leaves the stream where that left it."""
    reference = random.Random(seed)
    assert list(state.stars(n)) == sorted(reference.sample(range(3 * n - 2), n - 1)), (seed, n)
    assert state.rng.getrandbits(64) == reference.getrandbits(64), (seed, n)


def reference_tree_from_stars(n: int, stars) -> str:
    """The canonical string of the tree that a sorted (n-1)-subset of
    range(3n-2) encodes; every tree of size n has exactly n preimages."""
    gaps = [0] * (2 * n)
    for rank, slot in enumerate(stars):
        gaps[slot - rank] += 1  # slot - rank bars precede this star
    nodes = list(zip(gaps[0::2], gaps[1::2]))
    # prefix sums of (children - 1) end at -1; the word starts just after
    # the first position where they reach their minimum
    sums = list(accumulate(a + b - 1 for a, b in nodes))
    start = (sums.index(min(sums)) + 1) % n
    out = []
    pending = []  # closing tokens and open child slots (None), top last
    for a, b in nodes[start:] + nodes[:start]:
        out.append("[")
        pending.append("]")
        pending += [None] * b
        pending.append("|")
        pending += [None] * a
        while pending:
            token = pending.pop()
            if token is None:
                break
            out.append(token)
    return "".join(out)


class TestExactUniformity:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_tree_paths(self, n):
        hits = Counter(_tree_from_stars(n, stars) for stars in star_subsets(n))
        assert set(hits) == {serialize(t) for t in enumerate_trees(n)}
        assert set(hits.values()) == {n}

    @pytest.mark.parametrize("m", range(0, 6))
    def test_forest_paths(self, m):
        # sample_forest keeps the left forest of a size-(m+1) tree whose root
        # has no right children
        texts = [_tree_from_stars(m + 1, stars) for stars in star_subsets(m + 1)]
        hits = Counter(text[1:-2] for text in texts if text.endswith("|]"))
        rejected = len(texts) - sum(hits.values())
        assert set(hits) == {serialize_forest(f) for f in enumerate_forests(m)}
        assert set(hits.values()) == {m + 1}
        accepted = sum(hits.values())
        assert accepted * (3 * m + 1) == (accepted + rejected) * (m + 1)


class TestReferenceDecoder:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_subset(self, n):
        for stars in star_subsets(n):
            assert _tree_from_stars(n, stars) == reference_tree_from_stars(n, stars), stars

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_seeded_subsets(self, n):
        for seed in range(5):
            stars = list(SamplerState(seed).stars(n))
            assert _tree_from_stars(n, stars) == reference_tree_from_stars(n, stars), seed

    def test_a_range_input(self):
        # any sorted iterable of slots: all stars first, all last, and spread
        n = 50
        for stars in (range(n - 1), range(2 * n - 1, 3 * n - 2), range(1, 3 * n - 2, 3)):
            assert _tree_from_stars(n, stars) == reference_tree_from_stars(n, stars), stars


class TestStatisticalUniformity:
    def test_chi_square_size_three(self):
        shapes = [serialize(t) for t in enumerate_trees(3)]
        state = SamplerState(20260816)
        draws = 14000
        observed = Counter(
            serialize(sample_tree(3, state)) for _ in range(draws)
        )
        assert set(observed) == set(shapes)
        expected = draws / len(shapes)
        chi2 = sum((observed[s] - expected) ** 2 / expected for s in shapes)
        assert chi2 < CHI2_CRIT_6DOF_999

    def test_size_two_is_a_fair_coin(self):
        state = SamplerState(5)
        observed = Counter(
            serialize(sample_tree(2, state)) for _ in range(2000)
        )
        assert set(observed) == {"[[|]|]", "[|[|]]"}
        assert abs(observed["[[|]|]"] - 1000) < 150


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SamplerState(777)
        b = SamplerState(777)
        for n in (1, 4, 9, 30):
            assert sample_tree(n, a) == sample_tree(n, b)
        assert sample_forest(12, a) == sample_forest(12, b)

    def test_different_seeds_diverge(self):
        a = SamplerState(1)
        b = SamplerState(2)
        # at n = 40 a collision across 5 draws is morally impossible
        assert [sample_tree(40, a) for _ in range(5)] != [
            sample_tree(40, b) for _ in range(5)
        ]

    def test_text_is_the_serialized_tree(self):
        # twin streams: sample_text draws exactly the bits sample_tree draws
        a = SamplerState(2024)
        b = SamplerState(2024)
        for n in (1, 2, 4, 300) * 3:
            assert sample_text(n, a) == serialize(sample_tree(n, b))
        assert a.rng.getstate() == b.rng.getstate()

    @pytest.mark.parametrize("m", range(13))
    def test_forest_is_the_first_tree_without_right_children(self, m):
        # twin streams: sample_forest draws exactly the trees sample_text
        # draws, up to the first whose root has no right children
        a = SamplerState(m)
        b = SamplerState(m)
        for _ in range(3):
            text = sample_text(m + 1, b)
            while not text.endswith("|]"):
                text = sample_text(m + 1, b)
            assert serialize_forest(sample_forest(m, a)) == text[1:-2]
        assert a.rng.getstate() == b.rng.getstate()

    def test_seed_recorded(self):
        assert SamplerState(99).seed == 99

    @pytest.mark.parametrize(
        "seed, kind", [("abc", "str"), (b"abc", "bytes"), (None, "NoneType"), (1.5, "float")]
    )
    def test_a_seed_that_is_not_an_int_is_refused(self, seed, kind):
        # a str seeds _random by its salted hash, None by OS entropy
        with pytest.raises(TypeError, match=f"seed must be an int, got {kind}"):
            SamplerState(seed)

    def test_a_negative_seed_is_refused(self):
        # _random seeds -s as s, so a negative seed would draw another's stream
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match=f"^seed must be at least 0, got {seed}$"):
                SamplerState(seed)
        assert list(SamplerState(0).stars(40)) == sorted(random.Random(0).sample(range(118), 39))

    @pytest.mark.parametrize(
        "duplicate", [lambda state: pickle.loads(pickle.dumps(state)), copy.deepcopy]
    )
    def test_a_copy_resumes_the_stream(self, duplicate):
        state = SamplerState(31)
        for n in (3, 8, 20):
            sample_text(n, state)
        twin = duplicate(state)
        assert twin.seed == 31
        drawn = [sample_text(n, twin) for n in (5, 40, 5)]
        # the copy drew on its own stream: the original is still where it was
        assert [sample_text(n, state) for n in (5, 40, 5)] == drawn
        assert twin.rng.getstate() == state.rng.getstate()


class TestRandomModule:
    def test_a_random_module_put_on_the_sampler_serves_every_draw(self, monkeypatch):
        # the benchmark's tracer counts the bits drawn by replacing
        # sampler.random, when it is a module, with one whose Random is a
        # counting random.Random subclass
        assert isinstance(sampler.random, types.ModuleType)
        assert sampler.random.Random is _random.Random
        expected = [sample_text(n, SamplerState(7)) for n in (1, 5, 300)]
        bits = []

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                bits.append(k)
                return super().getrandbits(k)

            def random(self):
                bits.append(53)
                return super().random()

        counting = types.ModuleType("random")
        counting.__dict__.update(vars(random))
        counting.Random = CountingRandom
        monkeypatch.setattr(sampler, "random", counting)
        assert type(SamplerState(7).rng) is CountingRandom
        assert [sample_text(n, SamplerState(7)) for n in (1, 5, 300)] == expected
        assert sum(bits) > 0

    @pytest.mark.parametrize(
        "seed", [0, 1, 7, -5, -(2**70), 2**64 - 1, 2**64, 12345678901234567890, True]
    )
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 40, 700])
    def test_stars_are_random_sample_bit_for_bit(self, seed, n):
        # stars runs random.sample's pool loop on the same bits, so a seed
        # gives the trees it gave through random.sample, and leaves the
        # stream where random.sample left it.  A negative seed is refused,
        # and the stream it drew, _random's seed of -seed, is drawn from -seed
        assert_stars_are_random_sample(SamplerState(seed if seed >= 0 else -seed), seed, n)

    def test_stars_are_random_sample_at_every_small_seed(self):
        # the pool holds 0 for a slot that still holds its own index: at
        # n = 2..8 these seeds draw slot 0 while it holds 0 and again after a
        # refill, and refill from slots that do and do not hold a 0
        for seed in range(200):
            for n in range(2, 9):
                assert_stars_are_random_sample(SamplerState(seed), seed, n)

    @pytest.mark.parametrize("seed", [3, 2024])
    def test_stars_are_random_sample_at_a_large_size(self, seed):
        assert_stars_are_random_sample(SamplerState(seed), seed, 10**5)


class TestShapes:
    def test_sizes_are_exact(self):
        state = SamplerState(31337)
        for n in (1, 2, 3, 10, 25, 64):
            for _ in range(5):
                assert size(sample_tree(n, state)) == n

    def test_forest_sizes_are_exact(self):
        state = SamplerState(31338)
        for m in (0, 1, 5, 40):
            assert sum(map(size, sample_forest(m, state))) == m

    def test_single_node(self):
        state = SamplerState(0)
        assert serialize(sample_tree(1, state)) == "[|]"

    def test_empty_forest(self):
        state = SamplerState(0)
        assert sample_forest(0, state) == ()

    def test_deep_samples_do_not_recurse(self):
        state = SamplerState(4)
        for _ in range(3):
            assert size(sample_tree(600, state)) == 600
        # stars at 0, 3, 6, ... give every node one left child: a chain
        n = 5000
        assert _tree_from_stars(n, range(0, 3 * (n - 1), 3)) == "[" * n + "|]" * n

    @pytest.mark.parametrize(
        "shape",
        ["left chain", "right chain", "root with left leaves", "root with right leaves"],
    )
    def test_extreme_shapes_rotated(self, shape):
        # each word rotated by n // 3 nodes, so the decoder must find its start
        n = 2 * 10**5
        word, expected = {
            "left chain": ([(1, 0)] * (n - 1) + [(0, 0)], "[" * n + "|]" * n),
            "right chain": ([(0, 1)] * (n - 1) + [(0, 0)], "[|" * n + "]" * n),
            "root with left leaves": ([(n - 1, 0)] + [(0, 0)] * (n - 1), "[" + "[|]" * (n - 1) + "|]"),
            "root with right leaves": ([(0, n - 1)] + [(0, 0)] * (n - 1), "[|" + "[|]" * (n - 1) + "]"),
        }[shape]
        rotated = word[n // 3 :] + word[: n // 3]
        assert _tree_from_stars(n, stars_of(rotated)) == expected

    def test_a_large_draw_holds_no_int_per_slot(self):
        # a pool of 3n-2 ints and a sorted star list peaked at 12.6 MiB
        state = SamplerState(1)
        tracemalloc.start()
        try:
            sample_text(10**5, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_large_n_needs_no_table(self):
        assert size(sample_tree(5000, SamplerState(8))) == 5000

    def test_range_errors(self):
        state = SamplerState(1)
        before = state.rng.getstate()
        for bad in (0, -2):
            with pytest.raises(ValueError, match=f"n must be at least 1, got {bad}"):
                sample_tree(bad, state)
        with pytest.raises(ValueError, match="m must be at least 0, got -1"):
            sample_forest(-1, state)
        # a float used to reach range() inside the draw
        with pytest.raises(TypeError, match="n must be an int, got float"):
            sample_tree(2.5, state)
        with pytest.raises(TypeError, match="m must be an int, got float"):
            sample_forest(1.5, state)
        # refused before any random bits are drawn
        assert state.rng.getstate() == before
