"""Exactly uniform random trees and forests, by stars and bars and the cycle lemma.

The closed form t_n = binom(3n-2, n-1) / n is read as a sampler.  Choose
n-1 "stars" among 3n-2 slots; the other 2n-1 slots are bars, which cut
the stars into 2n gaps (a_1, b_1, ..., a_n, b_n), and node i is given a_i
left and b_i right children.  The child counts sum to n-1, so by the
Dvoretzky-Motzkin cycle lemma exactly one of the n rotations of the
nodes is a preorder (Lukasiewicz) word of a tree, and a sequence of n
child counts summing to n-1 has no period, so every tree of size n has
exactly n of the binom(3n-2, n-1) subsets as preimages.  A uniform
subset therefore gives a uniform tree (Flajolet & Sedgewick, *Analytic
Combinatorics*, I.5; Devroye, SIAM J. Comput. 2012).

The cost is n-1 bounded draws of random bits, a sort and a linear scan:
no count table and no big integers.  :func:`sample_text` returns the
canonical string the map produces; :func:`sample_tree` parses it into a
:class:`DepTree`.  :func:`sample_forest` draws trees of size m+1 with
:func:`sample_text` until the root has no right children, and returns the
root's left forest, a uniform forest of size m; a draw is accepted with
probability (m+1)/(3m+1) >= 1/3.

The pseudo-random stream is the stdlib Mersenne Twister, the C
``_random.Random`` that :class:`random.Random` extends.  Reproducibility
is per build: the same seed gives the same samples on the same Python
version.  :meth:`SamplerState.stars` runs the loop that
``random.Random.sample(range(3n-2), n-1)`` runs, so it draws the same
bits in the same order and a seed gives the trees it gave through
``random.sample``.  A population of 3n-2 never exceeds that method's set
threshold (21, plus 4^ceil(log4 3k) for k > 5), so it always takes the
pool branch, a partial Fisher-Yates shuffle, whose draw below m is
``getrandbits(m.bit_length())``, drawn again while the value is m or
more.  ``random.Random.seed`` hands an int seed to ``_random.Random.seed``
unchanged.

Importing ``random`` (with the ``os``, ``bisect``, ``warnings`` and
``_sha512`` it pulls in) costs a ``sample`` request about 3-4 ms, and
only ``_random`` is used; importing even that loads a shared library,
which a request that draws nothing should not pay for.  So the module
attribute ``random`` is a stand-in module whose attributes are those of
``_random``, which its first lookup, in :class:`SamplerState`, imports.
It is a module object, as an import would bind, so code that replaces
``sampler.random`` after the import with one whose ``Random`` is a
``random.Random`` subclass (the benchmark's tracer swaps in one that
counts the bits drawn) still reaches every draw.
"""
from __future__ import annotations

import sys
from itertools import accumulate

from .trees import DepTree, Forest, parse, parse_forest


class _Deferred(type(sys)):
    """A module whose attributes are those of the module of its name,
    imported at the first lookup."""

    def __getattr__(self, attr: str):
        return getattr(__import__(self.__name__), attr)


random = _Deferred("_random")


class SamplerState:
    """A seeded random stream.

    Single-owner mutable: each draw advances the stream.  Distinct states
    can be used concurrently.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def stars(self, n: int) -> list[int]:
        """A uniform (n-1)-subset of range(3n-2), sorted."""
        getrandbits = self.rng.getrandbits
        pool = list(range(3 * n - 2))
        stars = []
        for m in range(3 * n - 2, 2 * n - 1, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            stars.append(pool[j])
            pool[j] = pool[m - 1]  # the last of the pool's m slots fills the gap
        stars.sort()
        return stars


def _tree_from_stars(n: int, stars) -> str:
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


def sample_text(n: int, state: SamplerState) -> str:
    """The canonical string of one uniform tree of size exactly n >= 1."""
    if n < 1:
        raise ValueError(f"tree size must be at least 1, got {n}")
    return _tree_from_stars(n, state.stars(n))


def sample_tree(n: int, state: SamplerState) -> DepTree:
    """One uniform tree of size exactly n >= 1."""
    return parse(sample_text(n, state))


def sample_forest(m: int, state: SamplerState) -> Forest:
    """One uniform forest of total size m (m = 0 gives the empty forest)."""
    if m < 0:
        raise ValueError(f"forest size must be nonnegative, got {m}")
    while True:
        text = sample_text(m + 1, state)
        if text.endswith("|]"):  # the root has no right children
            return parse_forest(text[1:-2])
