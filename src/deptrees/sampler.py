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

The cost is one ``random.sample`` of n-1 slots, a sort and a linear
scan: no count table and no big integers.  :func:`sample_text` returns
the canonical string the map produces; :func:`sample_tree` parses it into
a :class:`DepTree`.  :func:`sample_forest` draws trees of size m+1 with
:func:`sample_text` until the root has no right children, and returns the
root's left forest, a uniform forest of size m; a draw is accepted with
probability (m+1)/(3m+1) >= 1/3.

The pseudo-random stream is the stdlib Mersenne Twister
(:class:`random.Random`).  Reproducibility is per build: the same seed
gives the same samples on the same Python version.
"""
from __future__ import annotations

import random
from itertools import accumulate

from .trees import DepTree, Forest, parse, parse_forest


class SamplerState:
    """A seeded random stream.

    Single-owner mutable: each draw advances the stream.  Distinct states
    can be used concurrently.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)


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
    return _tree_from_stars(n, sorted(state.rng.sample(range(3 * n - 2), n - 1)))


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
