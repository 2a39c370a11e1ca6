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

The cost is n-1 bounded draws of random bits, one pass over a byte per
slot that reads the stars off in increasing order, and two passes over the
2n gap counts, one that finds the rotation and one that writes its word:
no sort, no count table, no big integers and no object per tree node.
The draw's pool holds 0 for a slot that still holds its own index, so it
has an int object only where a refill put one, not one per slot.  At
n = 10^6 a cold ``sample`` takes 1.1-1.2 s and 56 MB peak RSS (2-vCPU
VM, Python 3.11).
:func:`sample_text` returns the canonical string the map produces;
:func:`sample_tree` parses it into a :class:`DepTree`.
:func:`sample_forest` draws trees of size m+1 with :func:`sample_text`
until the root has no right children, and returns the root's left
forest, a uniform forest of size m; a draw is accepted with probability
(m+1)/(3m+1) >= 1/3.

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
attribute ``random`` is a plain stand-in module whose own ``__getattr__``
(PEP 562) reads each attribute from ``_random``, which its first lookup,
in :class:`SamplerState`, imports.  It is a module object, as an import
would bind, so code that replaces ``sampler.random`` after the import
with one whose ``Random`` is a ``random.Random`` subclass (the
benchmark's tracer swaps in one that counts the bits drawn) still
reaches every draw.
"""
import sys
from _operator import sub  # operator.py only re-exports _operator
from itertools import compress, count

from .counting import _check_size
from .trees import DepTree, Forest, parse, parse_forest

random = type(sys)("_random")
random.__getattr__ = lambda attr: getattr(__import__("_random"), attr)


class SamplerState:
    """A random stream seeded by an int of at least 0.

    A negative seed is refused with ``ValueError`` and any other with
    ``TypeError``: ``_random`` would seed -s as s, a str by its salted hash and
    None by OS entropy.  Single-owner mutable: each draw advances the stream.
    Distinct states can be used concurrently.  A state pickles and deep-copies
    with its stream's position: a copy draws what the original would draw next.
    """

    def __init__(self, seed: int):
        _check_size(seed, "seed", 0)
        self.seed = seed
        self.rng = random.Random(seed)

    def __reduce__(self):
        # ``_random.Random`` itself neither pickles nor copies
        return type(self), (self.seed,), self.rng.getstate()

    def __setstate__(self, state) -> None:
        self.rng.setstate(state)

    def stars(self, n: int):
        """A uniform (n-1)-subset of range(3n-2): an iterator of its slots
        in increasing order."""
        getrandbits = self.rng.getrandbits
        # a 0 in the pool reads as the slot's own index, which is exact: the
        # value 0 sits only in slot 0, and a refill copies from a slot >= 2n-1
        slots = 3 * n - 2
        pool = [0] * slots
        chosen = bytearray(slots)
        for m in range(slots, 2 * n - 1, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            chosen[pool[j] or j] = 1
            pool[j] = pool[m - 1] or m - 1  # the last of the pool's m slots fills the gap
        return compress(count(), chosen)


def _tree_from_stars(n: int, stars) -> str:
    """The canonical string of the tree that a sorted (n-1)-subset of
    range(3n-2) encodes; every tree of size n has exactly n preimages."""
    gaps = [0] * (2 * n)  # a_1, b_1, ..., a_n, b_n
    for gap in map(sub, stars, count()):
        gaps[gap] += 1  # slot - rank bars precede this star
    # the running sum of (children - 1) over the nodes ends at -1; the word
    # starts just after the first node where it reaches its minimum
    pairs = iter(gaps)
    low = total = start = node = 0
    for a, b in zip(pairs, pairs):
        node += 1
        total += a + b - 1
        if total < low:
            low = total
            start = node
    start = 2 * (start % n)
    out = []
    # closing tokens and open child slots (None), top last; the slot that
    # the next node fills at once is never pushed
    pending = []
    pairs = iter(gaps[start:] + gaps[:start])
    for a, b in zip(pairs, pairs):
        if a:  # the next node is its first left child
            out.append("[")
            pending.append("]")
            pending += [None] * b
            pending.append("|")
            pending += [None] * (a - 1)
        elif b:  # the next node is its first right child
            out.append("[|")
            pending.append("]")
            pending += [None] * (b - 1)
        else:  # a leaf: close up to the next open slot
            out.append("[|]")
            while pending:
                token = pending.pop()
                if token is None:
                    break
                out.append(token)
    return "".join(out)


def sample_text(n: int, state: SamplerState) -> str:
    """The canonical string of one uniform tree of size exactly n >= 1."""
    _check_size(n)
    return _tree_from_stars(n, state.stars(n))


def sample_tree(n: int, state: SamplerState) -> DepTree:
    """One uniform tree of size exactly n >= 1."""
    return parse(sample_text(n, state))


def sample_forest(m: int, state: SamplerState) -> Forest:
    """One uniform forest of total size m >= 0 (m = 0 gives the empty forest)."""
    _check_size(m, "m", 0)
    while True:
        text = sample_text(m + 1, state)
        if text.endswith("|]"):  # the root has no right children
            return parse_forest(text[1:-2])
