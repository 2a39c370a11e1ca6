"""Dependency trees: the data model, canonical text form, and exhaustive enumeration.

A dependency tree is a rooted plane tree whose root carries an ordered
sequence of left subtrees and an ordered sequence of right subtrees.  A
forest is an ordered (possibly empty) sequence of dependency trees.

Canonical grammar (ASCII, no separators)::

    tree := "[" tree* "|" tree* "]"

The left children appear before the "|", the right children after it.
Serialization is injective, and byte-lexicographic order of serializations
defines the total order on trees.  The traversals of a tree use explicit
stacks, so chains thousands of nodes deep are safe; only the enumeration's
``_tail`` recurses, at most about 2n frames deep for n at most
``DEFAULT_ORACLE_LIMIT``.

Exhaustive enumeration is capped at ``DEFAULT_ORACLE_LIMIT`` = 10, where
there are already 690690 trees; it is ground truth for the formula-based
modules, not a production path.  :func:`tree_runs` walks the grammar and
yields the sorted strings in runs, each a few of them newline-joined,
without holding them; it is the one way strings leave the walk.  The CLI's
``enumerate`` writes the runs whole, ``verify`` tallies them, and a reader
that wants single strings splits them.  Each call builds its own objects.
Per call on a 2-vCPU VM (tracemalloc peak), exhausting ``tree_runs`` took
0.003 / 0.008 / 0.04 s (0.2 / 0.5 / 1.2 MiB) at n = 8 / 9 / 10, and
``enumerate_trees`` 0.03 / 0.20 / 2.1 s (3 / 16 / 93 MiB).
"""
from .counting import _check_size

DEFAULT_ORACLE_LIMIT = 10


class ParseError(ValueError):
    """Malformed tree text; ``offset`` is the first offending byte."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"parse error at byte {offset}: {reason}")
        self.offset = offset


class OracleLimitError(ValueError):
    """Requested size ``n`` is beyond the exhaustive-enumeration limit, the
    class attribute ``limit`` (``DEFAULT_ORACLE_LIMIT``)."""

    limit = DEFAULT_ORACLE_LIMIT

    def __init__(self, n: int):
        super().__init__(f"size {n} exceeds the enumeration limit {self.limit}")


class DepTree:
    """An immutable dependency tree node.

    Equality, ordering, and hashing all go through the canonical
    serialization, which keeps them iterative (structural recursion would
    overflow on deep chains).
    """

    __slots__ = ("left", "right", "__weakref__")

    def __init__(self, left: "tuple[DepTree, ...]" = (), right: "tuple[DepTree, ...]" = ()):
        object.__setattr__(self, "left", left if isinstance(left, tuple) else tuple(left))
        object.__setattr__(self, "right", right if isinstance(right, tuple) else tuple(right))

    def __setattr__(self, name, value):
        raise AttributeError("DepTree is immutable")

    def __delattr__(self, name):
        raise AttributeError("DepTree is immutable")

    def __reduce__(self):
        return DepTree, (self.left, self.right)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DepTree):
            return NotImplemented
        return serialize(self) == serialize(other)

    def __hash__(self):
        return hash(serialize(self))

    def __lt__(self, other):
        if not isinstance(other, DepTree):
            return NotImplemented
        return serialize(self) < serialize(other)

    def __le__(self, other):
        if not isinstance(other, DepTree):
            return NotImplemented
        return serialize(self) <= serialize(other)

    def __repr__(self):
        text = serialize(self)
        if len(text) > 48:
            return f"<DepTree size={size(self)}>"
        return f"<DepTree {text}>"


Forest = tuple[DepTree, ...]


def iter_subtrees(t: DepTree):
    """Yield every subtree of ``t`` (including ``t`` itself), one per node."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.left)
        stack.extend(node.right)


def size(t: DepTree) -> int:
    """Number of nodes in ``t`` (always at least 1)."""
    return sum(1 for _ in iter_subtrees(t))


_BAR, _CLOSE = object(), object()  # serialize's stack markers for "|" and "]"


def serialize(t: DepTree) -> str:
    """Canonical text form of ``t`` per the grammar above; a node not a DepTree is a TypeError."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if item is _BAR:
            out.append("|")
        elif item is _CLOSE:
            out.append("]")
        elif isinstance(item, DepTree):
            out.append("[")
            stack.append(_CLOSE)
            stack.extend(reversed(item.right))
            stack.append(_BAR)
            stack.extend(reversed(item.left))
        else:
            raise TypeError(f"a tree node must be a DepTree, got {type(item).__name__}")
    return "".join(out)


def serialize_forest(forest: Forest) -> str:
    """Concatenated serializations; uniquely decodable (trees self-delimit)."""
    return "".join(serialize(t) for t in forest)


def _parse_tree_at(s: str, pos: int) -> tuple[DepTree, int]:
    if pos >= len(s):
        raise ParseError("unexpected end of input, expected '['", pos)
    if s[pos] != "[":
        raise ParseError(f"expected '[', found {s[pos]!r}", pos)
    pos += 1
    # each frame: (left children, right children or None while before the '|')
    stack: list[tuple[list, list | None]] = [([], None)]
    while True:
        if pos >= len(s):
            raise ParseError("unexpected end of input (unclosed bracket)", pos)
        ch = s[pos]
        if ch == "[":
            stack.append(([], None))
        elif ch == "|":
            left, right = stack[-1]
            if right is not None:
                raise ParseError("second '|' within one node", pos)
            stack[-1] = (left, [])
        elif ch == "]":
            left, right = stack.pop()
            if right is None:
                raise ParseError("missing '|' before ']'", pos)
            node = DepTree(tuple(left), tuple(right))
            pos += 1
            if not stack:
                return node, pos
            parent_left, parent_right = stack[-1]
            (parent_left if parent_right is None else parent_right).append(node)
            continue
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
        pos += 1


def parse(s: str) -> DepTree:
    """Inverse of :func:`serialize`; raises :class:`ParseError` on bad input."""
    tree, end = _parse_tree_at(s, 0)
    if end != len(s):
        raise ParseError("trailing input after a complete tree", end)
    return tree


def parse_forest(s: str) -> Forest:
    """Parse a concatenation of serialized trees (possibly empty)."""
    pos = 0
    out = []
    while pos < len(s):
        tree, pos = _parse_tree_at(s, pos)
        out.append(tree)
    return tuple(out)


# ── exhaustive enumeration (the oracle) ─────────────────────────────────────
#
# The strings come from a depth-first walk of the grammar: a prefix leaves
# pending closers and r nodes to place, and the next byte is "[" (pushing
# "|]") or the top closer, never the root's "]" while r > 0.  "[" < "]" < "|",
# so trying "[" first yields each string once, in sorted order.  The walk
# yields a run per prefix with at most two nodes left: ``_tail`` memoises the
# completions of each (closers, r) as one newline-joined string, and
# str.replace puts the prefix behind each, so n = 10 takes 21318 runs, not
# 690690 strings.  Memoising three nodes walked n = 10 in 0.03 s, not 0.04,
# but held 3.5 MiB, not 1.2.  The objects
# come from the class construction, whose nested cross products that order
# already sorts.  A tree [L|R] sorts first by L, then by R.  A forest sorts
# first by its first tree, then by the rest: tree strings are prefix-free, so
# two different first trees differ inside the shorter one.  In both cases a
# forest comes before its own prefixes, as "[" sorts before "|" and "]", so
# the empty forest comes last.  Two forests of one size are never prefixes of
# one another, so keeping one size keeps string order.


def _tail(closers: str, r: int, tails: dict) -> str:
    """Every completion of ``closers`` with ``r`` nodes to place, in order, as
    one newline-joined string; ``tails`` memoises them."""
    if not r:
        return closers
    if (closers, r) not in tails:
        tail = "[" + _tail("|]" + closers, r - 1, tails).replace("\n", "\n[")
        if len(closers) > 1:
            c = closers[0]
            tail += "\n" + c + _tail(closers[1:], r, tails).replace("\n", "\n" + c)
        tails[closers, r] = tail
    return tails[closers, r]


def _walk(n: int):
    """The strings of size ``n`` in order, one run per prefix with at most two
    nodes left: its completions, newline-joined, each behind the prefix."""
    tails: dict = {}
    stack = [("[", "|]", n - 1)]
    while stack:
        prefix, closers, r = stack.pop()
        if r <= 2:
            yield prefix + _tail(closers, r, tails).replace("\n", "\n" + prefix)
        else:
            if len(closers) > 1:
                stack.append((prefix + closers[0], closers[1:], r))
            stack.append((prefix + "[", "|]" + closers, r - 1))


def _forests(m: int) -> list:
    """``forests[k]`` for k = 0..m: every forest of size at most k as a (forest,
    size) pair, in canonical order; ``_trees`` pairs the trees the same way."""
    forests = [[((), 0)]]
    for k in range(1, m + 1):
        forests.append([((tree,) + rest, s + j)
                        for tree, s in _trees(forests, k) for rest, j in forests[k - s]] + forests[0])
    return forests


def _trees(forests: list, k: int) -> list:
    return [(DepTree(left, right), 1 + i + j)
            for left, i in forests[k - 1] for right, j in forests[k - 1 - i]]


def _check_oracle_size(n: int, what: str = "n", least: int = 1) -> None:
    _check_size(n, what, least)
    if n > DEFAULT_ORACLE_LIMIT:
        raise OracleLimitError(n)


def tree_runs(n: int):
    """An iterator over runs of the sorted canonical strings of size ``n``: each
    run is a few of them, newline-joined, and the runs in turn hold every
    string once, in order.  A bad ``n`` is refused when it is called, as by
    :func:`enumerate_trees`, before the first run."""
    _check_oracle_size(n)
    return _walk(n)


def enumerate_trees(n: int) -> list[DepTree]:
    """Every tree of size ``n`` exactly once, sorted by serialization.

    Refuses ``n > DEFAULT_ORACLE_LIMIT``: the counts grow like (27/4)^n, so
    unbounded enumeration is never what you want by accident.
    """
    _check_oracle_size(n)
    forests = _forests(n - 1)
    return [DepTree(left, right)
            for left, i in forests[n - 1] for right, j in forests[n - 1 - i] if i + j == n - 1]


def enumerate_forests(m: int) -> list[Forest]:
    """Every forest of total size ``m``, sorted by concatenated serialization."""
    _check_oracle_size(m, "m", 0)
    if not m:
        return [()]
    forests = _forests(m - 1)
    return [(tree,) + rest for tree, s in _trees(forests, m) for rest, j in forests[m - s] if s + j == m]
