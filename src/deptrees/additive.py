"""Additive tree parameters: tolls, exact totals, means.

An additive parameter is defined by a toll function e mapping each tree to a
nonnegative integer; the parameter itself is the recursion

    c(t) = e(t) + sum of c(r) over all root subtrees r (left and right).

With E(z) = sum of e(t) z^{|t|}, its cumulative GF, the sum of c(t) z^{|t|},
is C = E / (1 - 2z/(1-T)^3) = E (1-T)/(1-3T).  As T = z phi(T) with
phi(u) = (1-u)^{-2}, and 1 - u phi'(u)/phi(u) = (1-3u)/(1-u), Lagrange-Buermann
inversion gives the total over the size-n trees for E = F(T) with no series:

    [z^n] C = [z^n] F(T) (1-T)/(1-3T) = [u^n] F(u) (1-u)^{-2n}

    unit  E = T    F = u              binom(3n-2, n-1)
    leaf  E = z    F = u(1-u)^2       binom(3n-4, n-1) for n >= 2, 1 at n = 1
    size  E = zT'  F = u(1-u)/(1-3u)  sum over k < n of binom(2n-2+k, k) 3^{n-1-k}

These are the builtins' production route (``TollSpec.total``): the unit and
leaf binomials come from :mod:`deptrees.counting`'s prime-power kernel, the
one that gives t_n, and the size sum from a Horner loop.  A custom toll is
summed over the enumeration oracle, within its size limit.  Both GF forms
of C live in :mod:`deptrees.verification`, which checks the closed forms
against them and them against the oracle.
"""
from .counting import _binomial, _Record, _check_size, count_closed_form
from .trees import DepTree, enumerate_trees, iter_subtrees, size


class TollSpec(_Record):
    """A toll e(t) plus, for builtins, the exact total of its parameter.

    ``evaluate`` must be a pure function of the tree value returning a
    nonnegative int.  ``total``, if not None, maps a size n to the sum of
    c(t) over every size-n tree; a builtin ``total`` refuses a bad n as
    every sized entry point does.  Tolls without one fall back to
    enumeration (oracle-limited).  The record is the tuple
    ``(name, evaluate, total)``.
    """

    __slots__ = ()
    _fields = ("name", "evaluate", "total")

    def __new__(cls, name: str, evaluate, total=None):
        return tuple.__new__(cls, (name, evaluate, total))


def _checked_toll_value(toll: TollSpec, t: DepTree) -> int:
    v = toll.evaluate(t)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"toll {toll.name!r} must yield a nonnegative int, got {v!r}")
    return v


def fold_cost(t: DepTree, toll: TollSpec) -> int:
    """c(t) = e(t) + sum of c(r) over root subtrees.

    Unrolled, the recursion is the toll summed over every subtree of t, one
    per node; :func:`iter_subtrees` walks them on an explicit stack, so
    chains as deep as the tree is large are safe.
    """
    return sum(_checked_toll_value(toll, v) for v in iter_subtrees(t))


def _unit_total(n: int) -> int:
    _check_size(n)
    return _binomial(n - 1, 2 * n - 1)


def _leaf_total(n: int) -> int:
    _check_size(n)
    return _binomial(n - 1, 2 * n - 3) if n > 1 else 1


def _size_total(n: int) -> int:
    _check_size(n)
    # Horner in 3 over b_k = binom(2n-2+k, k), each from the last by one
    # small multiply and one exact division: O(n) steps on n-digit ints
    acc = b = 1
    for k in range(1, n):
        b = b * (2 * n - 2 + k) // k
        acc = 3 * acc + b
    return acc


_BUILTINS = (
    TollSpec("unit", lambda t: 1, _unit_total),
    TollSpec("leaf", lambda t: 1 if not t.left and not t.right else 0, _leaf_total),
    TollSpec("size", size, _size_total),
)


def builtin_tolls() -> list[TollSpec]:
    """The three builtin tolls: unit, leaf and size, in that order."""
    return list(_BUILTINS)


def toll_by_name(name: str) -> TollSpec:
    for spec in _BUILTINS:
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in _BUILTINS)
    raise ValueError(f"unknown toll {name!r}; builtins are: {known}")


def cumulative_by_enumeration(toll: TollSpec, n: int) -> int:
    """Sum of fold_cost over every size-n tree, straight from the oracle."""
    return sum(fold_cost(t, toll) for t in enumerate_trees(n))


def mean_parameter(toll: TollSpec, n: int):
    """Mean of c(t) over the size-n trees, as an exact ``Fraction``.

    The total is ``toll.total(n)`` when the toll has one, else the oracle's
    fold (refused above its limit before any tree is built), over t_n.
    """
    from fractions import Fraction

    total = cumulative_by_enumeration(toll, n) if toll.total is None else toll.total(n)
    return Fraction(total, count_closed_form(n))
