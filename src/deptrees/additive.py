"""Additive tree parameters: tolls, cumulative generating functions, means.

An additive parameter is defined by a toll function e mapping each tree to a
nonnegative integer; the parameter itself is the recursion

    c(t) = e(t) + sum of c(r) over all root subtrees r (left and right).

Its cumulative generating function C(z) = sum over all trees of c(t) z^{|t|}
satisfies, with E(z) = sum of e(t) z^{|t|},

    C(z) = E(z) / (1 - 2z/(1-T)^3) = E(z) (1-T) / (1-3T).

Both forms are implemented independently (:func:`cumulative_gf` is the
simplified right-hand form, :func:`cumulative_gf_via_sequences` the raw
sequence form) so they can be cross-checked coefficient by coefficient, and
both are cross-checked against literal enumeration for small sizes.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .counting import CountTable
from .series import PowerSeries, _shift_up, z_times_derivative
from .trees import DEFAULT_ORACLE_LIMIT, DepTree, OracleLimitError, enumerate_trees, size


class TollSpec(
    namedtuple("TollSpec", "name evaluate toll_gf description", defaults=(None, ""))
):
    """A toll e(t) plus, for builtins, a closed form for E(z).

    ``evaluate`` must be a pure function of the tree value returning a
    nonnegative int.  ``toll_gf``, if not None, maps the tree GF T(z) to
    E(z) at the same order; tolls without one fall back to enumeration
    (oracle-limited).  ``description`` defaults to "".
    """

    __slots__ = ()

    def toll_series(self, T: PowerSeries, limit: int = DEFAULT_ORACLE_LIMIT) -> PowerSeries:
        """E(z) to the order of ``T``, from the closed form over ``T`` or
        else by enumeration."""
        order = T.order
        if self.toll_gf is not None:
            E = self.toll_gf(T)
            if E.order != order:
                raise ValueError(
                    f"toll {self.name!r}: toll_gf returned order {E.order}, wanted {order}"
                )
            return E
        return toll_gf_by_enumeration(self, order, limit=limit)


def _checked_toll_value(toll: TollSpec, t: DepTree) -> int:
    v = toll.evaluate(t)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"toll {toll.name!r} must yield a nonnegative int, got {v!r}")
    return v


def fold_cost(t: DepTree, toll: TollSpec) -> int:
    """c(t) = e(t) + sum of c(r) over root subtrees, evaluated iteratively.

    Post-order over an explicit stack; chains make the natural recursion
    as deep as the tree size.
    """
    schedule = []
    stack = [t]
    while stack:
        node = stack.pop()
        schedule.append(node)
        stack.extend(node.left)
        stack.extend(node.right)
    cost: dict[int, int] = {}
    for node in reversed(schedule):
        c = _checked_toll_value(toll, node)
        for child in node.left + node.right:
            c += cost[id(child)]
        cost[id(node)] = c
    return cost[id(t)]


def _leaf_gf(T: PowerSeries) -> PowerSeries:
    # only the single-node tree has e = 1, so E(z) = z exactly
    if T.order == 0:
        return PowerSeries.zero(0)
    return PowerSeries.monomial(T.order, 1)


_BUILTINS = (
    TollSpec("unit", lambda t: 1, lambda T: T, "e = 1 at every node; c(t) = |t|"),
    TollSpec(
        "leaf",
        lambda t: 1 if not t.left and not t.right else 0,
        _leaf_gf,
        "e = 1 exactly on the single node; c(t) counts leaves",
    ),
    TollSpec(
        "size",
        size,
        z_times_derivative,
        "e(t) = |t|; c(t) is the total path length plus |t|",
    ),
)


def builtin_tolls() -> list[TollSpec]:
    """The three builtin tolls: unit (E = T), leaf (E = z), size (E = zT')."""
    return list(_BUILTINS)


def toll_by_name(name: str) -> TollSpec:
    for spec in _BUILTINS:
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in _BUILTINS)
    raise ValueError(f"unknown toll {name!r}; builtins are: {known}")


def toll_gf_by_enumeration(
    toll: TollSpec, order: int, limit: int = DEFAULT_ORACLE_LIMIT
) -> PowerSeries:
    """E(z) to ``order`` by summing e(t) over every tree of each size.

    Only viable below the oracle limit, which is checked before any
    enumeration starts; closed forms are reserved for the builtin tolls.
    """
    if order > limit:
        raise OracleLimitError(order, limit)
    coeffs = [0] * (order + 1)
    for n in range(1, order + 1):
        coeffs[n] = sum(_checked_toll_value(toll, t) for t in enumerate_trees(n, limit=limit))
    return PowerSeries(coeffs)


def _reciprocal(a: PowerSeries) -> PowerSeries:
    """1/a for a series with constant term exactly 1."""
    if a.coeffs[0] != 1:
        raise ValueError("reciprocal requires constant term 1")
    return (1 - a).quasi_inverse()


def cumulative_gf(E: PowerSeries, T: PowerSeries) -> PowerSeries:
    """C = E (1-T) / (1-3T), truncated to the smaller input order."""
    n = min(E.order, T.order)
    E = E.truncate(n)
    T = T.truncate(n)
    return E * (1 - T) * (3 * T).quasi_inverse()


def cumulative_gf_via_sequences(E: PowerSeries, T: PowerSeries) -> PowerSeries:
    """C = E / (1 - 2z/(1-T)^3), the unsimplified sequence form.

    Kept deliberately separate from :func:`cumulative_gf`; agreement of the
    two routes is one of the verification checks.
    """
    n = min(E.order, T.order)
    E = E.truncate(n)
    T = T.truncate(n)
    one_minus_T_cubed = (1 - T).square() * (1 - T)
    kernel = _shift_up(_reciprocal(one_minus_T_cubed)) * 2
    return E * kernel.quasi_inverse()


def cumulative_by_enumeration(
    toll: TollSpec, n: int, limit: int = DEFAULT_ORACLE_LIMIT
) -> int:
    """Sum of fold_cost over every size-n tree, straight from the oracle."""
    if n < 1:
        raise ValueError(f"tree sizes start at 1, got {n}")
    return sum(fold_cost(t, toll) for t in enumerate_trees(n, limit=limit))


def mean_parameter(toll: TollSpec, n: int, table: CountTable) -> Fraction:
    """[z^n] C / t_n as an exact rational, with T(z) read from ``table``."""
    if n < 1:
        raise ValueError(f"tree sizes start at 1, got {n}")
    t_n = table.tree_count(n)
    T = PowerSeries(table.t[: n + 1])
    C = cumulative_gf(toll.toll_series(T), T)
    return Fraction(C.coefficient(n), t_n)
