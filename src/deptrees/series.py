"""Truncated power series with exact coefficients, and the tree generating function.

Coefficients are exact integers: every series the package builds (T, and
the toll and cumulative GFs of the builtin tolls) is integral, so a
non-``int`` coefficient raises ``TypeError`` and a non-``int`` scalar
operand is refused.  Every binary operation truncates to the smaller of
the two orders.

The generating function T(z) = sum t_n z^n of tree counts satisfies

    T(z) = z / (1 - T(z))^2        equivalently    T (1 - T)^2 = z.

Its coefficients are the tree counts, so :func:`solve_tree_gf` reads them
from the count table rather than solving the equation (``verify`` checks
them against the equation coefficientwise, in :mod:`deptrees.verification`),
and :func:`eval_T_numeric` evaluates its branch through 0 on [0, 4/27] by
Viete's root T = (4/3) sin^2(a/3) of the cubic, where sin a = sqrt(27 z)/2:
with s = sin(a/3), sin a = 3s - 4s^3 gives T (1-T)^2 = (4/27) sin^2 a = z.
"""
from __future__ import annotations

from math import asin, sin, sqrt
from operator import add, mul

from .counting import build_count_table


class PowerSeries:
    """Immutable truncated series; index k of ``coeffs`` holds [z^k]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("PowerSeries is immutable")

    def __reduce__(self):
        return PowerSeries, (self.coeffs,)

    @classmethod
    def monomial(cls, order: int, power: int = 1, coeff=1) -> PowerSeries:
        """coeff * z^power truncated to ``order``."""
        if not 0 <= power <= order:
            raise ValueError(f"power {power} outside 0..{order}")
        c = [0] * (order + 1)
        c[power] = coeff
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"k={k} outside truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{shown}{tail}], order={self.order})"

    # ── ring operations (binary ops truncate to the smaller order) ──────

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            if not isinstance(other, int):
                return NotImplemented
            return PowerSeries((self.coeffs[0] + other,) + self.coeffs[1:])
        return PowerSeries(map(add, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            if not isinstance(other, int):
                return NotImplemented
            return PowerSeries(tuple(c * other for c in self.coeffs))
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        return PowerSeries(sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n + 1))

    __rmul__ = __mul__

    def quasi_inverse(self) -> PowerSeries:
        """b with (1 - self) * b = 1, requiring a zero constant term.

        This is the sequence construction on the coefficient level: the
        result enumerates ordered sequences of whatever ``self`` counts.
        """
        if self.coeffs[0] != 0:
            raise ValueError("quasi-inverse requires a zero constant term")
        a = self.coeffs
        b = [1]
        for m in range(1, self.order + 1):
            b.append(sum(map(mul, a[1 : m + 1], b[m - 1 :: -1])))
        return PowerSeries(b)


def solve_tree_gf(n_terms: int) -> PowerSeries:
    """T(z) to order ``n_terms``: [z^n] T is the tree count t_n."""
    return PowerSeries(build_count_table(n_terms).t)


#: Dominant singularity of T(z) as a float; the numeric domain boundary.
SINGULARITY_FLOAT = 4.0 / 27.0


def eval_T_numeric(z: float) -> float:
    """The root T* in [0, 1/3] of T (1-T)^2 = z, for z in [0, 4/27].

    Viete's root, the asin argument clamped as 27 * (4.0/27.0) rounds above
    4, then one step of T = z / (1-T)^2, which keeps z's relative accuracy
    where sin^2 is subnormal and, of slope 2T/(1-T) <= 1, magnifies no error.
    Near 4/27 the root is fixed only to about sqrt(rounding) (relative error
    2.1e-9 at z = (4/27)(1 - 1e-15)); the residual is within 1e-12.
    """
    if not 0.0 <= z <= SINGULARITY_FLOAT:
        raise ValueError(f"z={z!r} outside [0, 4/27]: beyond the dominant singularity")
    t = 4 / 3 * sin(asin(min(1.0, sqrt(27 * z) / 2)) / 3) ** 2
    return z / (1 - t) ** 2
