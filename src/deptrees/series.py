"""Truncated power series with exact coefficients, and the tree generating function.

Coefficients are exact integers: every series the package builds (T, and
the toll and cumulative GFs of the builtin tolls) is integral, so a
non-``int`` coefficient raises ``TypeError`` and a non-``int`` scalar
operand is refused.  Every binary operation truncates to the smaller of
the two orders.

The generating function T(z) = sum t_n z^n of tree counts satisfies

    T(z) = z / (1 - T(z))^2        equivalently    T (1 - T)^2 = z.

Its coefficients are the tree counts, so :func:`solve_tree_gf` reads them
from the count table rather than solving the equation;
:func:`verify_functional_identity` checks them against the equation
coefficientwise, which does not depend on how they were made, and
:func:`eval_T_numeric` evaluates T numerically on [0, 4/27] (the branch
with T(0) = 0 increasing to T(4/27) = 1/3).
"""
from __future__ import annotations

from operator import mul

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
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        )

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
        a = self.coeffs
        b = other.coeffs
        br = b[::-1]
        nb = len(b) - 1
        out = []
        for m in range(n + 1):
            k0 = max(0, m - nb)
            k1 = min(m, len(a) - 1)
            out.append(sum(map(mul, a[k0 : k1 + 1], br[nb - m + k0 : nb - m + k1 + 1])))
        return PowerSeries(out)

    __rmul__ = __mul__

    def square(self) -> PowerSeries:
        """Same as ``self * self`` but exploits symmetry of the convolution."""
        a = self.coeffs
        n = self.order
        out = []
        for m in range(n + 1):
            acc = 0
            for k in range(max(0, m - n), (m - 1) // 2 + 1):
                acc += a[k] * a[m - k]
            acc *= 2
            if m % 2 == 0:
                acc += a[m // 2] ** 2
            out.append(acc)
        return PowerSeries(out)

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


def z_times_derivative(a: PowerSeries) -> PowerSeries:
    """z * a'(z) at full order N: coefficient k becomes k * a_k."""
    return PowerSeries(tuple(k * c for k, c in enumerate(a.coeffs)))


def solve_tree_gf(n_terms: int) -> PowerSeries:
    """T(z) to order ``n_terms``: [z^n] T is the tree count t_n."""
    return PowerSeries(build_count_table(n_terms).t)


def verify_functional_identity(T: PowerSeries) -> int:
    """Largest order M with [z^k] (T (1-T)^2 - z) = 0 for all k <= M.

    Returns the truncation order of ``T`` when the identity holds exactly;
    0 means failure at order 1 (or at the constant term).
    """
    residual = list((T * (1 - T).square()).coeffs)
    if len(residual) > 1:
        residual[1] -= 1
    for k, c in enumerate(residual):
        if c != 0:
            return max(k - 1, 0)
    return T.order


#: Dominant singularity of T(z) as a float; the numeric domain boundary.
SINGULARITY_FLOAT = 4.0 / 27.0

_ONE_THIRD = 1.0 / 3.0
_RESIDUAL_TOL = 1e-12


def eval_T_numeric(z: float) -> float:
    """The root T* in [0, 1/3] of T (1-T)^2 = z, for z in [0, 4/27].

    Safeguarded Newton iteration: any step leaving the current bracket
    falls back to bisection.  The bracket is needed because the derivative
    (1-T)(1-3T) vanishes at T = 1/3, exactly where the singular endpoint
    z = 4/27 lives.  The convergence contract is on the residual
    (|T*(1-T*)^2 - z| <= 1e-12), not on the root: near the singularity the
    root is only determined to about the square root of the residual.
    """
    if not 0.0 <= z <= SINGULARITY_FLOAT:
        raise ValueError(f"z={z!r} outside [0, 4/27]: beyond the dominant singularity")
    if z == 0.0:
        return 0.0
    if z >= SINGULARITY_FLOAT:
        return _ONE_THIRD
    lo, hi = 0.0, _ONE_THIRD
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = x * (1.0 - x) ** 2 - z
        if fx < 0.0:
            lo = x
        elif fx > 0.0:
            hi = x
        else:
            break
        d = (1.0 - x) * (1.0 - 3.0 * x)
        nxt = x - fx / d if d > 0.0 else None
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-17 and abs(fx) <= _RESIDUAL_TOL:
            x = nxt
            break
        x = nxt
    residual = abs(x * (1.0 - x) ** 2 - z)
    if residual > _RESIDUAL_TOL:
        raise ArithmeticError(f"no convergence at z={z!r}: residual {residual:.3e}")
    return x
