"""Exact counting of dependency trees, with numeric and asymptotic diagnostics.

Two production routes give the same numbers:

* :func:`tree_counts` steps t_1, t_2, ... by the term ratio of their closed
  form, one small multiply and one exact division per term; the CLI
  streams it, and :func:`build_count_table` reads its tables off it,
* :func:`count_closed_form` evaluates binom(3n-2, n-1) / n directly.

The check routes live in :mod:`deptrees.verification`: the convolution
recurrences that come straight out of the class construction (a tree is
a left forest, a root, and a right forest; a forest is a sequence of
trees), the Lagrange extraction of t_n from T(1-T)^2 = z, and exhaustive
enumeration at small sizes.  The counts are 1, 2, 7, 30, 143, ... (OEIS
A006013) and grow like (27/4)^n, so the counting is exact big-integer
arithmetic.

The float diagnostics are the Stirling approximation with its relative
error, and :func:`eval_T_numeric`, the branch through 0 of T(1-T)^2 = z on
[0, 4/27] by Viete's root T = (4/3) sin^2(a/3), where sin a = sqrt(27 z)/2:
with s = sin(a/3), sin a = 3s - 4s^3 gives T (1-T)^2 = (4/27) sin^2 a = z.
"""
from __future__ import annotations

import math
from itertools import islice
from _operator import itemgetter  # operator.py only re-exports _operator

_AMPLITUDE_LOG = -0.5 * math.log(27.0 * math.pi)
_LOG_GROWTH = math.log(6.75)

#: Dominant singularity of T(z) as a float; the numeric domain boundary.
SINGULARITY_FLOAT = 4.0 / 27.0


class CountTable(tuple):
    """Immutable tables of tree counts t_n and forest counts s_m.

    ``t[n]`` counts trees of size n (``t[0]`` is the 0 sentinel); ``s[m]``
    counts forests of total size m.  Both tuples of ints run through index
    ``n_max``.  The record is the pair ``(t, s)``: it unpacks, compares and
    hashes as that plain tuple.
    """

    __slots__ = ()

    t = property(itemgetter(0))
    s = property(itemgetter(1))

    def __new__(cls, t: tuple, s: tuple):
        return tuple.__new__(cls, (t, s))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}(t={self[0]!r}, s={self[1]!r})"

    @property
    def n_max(self) -> int:
        return len(self.t) - 1

    def tree_count(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside the table range 1..{self.n_max}")
        return self.t[n]

    def forest_count(self, m: int) -> int:
        if not 0 <= m <= self.n_max:
            raise IndexError(f"m={m} outside the table range 0..{self.n_max}")
        return self.s[m]


def tree_counts():
    """t_1, t_2, ... without end, each from the last by the term ratio

        t_{n+1} = t_n 3(3n-1)(3n+1) / (2(n+1)(2n+1))

    of t_n = binom(3n-2, n-1)/n.  The quotient is an integer, so the floor
    division is exact: one big-by-small product and division per term.
    """
    t, n = 1, 1
    while True:
        yield t
        t = t * (3 * (3 * n - 1) * (3 * n + 1)) // (2 * (n + 1) * (2 * n + 1))
        n += 1


def build_count_table(n_max: int) -> CountTable:
    """t_1..t_N from :func:`tree_counts`, and s_0..s_N read off t_1..t_{N+1}.

    s_m = binom(3m, m)/(2m+1) and binom(3m+1, m) = binom(3m, m)(3m+1)/(2m+1),
    so s_m = (m+1) t_{m+1} / (3m+1), an exact division.
    """
    if n_max < 1:
        raise ValueError(f"table size must be at least 1, got {n_max}")
    t = (0, *islice(tree_counts(), n_max + 1))
    s = tuple((m + 1) * t[m + 1] // (3 * m + 1) for m in range(n_max + 1))
    return CountTable(t[:-1], s)


def count_closed_form(n: int) -> int:
    """Exact t_n = binom(3n-2, n-1) / n; the division is checked exact."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    q, r = divmod(math.comb(3 * n - 2, n - 1), n)
    assert r == 0, f"n={n} does not divide binom(3n-2, n-1)"
    return q


def stirling_log_approx(n: int) -> float:
    """ln of the approximation (27/4)^n / (sqrt(27 pi) n^(3/2)).

    Stays in log space; (27/4)^n itself overflows a float near n = 360.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return _AMPLITUDE_LOG - 1.5 * math.log(n) + n * _LOG_GROWTH


def relative_error(n: int) -> float:
    """approx(n)/t_n - 1, with ln t_n taken exactly from the closed form."""
    return relative_error_of(stirling_log_approx(n), count_closed_form(n))


def relative_error_of(ln_approx: float, exact: int) -> float:
    """exp(ln_approx)/exact - 1, for a caller that already holds t_n.

    Stays in log space: ``math.log`` takes the int whole, so neither
    approx(n) nor t_n is formed as a float (both overflow near n = 360).
    """
    return math.expm1(ln_approx - math.log(exact))


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
    t = 4 / 3 * math.sin(math.asin(min(1.0, math.sqrt(27 * z) / 2)) / 3) ** 2
    return z / (1 - t) ** 2
