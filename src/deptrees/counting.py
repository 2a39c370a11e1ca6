"""Exact counting of dependency trees, with asymptotic diagnostics.

Two production routes give the same numbers:

* :func:`build_count_table` fills the tables of tree counts t_n and forest
  counts s_m from the term ratios of their closed forms, one small
  multiply and one exact division per entry,
* :func:`count_closed_form` evaluates binom(3n-2, n-1) / n directly.

The check routes live in :mod:`deptrees.verification`: the convolution
recurrences that come straight out of the class construction (a tree is
a left forest, a root, and a right forest; a forest is a sequence of
trees), the Lagrange extraction of t_n from T(1-T)^2 = z, and exhaustive
enumeration at small sizes.  The counts are 1, 2, 7, 30, 143, ... (OEIS
A006013) and grow like (27/4)^n, so everything here is exact big-integer
arithmetic.
"""
from __future__ import annotations

import math
from operator import itemgetter

_AMPLITUDE_LOG = -0.5 * math.log(27.0 * math.pi)
_LOG_GROWTH = math.log(6.75)


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


def build_count_table(n_max: int) -> CountTable:
    """Fill t_1..t_N and s_0..s_N from the term ratios of their closed forms.

    t_n = binom(3n-2, n-1)/n and s_m = binom(3m, m)/(2m+1) are
    hypergeometric, so each entry is the previous one times a rational:

        t_{n+1} = t_n 3(3n-1)(3n+1) / (2(n+1)(2n+1))
        s_{m+1} = s_m 3(3m+1)(3m+2) / (2(m+1)(2m+3))

    Both quotients are integers, so every floor division is exact.  O(N)
    big-by-small products and divisions.
    """
    if n_max < 1:
        raise ValueError(f"table size must be at least 1, got {n_max}")
    t = [0, 1]
    s = [1]
    for n in range(1, n_max):
        t.append(t[n] * (3 * (3 * n - 1) * (3 * n + 1)) // (2 * (n + 1) * (2 * n + 1)))
    for m in range(n_max):
        s.append(s[m] * (3 * (3 * m + 1) * (3 * m + 2)) // (2 * (m + 1) * (2 * m + 3)))
    return CountTable(tuple(t), tuple(s))


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
