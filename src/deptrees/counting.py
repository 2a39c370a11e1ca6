"""Exact counting of dependency trees, with asymptotic diagnostics.

Three routes produce the same numbers:

* :func:`build_count_table` fills the tables of tree counts t_n and forest
  counts s_m from the term ratios of their closed forms, one small
  multiply and one exact division per entry,
* :func:`count_closed_form` evaluates binom(3n-2, n-1) / n directly,
* :func:`lagrange_coefficient` extracts the same number as the u^(n-1)
  coefficient of 1/(1-u)^(2n) scaled by 1/n, walking the binomial series
  term by term.

The convolution recurrences that come straight out of the class
construction (a tree is a left forest, a root, and a right forest; a
forest is a sequence of trees) are the independent check on all three;
they live in :mod:`deptrees.verification`, which also checks every route
against exhaustive enumeration at small sizes.  The counts are 1, 2, 7,
30, 143, ... (OEIS A006013) and grow like (27/4)^n, so everything here is
exact big-integer arithmetic.
"""
from __future__ import annotations

import math
from collections import namedtuple

_AMPLITUDE_LOG = -0.5 * math.log(27.0 * math.pi)
_LOG_GROWTH = math.log(6.75)


AsymptoticConstants = namedtuple(
    "AsymptoticConstants", "growth_rate singularity amplitude_log exponent"
)

#: The Fraction-valued constants, built on first access (PEP 562) so that
#: a run that never reads them does not import fractions and the re it
#: pulls in:
#:
#: * GROWTH_RATE = 27/4, the limit of t_{n+1}/t_n;
#: * SINGULARITY = 4/27, the dominant singularity of the generating function;
#: * ASYMPTOTICS, the constants of the leading-order approximation
#:   t_n ~ (27/4)^n / (sqrt(27 pi) n^(3/2)).
_LAZY_CONSTANTS = ("GROWTH_RATE", "SINGULARITY", "ASYMPTOTICS")


def __getattr__(name: str):
    if name not in _LAZY_CONSTANTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    growth, singularity = Fraction(27, 4), Fraction(4, 27)
    globals().update(
        GROWTH_RATE=growth,
        SINGULARITY=singularity,
        ASYMPTOTICS=AsymptoticConstants(
            growth_rate=growth,
            singularity=singularity,
            amplitude_log=_AMPLITUDE_LOG,
            exponent=-1.5,
        ),
    )
    return globals()[name]


class CountTable(namedtuple("CountTable", "t s")):
    """Immutable tables of tree counts t_n and forest counts s_m.

    ``t[n]`` counts trees of size n (``t[0]`` is the 0 sentinel); ``s[m]``
    counts forests of total size m.  Both tuples of ints run through index
    ``n_max``.
    """

    __slots__ = ()

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


def lagrange_coefficient(n: int) -> int:
    """t_n by coefficient extraction from the implicit equation z = T(1-T)^2.

    Expands 1/(1-u)^(2n) = sum_k binom(k+2n-1, k) u^k term by term via the
    multiplicative recurrence c_k = c_{k-1} (2n-1+k) / k, takes the term at
    k = n-1, and divides by n.  Deliberately shares no code with
    :func:`count_closed_form`.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    c = 1  # binom(2n-1, 0)
    for k in range(1, n):
        c = c * (2 * n - 1 + k) // k
    q, r = divmod(c, n)
    assert r == 0, f"n={n} does not divide the extracted coefficient"
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


def growth_ratio(n: int, table: CountTable):
    """t_{n+1}/t_n as an exact ``Fraction`` (converges to 27/4)."""
    from fractions import Fraction

    return Fraction(table.tree_count(n + 1), table.tree_count(n))
