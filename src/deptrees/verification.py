"""Cross-validation suite tying the independent computation routes together.

Four checks, each pitting at least two unrelated implementations against
each other:

  count-agreement    the ratio table's t, and the s it reads off t, vs the
                     convolution recurrences, t vs closed form and Lagrange
                     extraction, and both vs exhaustive enumeration: t_n
                     distinct, sorted tree strings at each n up to the
                     oracle limit L, s_{n-1} of which end in "|]"
  series-identity    T(1-T)^2 = z coefficientwise, and zT' = T(1-T)/(1-3T)
                     with its denominator cleared, zT' (1-3T) = T(1-T)
  additive-agreement one kernel K = (1-T)/(1-3T) vs its sequence form, to order
                     N; each builtin toll's closed-form totals vs its GF E K,
                     and E K vs string folds over the oracle
  sampler-exact      the real sampler fed every star subset once: for n <= 6,
                     exactly n t_n draws succeed, each tree hit exactly n times

The convolution recurrences of the class construction
(:func:`convolution_table`), the Lagrange extraction of t_n
(:func:`lagrange_coefficient`), the residual T(1-T)^2 - z, the derivative
zT' (:func:`z_times_derivative`), both cumulative GF forms and the
truncated series algebra they are written in (:class:`PowerSeries`) serve
no production path; they exist here only as check routes.  1/(1-3T) is
formed once per run, as the additive check's kernel K.

:func:`run_verification` builds one count table, the production route's,
and walks each oracle size once, as the runs of
:func:`~deptrees.trees.tree_runs`.  It tallies each size as the runs come:
how many strings, whether they strictly increase, across runs too, how many
end in "|]", and each builtin toll's fold, which adds up over a
newline-joined run; no string is held.  The sampler check walks its own
sizes, up to ``SAMPLER_EXACT_LIMIT``, holding one size's strings at a time.
It hands each check what it reads and names the ``(passed, detail)`` pair
the check returns.  Used by the CLI verify
subcommand; it returns structured results so callers decide presentation
and exit codes.  A check that raises is reported as a failure, not
propagated: the suite must survive a corrupted table, which tests make by
patching ``counting.build_count_table``.
"""
from itertools import chain, combinations
from _operator import add, mul  # operator.py only re-exports _operator

from . import counting
from .additive import builtin_tolls
from .sampler import sample_text
from .trees import _check_oracle_size, tree_runs

#: largest ``series_terms``.  The count check convolves to that order in
#: O(N^2) big-int products and the series checks multiply series of that
#: order: about 1 s at 512 and 9 s at 1024 on a 2-vCPU VM (Python 3.11).
MAX_SERIES_TERMS = 512

#: largest size the sampler check replays, in n t_n draws (4368 at n = 6)
SAMPLER_EXACT_LIMIT = 6


class CheckResult(counting._Record):
    """One check's verdict: its name, whether it passed, and a detail line.

    The record is the tuple ``(name, passed, detail)``.
    """

    __slots__ = ()
    _fields = ("name", "passed", "detail")

    def __new__(cls, name: str, passed: bool, detail: str):
        return tuple.__new__(cls, (name, passed, detail))


class PowerSeries:
    """Truncated series of int coefficients, ``coeffs[k]`` = [z^k]; binary
    operations truncate to the smaller order, and take only int scalars."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        if isinstance(other, int):
            return PowerSeries((self.coeffs[0] + other, *self.coeffs[1:]))
        if isinstance(other, PowerSeries):
            return PowerSeries(map(add, self.coeffs, other.coeffs))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return PowerSeries(c * other for c in self.coeffs)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        return PowerSeries(sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n + 1))

    __rmul__ = __mul__

    def quasi_inverse(self) -> "PowerSeries":
        """b with (1 - self) b = 1, the sequence construction; the constant term must be 0."""
        if self.coeffs[0] != 0:
            raise ValueError("quasi-inverse requires a zero constant term")
        a, b = self.coeffs, [1]
        for m in range(1, self.order + 1):
            b.append(sum(map(mul, a[1 : m + 1], b[m - 1 :: -1])))
        return PowerSeries(b)


def convolution_table(n_max: int) -> counting.CountTable:
    """Fill t_1..t_N and s_0..s_N by the convolution recurrences.

    t_m = sum_{i+j=m-1} s_i s_j   (left/right forest split at the root)
    s_m = sum_{k=1..m} t_k s_{m-k}   (size of the first tree in the forest)

    O(N^2) big-integer multiply-adds.
    """
    counting._check_size(n_max, "n_max")
    t = [0] * (n_max + 1)
    s = [0] * (n_max + 1)
    s[0] = 1
    for m in range(1, n_max + 1):
        t[m] = sum(map(mul, s[:m], s[m - 1 :: -1]))
        s[m] = sum(map(mul, t[1 : m + 1], s[m - 1 :: -1]))
    return counting.CountTable(tuple(t), tuple(s))


def lagrange_coefficient(n: int) -> int:
    """t_n by coefficient extraction from the implicit equation z = T(1-T)^2.

    Expands 1/(1-u)^(2n) = sum_k binom(k+2n-1, k) u^k term by term via the
    multiplicative recurrence c_k = c_{k-1} (2n-1+k) / k, takes the term at
    k = n-1, and divides by n.  Deliberately shares no code with
    :func:`~deptrees.counting.count_closed_form`.
    """
    counting._check_size(n)
    c = 1  # binom(2n-1, 0)
    for k in range(1, n):
        c = c * (2 * n - 1 + k) // k
    q, r = divmod(c, n)
    assert r == 0, f"n={n} does not divide the extracted coefficient"
    return q


def _size_fold(text: str) -> int:
    # c(t) for e = |t| is the sum of the depths of the nodes, counting the
    # root as 1: the nesting depth just after each node's "[".  Each tree
    # closes at depth 0, so over a newline-joined run it sums the trees' folds
    total = depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
            total += depth
        elif ch == "]":
            depth -= 1
    return total


#: builtin toll name -> c(t) read off the canonical string of t, with no
#: tree object: a route shared with neither the GF nor the closed forms.
#: Each fold of a newline-joined run is the sum of its strings' folds
_TOLL_FOLDS = {
    "unit": lambda text: text.count("["),
    "leaf": lambda text: text.count("[|]"),
    "size": _size_fold,
}


def cumulative_gf(E: PowerSeries, T: PowerSeries) -> PowerSeries:
    """C = E (1-T) / (1-3T), at the smaller input order; E = 1 gives the kernel."""
    return E * (1 - T) * (3 * T).quasi_inverse()


def _shift_up(a: PowerSeries) -> PowerSeries:
    """Multiply by z, keeping the truncation order."""
    return PowerSeries((0,) + a.coeffs[:-1])


def z_times_derivative(a: PowerSeries) -> PowerSeries:
    """z * a'(z) at full order N: coefficient k becomes k * a_k."""
    return PowerSeries(tuple(k * c for k, c in enumerate(a.coeffs)))


def cumulative_gf_via_sequences(E: PowerSeries, T: PowerSeries) -> PowerSeries:
    """C = E / (1 - 2z/(1-T)^3), the unsimplified sequence form.

    Kept deliberately separate from :func:`cumulative_gf`; agreement of the
    two routes is one of the verification checks.
    """
    # 1/(1-T)^3 as the quasi-inverse of 1 - (1-T)^3, which has no constant term
    one_minus_T_cubed = (1 - T) * (1 - T) * (1 - T)
    kernel = _shift_up((1 - one_minus_T_cubed).quasi_inverse()) * 2
    return E * kernel.quasi_inverse()


#: builtin toll name -> E(z) = sum of e(t) z^{|t|}, from T(z) at its order
_TOLL_GFS = {
    "unit": lambda T: T,
    "leaf": lambda T: PowerSeries((0, 1, *[0] * (T.order - 1))),
    "size": z_times_derivative,
}


class _Tally(counting._Record):
    """One oracle size, walked once: how many strings, whether each is above
    the one before, how many end in "|]", and each builtin toll's total."""

    __slots__ = ()
    _fields = ("count", "increasing", "forests", "totals")

    def __new__(cls, count: int, increasing: bool, forests: int, totals: dict):
        return tuple.__new__(cls, (count, increasing, forests, totals))


def _tally(runs) -> _Tally:
    """Tally one size from its runs as they come, holding none of its strings."""
    count = forests = 0
    totals = dict.fromkeys(_TOLL_FOLDS, 0)
    increasing, last = True, ""
    for run in runs:
        texts = run.split("\n")
        count += len(texts)
        # each string above the one before, the last of the previous run too
        increasing = increasing and all(map(str.__lt__, chain((last,), texts), texts))
        last = texts[-1]
        # every string but the last is followed by its newline
        forests += run.count("|]\n") + run.endswith("|]")
        for name, fold in _TOLL_FOLDS.items():
            totals[name] += fold(run)
    return _Tally(count, increasing, forests, totals)


def _check_counts(table: counting.CountTable, tallies: list) -> tuple[bool, str]:
    conv = convolution_table(table.n_max)
    for n in range(1, table.n_max + 1):
        a = table.tree_count(n)
        b = conv.t[n]
        c = counting.count_closed_form(n)
        d = lagrange_coefficient(n)
        if not a == b == c == d:
            return False, f"n={n}: table {a}, convolution {b}, closed form {c}, Lagrange {d}"
    for m in range(table.n_max + 1):
        if table.forest_count(m) != conv.s[m]:
            return False, f"m={m}: forest table {table.forest_count(m)}, convolution {conv.s[m]}"
    # t_n strictly increasing strings are t_n distinct trees, and those that
    # end in "|]" are the distinct forests of size n - 1, one root above each
    for n in range(1, len(tallies)):
        if tallies[n].count != table.tree_count(n) or not tallies[n].increasing:
            return False, (
                f"enumeration at n={n} is not {table.tree_count(n)} distinct sorted trees"
            )
    for m in range(len(tallies) - 1):
        if tallies[m + 1].forests != table.forest_count(m):
            return False, (
                f"enumeration at m={m} is not {table.forest_count(m)} distinct sorted forests"
            )
    return True, (
        f"four routes agree for n=1..{table.n_max}, forests to m={table.n_max}, "
        f"enumeration to n={len(tallies) - 1}"
    )


def _check_series(t: tuple) -> tuple[bool, str]:
    T = PowerSeries(t)
    P = T * (1 - T)
    # the residual T(1-T)^2 - z: [z^1] of T(1-T)^2 must be 1, every other 0
    for k, c in enumerate((P * (1 - T)).coeffs):
        if c != (k == 1):
            return False, f"T(1-T)^2 = z fails beyond order {max(k - 1, 0)}"
    # zT' = T(1-T)/(1-3T), the unit toll's cumulative GF, with its denominator
    # cleared: 1 - 3T starts at 1, so the two forms agree to the same order
    if z_times_derivative(T) * (1 - 3 * T) != P:
        return False, "zT' != T(1-T)/(1-3T)"
    return True, f"functional and derivative identities hold to order {T.order}"


def _check_additive(t: tuple, tallies: list) -> tuple[bool, str]:
    T = PowerSeries(t)
    # every toll's C is E K: one kernel K, its two forms compared once to order N
    K = cumulative_gf(1, T)
    if K != cumulative_gf_via_sequences(1, T):
        return False, "the two GF forms differ"
    gfs = [(toll, (_TOLL_GFS[toll.name](T) * K).coeffs) for toll in builtin_tolls()]
    for toll, c in gfs:
        for n in range(1, T.order + 1):
            if toll.total(n) != c[n]:
                return False, f"toll {toll.name}, n={n}: closed form {toll.total(n)} vs GF {c[n]}"
    for n in range(1, len(tallies)):
        for toll, c in gfs:
            direct = tallies[n].totals[toll.name]
            if c[n] != direct:
                return False, f"toll {toll.name}, n={n}: GF {c[n]} vs oracle {direct}"
    return True, (
        f"closed forms, both GF forms and oracle totals agree "
        f"(order {T.order}, oracle n<={len(tallies) - 1})"
    )


class _EverySubset:
    """Stands in for a :class:`~deptrees.sampler.SamplerState`: its
    ``stars(n)`` returns each (n-1)-subset of range(3n-2), for the n of its
    first call, once, in turn, then raises StopIteration."""

    subsets = None

    def stars(self, n):
        self.subsets = self.subsets or combinations(range(3 * n - 2), n - 1)
        return next(self.subsets)


def _check_sampler(limit: int) -> tuple[bool, str]:
    # every tree of size n has exactly n of the binom(3n-2, n-1) = n t_n
    # star subsets as preimages (the cycle lemma), so the real sampler fed
    # each subset once must succeed n t_n times, fail on the next draw, and
    # hit each tree exactly n times
    for n in range(1, limit + 1):
        want = dict.fromkeys("\n".join(tree_runs(n)).split("\n"), n)
        draws = n * len(want)
        stream = _EverySubset()
        hits = {}
        try:
            for _ in range(draws + 1):
                text = sample_text(n, stream)
                hits[text] = hits.get(text, 0) + 1
        except StopIteration:
            pass
        if (drawn := sum(hits.values())) != draws:
            return False, f"n={n}: {drawn} draws succeeded, not {draws}"
        if hits != want:
            off = sum(hits.get(s) != want.get(s) for s in hits.keys() | want.keys())
            return False, f"n={n}: {off} tree(s) off their count of {n}"
    return True, (
        f"every star subset drawn once: each tree hit exactly n times for n<={limit}"
    )


def _guarded(name: str, check, *inputs) -> CheckResult:
    try:
        return CheckResult(name, *check(*inputs))
    except Exception as exc:  # noqa: BLE001  - any crash is a finding here
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_verification(oracle_limit: int = 8, series_terms: int = 64) -> list[CheckResult]:
    """Run all checks on one count table and one walk of each oracle size.

    The table runs to ``max(series_terms, oracle_limit)``, and the series
    checks read T(z) off all of it, so the additive check has a GF
    coefficient for every oracle size.  Each size 1..``oracle_limit`` is
    walked once and tallied as its runs come, for the count and additive
    checks; the sampler check walks the sizes 1..``SAMPLER_EXACT_LIMIT``
    itself.  Both bounds are refused before any work, ``oracle_limit`` as
    the oracle refuses a size.
    """
    _check_oracle_size(oracle_limit, "oracle_limit")
    counting._check_size(series_terms, "series_terms", 1, MAX_SERIES_TERMS, "order checked")
    table = counting.build_count_table(max(series_terms, oracle_limit))
    tallies = [None, *(_tally(tree_runs(n)) for n in range(1, oracle_limit + 1))]
    return [
        _guarded("count-agreement", _check_counts, table, tallies),
        _guarded("series-identity", _check_series, table.t),
        _guarded("additive-agreement", _check_additive, table.t, tallies),
        _guarded("sampler-exact", _check_sampler, SAMPLER_EXACT_LIMIT),
    ]
