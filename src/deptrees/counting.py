"""Exact counting of dependency trees, with numeric and asymptotic diagnostics.

Two production routes give the same numbers:

* :func:`tree_counts` steps t_1, t_2, ... by the term ratio of their closed
  form, one small multiply and one exact division per term; the CLI
  streams it, and :func:`build_count_table` reads its tables off it,
* :func:`count_closed_form` evaluates binom(3n-2, n-1) / n directly.  The
  binomial is the product of its prime powers, each exponent the carries
  of a base-p addition (Kummer): ``_binomial``, the one binomial kernel,
  which the unit and leaf totals of :mod:`deptrees.additive` read too.
  It is integer arithmetic only and loads no ``math``; the tests hold it
  to the standard library's binomial.

The check routes live in :mod:`deptrees.verification`: the convolution
recurrences that come straight out of the class construction (a tree is
a left forest, a root, and a right forest; a forest is a sequence of
trees), the Lagrange extraction of t_n from T(1-T)^2 = z, and exhaustive
enumeration at small sizes.  The counts are 1, 2, 7, 30, 143, ... (OEIS
A006013) and grow like (27/4)^n, so the counting is exact big-integer
arithmetic.

The float diagnostics are the Stirling approximation, with its relative
error and its decimal form (a mantissa and an exact exponent), and
:func:`eval_T_numeric`, the branch through 0 of T(1-T)^2 = z on
[0, 4/27] by Viete's root T = (4/3) sin^2(a/3), where sin a = sqrt(27 z)/2:
with s = sin(a/3), sin a = 3s - 4s^3 gives T (1-T)^2 = (4/27) sin^2 a = z.
"""
import sys
from itertools import compress, islice
from _operator import itemgetter, mul  # operator.py only re-exports _operator

#: Dominant singularity of T(z) as a float; the numeric domain boundary.
SINGULARITY_FLOAT = 4.0 / 27.0


class _Record(tuple):
    """An immutable record: a plain tuple whose fields, named in ``_fields``,
    read as properties, and by which it pickles, copies and prints.  A
    subclass sets ``__slots__ = ()`` and ``_fields``, and writes its own
    ``__new__``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for i, field in enumerate(cls._fields):
            setattr(cls, field, property(itemgetter(i)))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


def _shown(n: int) -> str:
    """``n`` in decimal for a message; past Python's int-to-str digit limit,
    which refuses to print it, its size in bits instead."""
    try:
        return str(n)
    except ValueError:
        return f"<{'a negative' if n < 0 else 'an'} int of {n.bit_length()} bits>"


def _check_size(n: int, what: str = "n", least: int = 1, most: int | None = None,
                largest: str = "") -> None:
    """TypeError for a non-int ``n`` (a bool is one); ValueError below ``least``, above ``most``."""
    if not isinstance(n, int):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n < least:
        raise ValueError(f"{what} must be at least {least}, got {_shown(n)}")
    if most is not None and n > most:
        raise ValueError(f"{what}={_shown(n)} is above {most}, the largest {largest}")


class CountTable(_Record):
    """Immutable tables of tree counts t_n and forest counts s_m.

    ``t[n]`` counts trees of size n (``t[0]`` is the 0 sentinel); ``s[m]``
    counts forests of total size m.  Both tuples of ints run through index
    ``n_max``.  The record is the pair ``(t, s)``: it unpacks, compares and
    hashes as that plain tuple.
    """

    __slots__ = ()
    _fields = ("t", "s")

    def __new__(cls, t: tuple, s: tuple):
        return tuple.__new__(cls, (t, s))

    @property
    def n_max(self) -> int:
        return len(self.t) - 1

    def tree_count(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={_shown(n)} outside the table range 1..{self.n_max}")
        return self.t[n]

    def forest_count(self, m: int) -> int:
        if not 0 <= m <= self.n_max:
            raise IndexError(f"m={_shown(m)} outside the table range 0..{self.n_max}")
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
    _check_size(n_max, "n_max")
    t = (0, *islice(tree_counts(), n_max + 1))
    s = tuple((m + 1) * t[m + 1] // (3 * m + 1) for m in range(n_max + 1))
    return CountTable(t[:-1], s)


#: _WHEEL[k % 30] is 1 exactly when k is prime to 30: a sieve that starts
#: from it repeated has the multiples of 2, 3 and 5 struck
_WHEEL = bytes(k % 2 and k % 3 and k % 5 and 1 for k in range(30))


def _binomial(a: int, b: int) -> int:
    """binom(a + b, a) for ints a, b >= 0, as a product of prime powers.

    By Kummer's theorem a prime p divides it as often as adding a and b in
    base p carries.  Legendre's sum counts those carries, a term per digit;
    in base 2 each carry turns two 1 bits into one, so a.bit_count() +
    b.bit_count() - (a+b).bit_count() counts them.  Above the square root of
    a + b the sum has at most two digits, so a prime divides it at most
    once: none in ((a+b)/2, max(a, b)] does, each above max(a, b) does, and
    one in between does when the last digits carry.  The powers are
    multiplied in a balanced product tree, with no division.
    """
    n, m = a + b, max(a, b)
    if n == m:  # a or b is 0
        return 1
    factors = [2 ** (a.bit_count() + b.bit_count() - n.bit_count())]
    # a sieve of the odd k <= n: once the odd primes up to the square root
    # have struck their multiples, flags[k] is 1 exactly when k is an odd prime
    flags = bytearray(_WHEEL) * (n // 30 + 1)
    flags[:6] = b"\0\0\0\1\0\1"
    p = 3  # n = 2 has no odd prime
    # compress reads flags as it goes, so it steps over each multiple struck
    for p in compress(range(n + 1), flags):
        if p * p > n:
            break  # p is the least odd prime above the square root
        if p > 5:
            flags[p * p::p] = bytes(len(range(p * p, len(flags), p)))
        e, q = 0, p
        while q <= n:
            e += n // q - a // q - b // q
            q *= p
        if e:
            factors.append(p**e)
    for q in compress(range(p, n // 2 + 1), flags[p:]):
        # a + b carries out of the last base-q digit when n's is below a's
        if n % q < a % q:
            factors.append(q)
    factors += compress(range(m + 1, n + 1), flags[m + 1:])
    if len(factors) <= 32:  # a small binomial: straight, with no rounds
        product = 1
        for f in factors:
            product *= f
        return product
    # neighbours round by round, so that each big multiply is of two like halves
    while len(factors) > 1:
        factors = [*map(mul, factors[::2], factors[1::2]), *factors[len(factors) & ~1:]]
    return factors[0]


def count_closed_form(n: int) -> int:
    """Exact t_n = binom(3n-2, n-1) / n; the division is checked exact."""
    _check_size(n)
    q, r = divmod(_binomial(n - 1, 2 * n - 1), n)
    assert r == 0, f"n={n} does not divide binom(3n-2, n-1)"
    return q


def stirling_log_approx(n: int) -> float:
    """ln of the approximation (27/4)^n / (sqrt(27 pi) n^(3/2)).

    Stays in log space; (27/4)^n itself overflows a float near n = 360.
    An n above about 9.4e307, where the ln (nearly n ln(27/4)) is no longer
    a finite float, raises ValueError.
    """
    _check_size(n)
    import math

    try:
        ln_approx = -0.5 * math.log(27.0 * math.pi) - 1.5 * math.log(n) + n * math.log(6.75)
    except OverflowError:  # n from 2^1024 does not convert to a float
        ln_approx = math.inf
    if ln_approx == math.inf:
        raise ValueError(f"n={_shown(n)} is above about {sys.float_info.max / math.log(6.75):.1e}, "
                         "the largest n whose ln_approx is finite")
    return ln_approx


#: round(log10(27/4) * 10^330): n * this / 10^330 is n log10(27/4) to within
#: 1e-22 for every n below 10^308, which covers the n ``stirling_log_approx`` takes
_LOG10_GROWTH = int(
    "82930377283102492145760592031635987406400682964787051186874199866147107980213435015"
    "50505627064765604500251239218941469224993716644086350418716464508051970796707229270"
    "5112726714571614426322451053358986541012929917338813151834505668279301236494270223"
    "1138942038296662032940048706930742856066113770041301594481564238908828252371034034"
)


def _decimal_form(n: int) -> str:
    """(27/4)^n / (sqrt(27 pi) n^(3/2)) in scientific notation; the integer part
    of its log10's term n log10(27/4) is exact, so float error does not grow with n."""
    import math

    whole, part = divmod(n * _LOG10_GROWTH, 10**330)
    log10 = part / 10**330 - 1.5 * math.log10(n) - 0.5 * math.log10(27 * math.pi)
    exponent = math.floor(log10)
    # round first: a mantissa of 9.9999996 carries into the exponent
    mantissa, shift = f"{10.0 ** (log10 - exponent):.6e}".split("e")
    return f"{mantissa}e{whole + exponent + int(shift):+d}"


def relative_error(n: int) -> float:
    """approx(n)/t_n - 1, with ln t_n taken exactly from the closed form."""
    return relative_error_of(stirling_log_approx(n), count_closed_form(n))


def relative_error_of(ln_approx: float, exact: int) -> float:
    """exp(ln_approx)/exact - 1, for a caller that already holds t_n.

    Stays in log space: ``math.log`` takes the int whole, so neither
    approx(n) nor t_n is formed as a float (both overflow near n = 360).
    """
    import math

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
    import math

    t = 4 / 3 * math.sin(math.asin(min(1.0, math.sqrt(27 * z) / 2)) / 3) ** 2
    return z / (1 - t) ** 2
