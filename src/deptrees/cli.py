"""Command-line front end.

Exit codes: 0 success (``-h``/``--help`` included), 1 domain or
verification failure, 2 usage error.  Data goes to stdout, diagnostics
(including generated seeds) to stderr.  All behavior is controlled by
flags; invocations are deterministic given their flags, including --seed.

Every stdout line leaves through one writer, :func:`_write_lines`.  A
handler returns nothing and fails by raising, so :func:`main` alone sets
the exit code, and every exit-1 diagnostic is one ``error: `` line.

The arguments live in one table, :data:`COMMANDS`.  Plain argv, the shape
of every scripted request, is read straight off it (:func:`_direct`), so
a request imports neither argparse nor the ``re``, ``gettext`` and
``locale`` it pulls in, which took longer than the work of a typical
request.  Everything else (help, abbreviations, ``--`` and every usage
error) goes to an argparse parser built from the same table.
"""
import math
import sys
from itertools import chain, islice

from .additive import builtin_tolls, toll_by_name
from .counting import (_check_size, count_closed_form, relative_error_of, stirling_log_approx,
                       tree_counts)
from .sampler import SamplerState, sample_text
from .trees import tree_runs
from .verification import run_verification

#: round(log10(27/4) * 10^330): n * this / 10^330 is n log10(27/4) to within
#: 1e-22 for every n < 2^1024, the n that ``stirling_log_approx`` takes
_LOG10_GROWTH = int(
    "82930377283102492145760592031635987406400682964787051186874199866147107980213435015"
    "50505627064765604500251239218941469224993716644086350418716464508051970796707229270"
    "5112726714571614426322451053358986541012929917338813151834505668279301236494270223"
    "1138942038296662032940048706930742856066113770041301594481564238908828252371034034"
)
#: characters a block reaches before it is written: one write per line costs
#: a system call each under PYTHONUNBUFFERED, and a line of t_n holds about
#: 0.83 n digits, so a block bounded by lines would hold no bounded memory
_BLOCK_CHARS = 1 << 17
#: largest n whose exact t_n (about 0.83 n digits) ``count n``, ``approx n
#: --compare`` and ``param`` compute: math.comb's cost grows about
#: quadratically, 0.6 / 2.4 / 5.8 s at n = 1 / 2 / 3 * 10^5
_MAX_EXACT_N = 100_000
#: largest n ``sample`` draws: a tree costs time and memory linear in n,
#: a cold ``sample 1000000 --seed 9`` 1.3 s and 154 MB peak RSS (2-vCPU VM)
_MAX_SAMPLE_N = 1_000_000
#: about where ln_approx, nearly n ln(27/4), leaves the float range
_MAX_APPROX_N = sys.float_info.max / math.log(27 / 4)


def _decimal_form(n: int) -> str:
    """(27/4)^n / (sqrt(27 pi) n^(3/2)) in scientific notation; the integer part
    of its log10's term n log10(27/4) is exact, so float error does not grow with n."""
    whole, part = divmod(n * _LOG10_GROWTH, 10**330)
    log10 = part / 10**330 - 1.5 * math.log10(n) - 0.5 * math.log10(27 * math.pi)
    exponent = math.floor(log10)
    # round first: a mantissa of 9.9999996 carries into the exponent
    mantissa, shift = f"{10.0 ** (log10 - exponent):.6e}".split("e")
    return f"{mantissa}e{whole + exponent + int(shift):+d}"


def _write_lines(lines) -> None:
    """Write each string of ``lines`` and a newline, a block at a time: a block
    is written on the item that brings it to ``_BLOCK_CHARS`` characters.  An
    item may be a newline-joined run of lines; each write ends on an item and
    holds less than the bound plus that item."""
    block = ""
    for line in lines:
        # linear: CPython grows a str that only this frame holds in place
        block += line + "\n"
        if len(block) >= _BLOCK_CHARS:
            sys.stdout.write(block)
            block = ""
    if block:
        sys.stdout.write(block)


def _cmd_count(n, upto, format) -> None:
    if n is not None:
        _check_size(n, most=_MAX_EXACT_N, largest="n counted exactly")
        rows, last = [(n, count_closed_form(n))], n
    else:
        rows, last = enumerate(islice(tree_counts(), upto), 1), upto
    if format == "json":
        # json.dumps(..., indent=2) a row at a time: the values are digit strings
        objects = (f'  {{\n    "n": {k},\n    "value": "{t}"\n  }}{"," if k < last else ""}'
                   for k, t in rows)
        lines = chain(("[",), objects, ("]",))
    elif format == "csv":
        lines = chain(("n,t_n",), (f"{k},{t}" for k, t in rows))
    else:  # count n prints the bare value
        lines = (f"{t}" if n else f"{k} {t}" for k, t in rows)
    _write_lines(lines)


def _cmd_approx(n, compare) -> None:
    if compare:
        _check_size(n, most=_MAX_EXACT_N, largest="n counted exactly")
    try:
        ln_approx = stirling_log_approx(n)
    except OverflowError:  # n above 2^1024 does not convert to a float
        ln_approx = math.inf
    if ln_approx == math.inf:
        raise ValueError(
            f"n={n} is above about {_MAX_APPROX_N:.1e}, the largest n whose ln_approx is finite"
        )
    lines = [f"n {n}", f"ln_approx {ln_approx!r}", f"approx {_decimal_form(n)}"]
    if compare:
        t = count_closed_form(n)
        lines += [f"exact {t}", f"rel_error {relative_error_of(ln_approx, t)!r}"]
    _write_lines(lines)


def _cmd_enumerate(n) -> None:
    _write_lines(tree_runs(n))


def _cmd_sample(n, count, seed) -> None:
    _check_size(n, most=_MAX_SAMPLE_N, largest="n sampled")
    if seed is None:
        # os.urandom is the source of secrets.randbits, which imports re,
        # hashlib, hmac and base64 besides
        import os

        seed = int.from_bytes(os.urandom(8), "big")
        print(f"seed {seed}", file=sys.stderr)
    state = SamplerState(seed)
    _write_lines(sample_text(n, state) for _ in range(count))


def _cmd_series(terms) -> None:
    coefficients = enumerate(chain((0,), islice(tree_counts(), terms)))
    _write_lines(chain(("k,coefficient",), (f"{k},{c}" for k, c in coefficients)))


def _cmd_param(n, toll) -> None:
    # the mean in lowest terms without a Fraction: the total and t_n once each
    _check_size(n, most=_MAX_EXACT_N, largest="n counted exactly")
    total = toll_by_name(toll).total(n)
    t = count_closed_form(n)
    g = math.gcd(total, t)
    _write_lines(("n,total,mean_num,mean_den", f"{n},{total},{total // g},{t // g}"))


def _cmd_verify(oracle_limit, series_terms) -> None:
    results = run_verification(oracle_limit=oracle_limit, series_terms=series_terms)
    width = max(len(r.name) for r in results)
    _write_lines(
        f"{r.name:<{width}}  {'ok' if r.passed else 'FAIL':<4}  {r.detail}" for r in results
    )
    for r in results:
        if not r.passed:
            raise ValueError(f"verification failed: {r.name}")


_DESCRIPTION = (
    "Exact counting, enumeration, sampling, and statistics for dependency trees."
)

#: subcommand -> (handler, help line, arguments, required groups).  A
#: handler writes its lines through ``_write_lines`` and returns nothing.  The
#: arguments map a name to (kind, metavar, default, help).  A name starting
#: with "--" is an option, any other a positional; the handler gets each
#: value as a keyword, the name without its dashes and with "-" read as "_".
#: kind is "positive" (an int >= 1), "int", "flag" (True when given) or a
#: tuple of choices; metavar names an int option's value in the help.
#: Exactly one name of each required group must be given; a positional
#: outside a group of two or more is always required.
COMMANDS = {
    "count": (
        _cmd_count,
        "exact tree counts",
        {
            "n": ("positive", None, None, "print t_n, the number of trees of size n"),
            "--upto": ("positive", "N", None, "print the whole table for 1..N"),
            "--format": (("plain", "csv", "json"), None, "plain", "output layout"),
        },
        (("n", "--upto"),),
    ),
    "approx": (
        _cmd_approx,
        "asymptotic approximation of t_n",
        {
            "n": ("positive", None, None, "tree size"),
            "--compare": ("flag", None, False,
                          "also print the exact count and the relative error"),
        },
        (("n",),),
    ),
    "enumerate": (
        _cmd_enumerate,
        "all trees of a size, one per line",
        {"n": ("positive", None, None, "tree size")},
        (("n",),),
    ),
    "sample": (
        _cmd_sample,
        "uniform random trees",
        {
            "n": ("positive", None, None, "tree size"),
            "--count": ("positive", "K", 1, "number of trees"),
            "--seed": ("int", "SEED", None,
                       "an int of at least 0; omitted means an entropy seed, echoed to stderr"),
        },
        (("n",),),
    ),
    "series": (
        _cmd_series,
        "coefficients of the tree GF T(z)",
        {"--terms": ("positive", "N", 16, "truncation order")},
        (),
    ),
    "param": (
        _cmd_param,
        "additive-parameter total and mean at size n",
        {
            "n": ("positive", None, None, "tree size"),
            "--toll": (tuple(t.name for t in builtin_tolls()), None, None, "builtin toll"),
        },
        (("n",), ("--toll",)),
    ),
    "verify": (
        _cmd_verify,
        "run the cross-validation suite",
        {
            "--oracle-limit": ("positive", "L", 8, "largest size checked by enumeration"),
            "--series-terms": ("positive", "N", 64, "series order of the checks"),
        },
        (),
    ),
}


def _keyword(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _direct(argv: list[str]) -> tuple[str, dict] | None:
    """The subcommand and values of plain ``argv``, read off the table; else None.

    Plain is the subcommand, then positionals and exact long options, as
    ``--opt value`` or ``--opt=value``, in any order, with each required
    group given exactly once and the last of a repeated option winning.  A
    value or positional starts with ``-`` only as a negative integer, and
    must convert.  argparse reads every plain argv the same way.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command, *words = argv
    _, _, arguments, groups = COMMANDS[command]
    waiting = [name for name in arguments if not name.startswith("--")]
    values = {_keyword(name): spec[2] for name, spec in arguments.items()}
    given = []
    words = iter(words)
    for word in words:
        if word.startswith("--"):
            name, eq, text = word.partition("=")
            if name not in arguments or (eq and arguments[name][0] == "flag"):
                return None
            if not eq and arguments[name][0] != "flag":
                text = next(words, "-")  # a missing value is refused below
        elif waiting:
            name, text = waiting.pop(0), word
        else:
            return None
        kind = arguments[name][0]
        if kind == "flag":
            value = True
        elif text.startswith("-") and not text[1:].isdecimal():
            return None
        elif isinstance(kind, tuple):
            if text not in kind:
                return None
            value = text
        else:
            try:
                value = int(text)
            except ValueError:
                return None
            if kind == "positive" and value < 1:
                return None
        values[_keyword(name)] = value
        given.append(name)
    if any(sum(name in group for name in given) != 1 for group in groups):
        return None
    return command, values


def _parser():
    """The argparse parser of :data:`COMMANDS`, for every argv off the plain shape."""
    import argparse

    def positive(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
        return value

    positive.__name__ = "int"  # argparse's "invalid int value: 'x'" names the type
    parser = argparse.ArgumentParser(prog="deptrees", description=_DESCRIPTION)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, arguments, groups) in COMMANDS.items():
        sub = subparsers.add_parser(command, help=text, description=text)
        exclusive = {}
        for group in groups:
            if len(group) > 1:
                target = sub.add_mutually_exclusive_group(required=True)
                exclusive.update(dict.fromkeys(group, target))
        for name, (kind, metavar, default, help) in arguments.items():
            if default not in (None, False):
                help = f"{help} (default: {default})"
            options = {"default": default, "help": help}
            if kind == "flag":
                options["action"] = "store_true"
            elif isinstance(kind, tuple):
                options["choices"] = kind
            else:
                options.update(type=positive if kind == "positive" else int, metavar=metavar)
            if name in exclusive and not name.startswith("--"):
                options["nargs"] = "?"
            elif name.startswith("--") and (name,) in groups:
                options["required"] = True
            exclusive.get(name, sub).add_argument(name, **options)
    return parser


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its handler's keyword arguments, read from ``argv``.

    Plain argv is read straight off :data:`COMMANDS` (:func:`_direct`);
    anything else goes to the argparse parser built from the same table,
    which prints the help and exits 0 on ``-h``/``--help``, and prints the
    usage and the error to stderr and exits 2 on a usage error.
    """
    parsed = _direct(argv)
    if parsed is None:
        values = vars(_parser().parse_args(argv))
        parsed = values.pop("command"), values
    return parsed


def main(argv: list[str] | None = None) -> int:
    """Run one request and return its exit code: 0, 1 with an ``error: `` line, or 2."""
    # t_n outgrows the default 4300-digit int-to-str limit near n = 5200, so
    # the limit is lifted for the request; 3.10.0-3.10.6 have no limit
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        command, values = parse_args(sys.argv[1:] if argv is None else argv)
        COMMANDS[command][0](**values)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, IndexError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    return 0


def run() -> None:
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `deptrees enumerate 8 | head`).
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
