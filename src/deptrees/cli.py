"""Command-line front end.

Exit codes: 0 success (``-h``/``--help`` included), 1 domain or
verification failure, 2 usage error.  Data goes to stdout, diagnostics
(including generated seeds) to stderr.  All behavior is controlled by
flags; invocations are deterministic given their flags, including --seed.

The arguments live in one table, :data:`COMMANDS`: per subcommand its
handler, a help line, its arguments (positionals and options, each with a
kind, a default and a help line) and its required groups.  It drives
:func:`parse_args`, the ``-h``/``--help`` text and the usage errors.  The
argparse behaviors kept are:

* ``--opt value`` and ``--opt=value``, and any unique prefix of a long
  option (``--up 5``);
* options and positionals in any order, and ``--`` to end the options;
* the last of a repeated option wins;
* a negative number is a value, not an option, so ``--seed -5`` works;
* ``-h``/``--help`` prints help to stdout and exits 0;
* a usage error prints the usage line and the error to stderr, nothing to
  stdout, and exits 2.  A value that does not convert, and an option given
  with its excluded partner, fail at once; missing and unrecognized
  arguments are reported after the last word, so a later ``-h`` still
  prints the help.

There is no short-option clustering and no abbreviation of subcommand
names.  The table replaces argparse, whose import (with ``re``,
``gettext``, ``locale`` and ``shutil``) and parser set-up took longer
than the work of a typical request.
"""
from __future__ import annotations

import math
import os
import sys
from itertools import islice

from .additive import builtin_tolls, toll_by_name
from .counting import (
    build_count_table,
    count_closed_form,
    relative_error_of,
    stirling_log_approx,
)
from .sampler import SamplerState, sample_text
from .series import solve_tree_gf
from .trees import tree_texts
from .verification import run_verification

_LN10 = math.log(10.0)
#: lines per write: one write per line costs a system call each when stdout
#: is unbuffered (PYTHONUNBUFFERED), and one write of the whole output would
#: hold it all in memory at once
_BLOCK_LINES = 4096


def _decimal_form(ln_value: float) -> str:
    """Scientific-notation string for exp(ln_value), overflow-proof."""
    log10 = ln_value / _LN10
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.6f}e{exponent:+d}"


def _write_lines(lines) -> None:
    """Write each string of ``lines`` and a newline, in blocks of lines."""
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")
        sys.stdout.write("\n".join(block))


def _cmd_count(n, upto, format) -> int:
    if n is not None:
        t = count_closed_form(n)
        if format == "plain":
            print(t)
            return 0
        rows = [(n, t)]
    else:
        table = build_count_table(upto)
        rows = [(k, table.tree_count(k)) for k in range(1, upto + 1)]
    if format == "json":
        # json.dumps(..., indent=2) a row at a time: the values are digit strings
        print("[")
        last = rows[-1][0]
        _write_lines(
            f'  {{\n    "n": {k},\n    "value": "{t}"\n  }}{"," if k < last else ""}'
            for k, t in rows
        )
        print("]")
    elif format == "csv":
        print("n,t_n")
        _write_lines(f"{k},{t}" for k, t in rows)
    else:
        _write_lines(f"{k} {t}" for k, t in rows)
    return 0


def _cmd_approx(n, compare) -> int:
    ln_approx = stirling_log_approx(n)
    print(f"n {n}")
    print(f"ln_approx {ln_approx!r}")
    print(f"approx {_decimal_form(ln_approx)}")
    if compare:
        t = count_closed_form(n)
        print(f"exact {t}")
        print(f"rel_error {relative_error_of(ln_approx, t)!r}")
    return 0


def _cmd_enumerate(n) -> int:
    _write_lines(tree_texts(n))
    return 0


def _cmd_sample(n, count, seed) -> int:
    if seed is None:
        import secrets

        seed = secrets.randbits(64)
        print(f"seed {seed}", file=sys.stderr)
    state = SamplerState(seed)
    _write_lines(sample_text(n, state) for _ in range(count))
    return 0


def _cmd_series(terms) -> int:
    print("k,coefficient")
    _write_lines(f"{k},{c}" for k, c in enumerate(solve_tree_gf(terms).coeffs))
    return 0


def _cmd_param(n, toll) -> int:
    # the mean in lowest terms without a Fraction: each big number once
    total = toll_by_name(toll).total(n)
    t = count_closed_form(n)
    g = math.gcd(total, t)
    print("n,total,mean_num,mean_den")
    print(f"{n},{total},{total // g},{t // g}")
    return 0


def _cmd_verify(oracle_limit, series_terms) -> int:
    results = run_verification(oracle_limit=oracle_limit, series_terms=series_terms)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status:<4}  {r.detail}")
    for r in results:
        if not r.passed:
            print(f"verification failed: {r.name}", file=sys.stderr)
            return 1
    return 0


_DESCRIPTION = (
    "Exact counting, enumeration, sampling, and statistics for dependency trees."
)

#: subcommand -> (handler, help line, arguments, required groups).  The
#: arguments map a name to (kind, metavar, default, help).  A name starting
#: with "--" is an option, any other a positional; the handler gets each
#: value as a keyword, the name without its dashes and with "-" read as "_".
#: kind is "positive" (an int >= 1), "int", "flag" (True when given) or a
#: tuple of choices; metavar names an int option's value in the help.
#: Exactly one name of each required group must be given.
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
                       "64-bit seed; omitted means entropy, echoed to stderr"),
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


def _shown(name: str, kind, metavar) -> str:
    if not name.startswith("--") or kind == "flag":
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: deptrees [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, arguments, groups = COMMANDS[command]
    words = ["usage: deptrees", command, "[-h]"]
    for name, (kind, metavar, _, _) in arguments.items():
        group = next((g for g in groups if name in g), None)
        if group is None:
            words.append(f"[{_shown(name, kind, metavar)}]")
        elif name == group[0]:
            shown = " | ".join(_shown(g, *arguments[g][:2]) for g in group)
            words.append(f"({shown})" if len(group) > 1 else shown)
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        head, title = _DESCRIPTION, "commands"
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, head, arguments, _ = COMMANDS[command]
        title = "arguments"
        rows = [
            (_shown(name, kind, metavar),
             text if default in (None, False) else f"{text} (default: {default})")
            for name, (kind, metavar, default, text) in arguments.items()
        ]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    lines = [_usage(command), "", head, "", f"{title}:"]
    lines += [f"  {left:<{width}}  {right}" for left, right in rows]
    return "\n".join(lines)


def _fail(command: str | None, message: str):
    prog = f"deptrees {command}" if command else "deptrees"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _option(command: str | None, word: str, names):
    """How argparse reads ``word`` against the long options ``names``.

    None for a positional (a word not starting with ``-``, ``-`` and
    ``--`` themselves, a negative number, or a word with a space);
    otherwise (name, explicit value or None), with name None for an
    unrecognized option.  A long option may be shortened to any unique
    prefix; an ambiguous one is a usage error.
    """
    if not word.startswith("-") or word in ("-", "--"):
        return None
    if word in names:
        return word, None
    if not word.startswith("--") and word.startswith("-h"):
        return "--help", word[2:].removeprefix("=") if word != "-h" else None
    prefix, eq, text = word.partition("=")
    if word.startswith("--"):
        found = [prefix] if prefix in names else [n for n in names if n.startswith(prefix)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {prefix} could match {', '.join(found)}")
        if found:
            return found[0], text if eq else None
    # argparse's negative numbers, -\d+ and -\d*.\d+, are positionals
    whole, dot, frac = word[1:].partition(".")
    if dot:
        negative = frac.isdecimal() and (not whole or whole.isdecimal())
    else:
        negative = whole.isdecimal()
    return None if negative or " " in word else (None, None)


def _keyword(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _convert(command: str, name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(command, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        value = int(text)
    except ValueError:
        _fail(command, f"argument {name}: invalid int value: {text!r}")
    if kind == "positive" and value < 1:
        _fail(command, f"argument {name}: must be a positive integer, got {value}")
    return value


def _help_flag(command: str | None, explicit: str | None):
    if explicit is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {explicit!r}")
    print(_help(command))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its handler's keyword arguments, read from ``argv``.

    Reads ``argv`` against :data:`COMMANDS`.  On ``-h``/``--help`` prints
    the help to stdout and raises ``SystemExit(0)``; on a usage error
    prints the usage line and the error to stderr and raises
    ``SystemExit(2)``.
    """
    extras = []
    words = iter(argv)
    # the top level has one option, -h/--help; its first positional is the
    # subcommand, and every word after that belongs to the subcommand
    for command in words:
        option = _option(None, command, ("--help",))
        if option is None:
            break
        if option[0] is None:
            extras.append(command)
        else:
            _help_flag(None, option[1])
    else:
        _fail(None, "the following arguments are required: command")
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r}")
    _, _, arguments, groups = COMMANDS[command]
    options = [name for name in arguments if name.startswith("--")] + ["--help"]
    waiting = [name for name in arguments if not name.startswith("--")]
    values = {_keyword(name): spec[2] for name, spec in arguments.items()}
    given = set()
    only_positionals = False
    for word in words:
        if word == "--" and not only_positionals:
            only_positionals = True
            continue
        option = None if only_positionals else _option(command, word, options)
        if option is None:
            if not waiting:
                extras.append(word)
                continue
            name = waiting.pop(0)
            value = _convert(command, name, arguments[name][0], word)
        elif option[0] is None:
            extras.append(word)
            continue
        else:
            name, explicit = option
            if name == "--help":
                _help_flag(command, explicit)
            kind = arguments[name][0]
            if kind == "flag":
                if explicit is not None:
                    _fail(command, f"argument {name}: ignored explicit argument {explicit!r}")
                value = True
            else:
                if explicit is None:
                    explicit = next(words, None)
                    if explicit is None:
                        _fail(command, f"argument {name}: expected one argument")
                value = _convert(command, name, kind, explicit)
        group = next((g for g in groups if name in g), ())
        clash = [other for other in group if other in given and other != name]
        if clash:
            _fail(command, f"argument {name}: not allowed with argument {clash[0]}")
        values[_keyword(name)] = value
        given.add(name)
    for group in groups:
        if given.isdisjoint(group):
            _fail(command, f"the following arguments are required: {' | '.join(group)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # t_n outgrows the default 4300-digit int-to-str limit near n = 5200
        sys.set_int_max_str_digits(0)
    try:
        command, values = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[command][0](**values)
    except (ValueError, IndexError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `deptrees enumerate 8 | head`).
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
