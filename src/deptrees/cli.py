"""Command-line front end.

Exit codes: 0 success, 1 domain or verification failure, 2 usage error.
Data goes to stdout, diagnostics (including generated seeds) to stderr.
All behavior is controlled by flags; invocations are deterministic given
their flags, including --seed.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .additive import mean_parameter, toll_by_name
from .counting import (
    build_count_table,
    count_closed_form,
    relative_error,
    stirling_log_approx,
)
from .sampler import SamplerState, sample_text
from .series import solve_tree_gf
from .trees import tree_texts
from .verification import run_verification

_LN10 = math.log(10.0)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _decimal_form(ln_value: float) -> str:
    """Scientific-notation string for exp(ln_value), overflow-proof."""
    log10 = ln_value / _LN10
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.6f}e{exponent:+d}"


def _print_counts(rows: list[tuple[int, int]], fmt: str) -> None:
    if fmt == "plain":
        for n, t in rows:
            print(f"{n} {t}")
    elif fmt == "csv":
        print("n,t_n")
        for n, t in rows:
            print(f"{n},{t}")
    else:
        import json

        payload = [{"n": n, "value": str(t)} for n, t in rows]
        print(json.dumps(payload, indent=2))


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n is None:
        table = build_count_table(args.upto)
        rows = [(n, table.tree_count(n)) for n in range(1, args.upto + 1)]
    else:
        rows = [(args.n, count_closed_form(args.n))]
        if args.format == "plain":
            print(rows[0][1])
            return 0
    _print_counts(rows, args.format)
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    ln_approx = stirling_log_approx(args.n)
    print(f"n {args.n}")
    print(f"ln_approx {ln_approx!r}")
    print(f"approx {_decimal_form(ln_approx)}")
    if args.compare:
        print(f"exact {count_closed_form(args.n)}")
        print(f"rel_error {relative_error(args.n)!r}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for text in tree_texts(args.n):
        print(text)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        import secrets

        seed = secrets.randbits(64)
        print(f"seed {seed}", file=sys.stderr)
    state = SamplerState(seed)
    for _ in range(args.count):
        print(sample_text(args.n, state))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    T = solve_tree_gf(args.terms)
    print("k,coefficient")
    for k, c in enumerate(T.coeffs):
        print(f"{k},{c}")
    return 0


def _cmd_param(args: argparse.Namespace) -> int:
    mean = mean_parameter(toll_by_name(args.toll), args.n)
    total = mean * count_closed_form(args.n)
    print("n,total,mean_num,mean_den")
    print(f"{args.n},{total},{mean.numerator},{mean.denominator}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(
        oracle_limit=args.oracle_limit, series_terms=args.series_terms
    )
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status:<4}  {r.detail}")
    for r in results:
        if not r.passed:
            print(f"verification failed: {r.name}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deptrees",
        description="Exact counting, enumeration, sampling, and statistics "
        "for dependency trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact tree counts")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("n", nargs="?", type=_positive_int, default=None)
    which.add_argument("--upto", type=_positive_int, metavar="N",
                       help="print the whole table for 1..N")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("approx", help="asymptotic approximation of t_n")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--compare", action="store_true",
                   help="also print the exact count and the relative error")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("enumerate", help="all trees of a size, one per line")
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="uniform random trees")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--count", type=_positive_int, default=1, metavar="K")
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed; omitted means entropy, echoed to stderr")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("series", help="coefficients of the tree GF T(z)")
    p.add_argument("--terms", type=_positive_int, default=16, metavar="N")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("param", help="additive-parameter total and mean at size n")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--toll", required=True, choices=("unit", "leaf", "size"))
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--oracle-limit", type=_positive_int, default=8, metavar="L")
    p.add_argument("--series-terms", type=_positive_int, default=64, metavar="N")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # t_n outgrows the default 4300-digit int-to-str limit near n = 5200
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
