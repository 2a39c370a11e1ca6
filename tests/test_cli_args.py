"""The table-driven argv parser against an argparse reference.

``reference_parser`` declares the CLI's arguments with argparse by hand
and is the oracle here only: valid argv must give the same subcommand and
values, invalid argv must be a usage error (exit 2, nothing on stdout, a
``usage:`` line on stderr) under both, and every help text must name each
option and choice the reference's help names.  A property test draws argv
from a word vocabulary: ``cli.parse_args`` must give the reference's
values or exit code, and the direct read, whenever it answers, the
reference's values.
"""
from __future__ import annotations

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from deptrees import cli


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def reference_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("approx", help="asymptotic approximation of t_n")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--compare", action="store_true",
                   help="also print the exact count and the relative error")

    p = sub.add_parser("enumerate", help="all trees of a size, one per line")
    p.add_argument("n", type=_positive_int)

    p = sub.add_parser("sample", help="uniform random trees")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--count", type=_positive_int, default=1, metavar="K")
    p.add_argument("--seed", type=int, default=None,
                   help="an int of at least 0; omitted means an entropy seed, echoed to stderr")

    p = sub.add_parser("series", help="coefficients of the tree GF T(z)")
    p.add_argument("--terms", type=_positive_int, default=16, metavar="N")

    p = sub.add_parser("param", help="additive-parameter total and mean at size n")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--toll", required=True, choices=("unit", "leaf", "size"))

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--oracle-limit", type=_positive_int, default=8, metavar="L")
    p.add_argument("--series-terms", type=_positive_int, default=64, metavar="N")

    return parser


COMMANDS = ("count", "approx", "enumerate", "sample", "series", "param", "verify")

VALID = [
    ("count", "3"),
    ("count", "--upto", "5"),
    ("count", "--upto=5"),
    ("count", "--up", "5"),
    ("count", "--up=5", "--form", "csv"),
    ("count", "--format", "json", "--upto", "4"),
    ("count", "7", "--format=csv"),
    ("count", "--format", "csv", "--format", "plain", "2"),
    ("count", "--upto", "9", "--upto", "4"),
    ("approx", "10"),
    ("approx", "--compare", "10"),
    ("approx", "10", "--comp", "--compare"),
    ("enumerate", "4"),
    ("enumerate", "+4"),
    ("sample", "5"),
    ("sample", "5", "--seed", "-5"),
    ("sample", "--seed=-12", "5", "--count", "3"),
    ("sample", "5", "--seed", "1", "--seed", "2"),
    ("sample", "5", "--co", "2", "--se", "0"),
    ("sample", "--", "5"),
    ("sample", "--seed", "18446744073709551615", "400"),
    ("series",),
    ("series", "--terms", "5"),
    ("series", "--t=7"),
    ("param", "3", "--toll", "leaf"),
    ("param", "--toll=size", "12"),
    ("param", "--to", "unit", "1"),
    ("verify",),
    ("verify", "--oracle-limit", "4", "--series-terms", "8"),
    ("verify", "--o", "3", "--s=16"),
]

INVALID = [
    (),
    ("frobnicate",),
    ("Count", "3"),
    ("--bogus", "count", "3"),
    ("count",),
    ("count", "3", "--upto", "5"),
    ("count", "0"),
    ("count", "x"),
    ("count", "1.5"),
    ("count", "--upto", "0"),
    ("count", "--upto", "3", "--format", "xml"),
    ("count", "--upto"),
    ("approx", "5", "--compare=yes"),
    ("approx", "5", "6"),
    ("enumerate", "3", "extra"),
    ("enumerate",),
    ("sample", "-3"),
    ("sample", "3", "--count", "0"),
    ("sample", "3", "--count", "-2"),
    ("sample", "3", "--seed", "x"),
    ("sample", "3", "--seed", "0x10"),
    ("sample", "3", "--seed", "-1_0"),
    ("sample", "3", "--seed"),
    ("sample", "3", "--bogus"),
    ("sample", "3", "--seed=1", "--c"),
    ("series", "5"),
    ("series", "--terms", "0"),
    ("param", "--toll", "depth", "3"),
    ("param", "3"),
    ("param", "--toll", "leaf", "0"),
    ("param", "--toll", "leaf"),
    ("verify", "--oracle-limit", "-1"),
    ("verify", "--series-terms", "two"),
    ("series", "--"),
    ("verify", "--"),
]


def reference(argv):
    """The reference's (command, values), or the SystemExit code it raised."""
    try:
        ns = reference_parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code
    values = vars(ns)
    return values.pop("command"), values


def parsed(argv):
    """``cli.parse_args``'s (command, values), or the SystemExit code it raised."""
    try:
        return cli.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_argv_gives_the_reference_values(argv):
    expected = reference(argv)
    assert isinstance(expected, tuple), f"the reference refused {argv}"
    assert cli.parse_args(list(argv)) == expected
    assert cli._direct(list(argv)) in (None, expected)


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_argv_is_a_usage_error(capsys, argv):
    assert reference(argv) == 2
    capsys.readouterr()
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: deptrees")
    assert "error: " in err


def _named(help_text: str) -> set[str]:
    """The options and choice sets a help text names."""
    words = (word.strip("[](),|") for word in help_text.split())
    return {word for word in words if word.startswith(("-", "{"))}


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_exits_zero_and_names_every_option(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    assert reference(argv) == 0
    expected = _named(capsys.readouterr().out)
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert expected and expected <= _named(out)
    assert out.startswith("usage: deptrees")


@pytest.mark.parametrize(
    "argv", [("--bogus", "-h"), ("sample", "--bogus", "-h"), ("count", "3", "4", "--help")]
)
def test_help_wins_over_errors_reported_after_the_last_word(capsys, argv):
    # unrecognized arguments are reported only once every word is read
    assert reference(argv) == 0
    assert cli.main(list(argv)) == 0


WORDS = [
    *COMMANDS, "Count", "",
    "--upto", "--up", "--u", "--format", "--form", "--f", "--compare", "--comp",
    "--count", "--co", "--c", "--seed", "--se", "--s", "--terms", "--t", "--toll",
    "--to", "--oracle-limit", "--o", "--series-terms", "--series",
    "--upto=5", "--up=3", "--format=csv", "--format=", "--compare=yes",
    "--seed=-3", "--seed=", "--t=7", "--toll=leaf", "--s=16",
    "--", "-", "-h", "--help", "--he", "-hx", "--bogus", "-x",
    "0", "1", "3", "12", "-5", "-0", "-1.5", "+4", "+0", "1_0", "-1_0", "0x10",
    "\u0663", "-\u0663", "\uff13", "-\uff15", "5 ", " 7", "-5 ", "--seed 5", "3\n", "-3\n",
    "plain", "csv", "json", "xml", "unit", "leaf", "size", "x",
]

argvs = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=5),
    st.builds(
        lambda command, rest: [command, *rest],
        st.sampled_from(COMMANDS),
        st.lists(st.sampled_from(WORDS), max_size=6),
    ),
)


@given(argvs)
@settings(max_examples=400, deadline=None)
def test_random_argv_agrees_with_the_reference(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        expected = reference(argv)
        assert parsed(argv) == expected
        direct = cli._direct(list(argv))
    assert direct is None or direct == expected


@pytest.mark.parametrize(
    "argv",
    [("sample", "5", "--seed", "-5"), ("sample", "--seed=-12", "5", "--count", "3"),
     ("count", "--format", "json", "--upto", "4"), ("approx", "--compare", "10"),
     ("verify", "--oracle-limit", "4", "--series-terms", "8"), ("series",)],
    ids=" ".join,
)
def test_plain_argv_is_read_directly(argv):
    assert cli._direct(list(argv)) == reference(argv)


def test_the_table_lists_the_reference_commands():
    assert tuple(cli.COMMANDS) == COMMANDS
