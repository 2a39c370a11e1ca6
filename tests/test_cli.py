"""CLI tests.

Covers: golden-file byte matches, every output format, seed handling
(reproducibility, entropy fallback to stderr), the exit-code contract (0
success, 1 domain failure, 2 usage, and no exit code for a fault), the
up-front oracle-limit and series-terms checks of ``verify``, the up-front
size bound of ``count n``, ``approx --compare`` and ``param``, the
``approx`` line against a ``Decimal`` reference up to n = 2^1023, its
refusal from about 9.4e307, ``param`` at large n with no table
or series, ``param`` and ``approx --compare`` computing each big number
once, block writes of line output, each cut after the item that brings it
to a bound in characters, one write for a short output, ``main`` restoring
the int-to-str limit, ``count --upto`` and ``series`` streaming with no
table, the ``python -m deptrees`` entry, the BrokenPipe path of ``run()``
under ``python -m`` and bare, the console-script mapping in
``pyproject.toml``, what a cold ``import deptrees.cli`` and a cold request
load, the seed of a cold seedless ``sample``, and a cold help and usage
error.  The argv parser itself is tested against argparse in
``test_cli_args.py``.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import pytest

import deptrees
import deptrees.__main__
from deptrees import (
    additive,
    cli,
    count_closed_form,
    counting,
    mean_parameter,
    relative_error,
    sampler,
    toll_by_name,
    verification,
)
from deptrees.trees import tree_runs

GOLDEN = Path(__file__).parent / "golden"
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781")
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
# The directory this process imported deptrees from; children put it first
# on their path so they run the code under test, never an installed copy.
IMPORT_ROOT = str(Path(deptrees.__file__).resolve().parent.parent)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


#: a cold request as the benchmark makes it
RUN = "from deptrees.cli import run; run()"
#: the same, printing the loaded module names as the last line of stderr
RUN_REPORTING_MODULES = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
    "from deptrees.cli import run\n"
    "run()\n"
)


def module_command(*argv: str) -> list[str]:
    return [sys.executable, "-m", "deptrees", *argv]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [IMPORT_ROOT, inherited]))
    return env


def console_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of pyproject.toml.

    Read line by line: ``tomllib`` is missing on Python 3.10, which
    ``requires-python`` still admits.
    """
    scripts: dict[str, str] = {}
    inside = False
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = (part.strip().strip('"') for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def unlimited_str(n: int) -> str:
    """``str(n)`` under a lifted int-to-str limit (3.10.0-3.10.6 have none)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "argv,name",
        [
            (("count", "--upto", "5"), "count_upto5.txt"),
            (("enumerate", "2"), "enumerate2.txt"),
            (("enumerate", "3"), "enumerate3.txt"),
            (("param", "--toll", "leaf", "3"), "param_leaf3.txt"),
        ],
    )
    def test_byte_match(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert out == golden(name)


class TestCount:
    def test_single(self, capsys):
        assert run_cli(capsys, "count", "3") == (0, "7\n", "")
        assert run_cli(capsys, "count", "1") == (0, "1\n", "")

    def test_upto_one_is_a_table_row(self, capsys):
        # the layout follows the mode, not the number of rows
        assert run_cli(capsys, "count", "--upto", "1") == (0, "1 1\n", "")

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--upto", "3", "--format", "csv")
        assert code == 0
        assert out == "n,t_n\n1,1\n2,2\n3,7\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--upto", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"n": 1, "value": "1"},
            {"n": 2, "value": "2"},
            {"n": 3, "value": "7"},
            {"n": 4, "value": "30"},
        ]
        assert all(isinstance(r["value"], str) for r in rows)

    @pytest.mark.parametrize(
        "argv", [("7",), ("--upto", "1"), ("--upto", "2"), ("--upto", "5"), ("--upto", "300")]
    )
    def test_json_is_streamed_in_the_json_module_layout(self, capsys, argv):
        # written row by row, byte for byte what json.dumps(indent=2) gives
        code, out, _ = run_cli(capsys, "count", *argv, "--format", "json")
        n = int(argv[-1])
        sizes = range(1, n + 1) if argv[0] == "--upto" else (n,)
        rows = [{"n": k, "value": str(count_closed_form(k))} for k in sizes]
        assert code == 0
        assert out == json.dumps(rows, indent=2) + "\n"

    def test_big_value_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "count", "100")
        assert code == 0
        assert out.strip() == str(
            9271463686195239118803530716446835184571830559071680509839539927100905971736920
        )

    def test_beyond_int_to_str_limit(self, capsys):
        # t_6000 has over 4300 digits, Python's default int-to-str limit
        code, out, err = run_cli(capsys, "count", "6000")
        assert (code, err) == (0, "")
        assert out == f"{unlimited_str(count_closed_form(6000))}\n"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
    )
    @pytest.mark.parametrize(
        "argv, code", [(("count", "6000"), 0), (("count", "100001"), 1), (("count", "0"), 2)]
    )
    def test_main_restores_the_int_to_str_limit(self, capsys, argv, code):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(before)

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "count")[0] == 2
        assert run_cli(capsys, "count", "3", "--upto", "5")[0] == 2
        assert run_cli(capsys, "count", "0")[0] == 2
        assert run_cli(capsys, "count", "x")[0] == 2
        assert run_cli(capsys, "count", "--upto", "3", "--format", "xml")[0] == 2


class TestApprox:
    def test_plain(self, capsys):
        code, out, err = run_cli(capsys, "approx", "1")
        assert (code, err) == (0, "")
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["n"] == "1"
        assert float(lines["ln_approx"]) == pytest.approx(-0.310740871042426)
        assert lines["approx"].endswith("e-1")

    def test_compare(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "100", "--compare")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["exact"] == "9271463686195239118803530716446835184571830559071680509839539927100905971736920"
        assert float(lines["rel_error"]) == pytest.approx(-0.0023638836814076605)

    def test_exact_is_computed_once(self, capsys, monkeypatch):
        # t_n once, printed and fed to the relative error: the same lines
        # as the library's relative_error(n)
        n = 300
        expected = f"exact {count_closed_form(n)}\nrel_error {relative_error(n)!r}\n"
        calls = []
        real = counting.count_closed_form

        def closed_form(n):
            calls.append(n)
            return real(n)

        for module in (cli, counting):
            monkeypatch.setattr(module, "count_closed_form", closed_form)
        code, out, _ = run_cli(capsys, "approx", str(n), "--compare")
        assert code == 0
        assert out.endswith(expected)
        assert calls == [n]

    def test_huge_n_does_not_overflow(self, capsys):
        # plain approx is O(1): bounded only where ln_approx leaves the float
        # range, far above --compare's bound
        for n, digits in ((5000, 4000), (10**18, 8 * 10**17)):
            code, out, _ = run_cli(capsys, "approx", str(n))
            assert code == 0
            lines = dict(line.split(" ", 1) for line in out.splitlines())
            mantissa, exponent = lines["approx"].split("e")
            assert 1.0 <= float(mantissa) < 10.0
            assert int(exponent) > digits

    def test_ln_approx_beyond_the_float_range_is_refused(self, capsys):
        # ln_approx, nearly n ln(27/4), printed inf from about 9.4e307 and
        # raised "int too large to convert to float" from 2^1024
        assert run_cli(capsys, "approx", str(10**307))[0] == 0
        for n in (10**308, 2**1024):
            code, out, err = run_cli(capsys, "approx", str(n))
            assert (code, out) == (1, "")
            assert err == (
                f"error: n={n} is above about 9.4e+307, the largest n whose ln_approx is finite\n"
            )

    @pytest.mark.parametrize(
        "n", [6236, 134908511, 5 * 10**9, *(10**k for k in range(19)), 10**307, 2**1023]
    )
    def test_digits_against_a_decimal_reference(self, capsys, n):
        # log10 taken from ln_approx in float printed 7.615727e+5164 at
        # n = 6236 and an exponent off by 3 at 10**18; rounding the mantissa
        # after choosing the exponent printed 10.000000e+111880123 at
        # n = 134908511
        with localcontext() as ctx:
            ctx.prec = 360
            log10 = (
                n * (Decimal(27) / 4).log10()
                - Decimal("1.5") * Decimal(n).log10()
                - (27 * PI).log10() / 2
            )
            exponent = int(log10.to_integral_value(rounding=ROUND_FLOOR))
            mantissa, shift = f"{Decimal(10) ** (log10 - exponent):.6e}".split("e")
        code, out, _ = run_cli(capsys, "approx", str(n))
        assert code == 0
        assert out.splitlines()[2] == f"approx {mantissa}e{exponent + int(shift):+d}"

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "approx", "0")[0] == 2


class TestEnumerate:
    def test_single_node(self, capsys):
        assert run_cli(capsys, "enumerate", "1") == (0, "[|]\n", "")

    def test_above_oracle_limit_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "11")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "limit 10" in err


class TestVerify:
    def test_oracle_limit_above_default_is_refused_up_front(self, capsys, monkeypatch):
        # enumerating to 11 would take minutes: fail fast if any starts
        def refuse(*args, **kwargs):
            raise RuntimeError("enumeration started")

        monkeypatch.setattr(verification, "tree_runs", refuse)
        code, out, err = run_cli(capsys, "verify", "--oracle-limit", "11")
        assert (code, out) == (1, "")
        # the very line that enumerate 11 prints
        assert err == "error: size 11 exceeds the enumeration limit 10\n"
        assert run_cli(capsys, "enumerate", "11") == (1, "", err)

    def test_series_terms_above_bound_is_refused_up_front(self, capsys, monkeypatch):
        # the check routes are quadratic in the order: fail fast if any starts
        def refuse(*args, **kwargs):
            raise RuntimeError("check started")

        for name in ("_check_counts", "_check_series", "_check_additive", "_check_sampler"):
            monkeypatch.setattr(verification, name, refuse)
        monkeypatch.setattr(verification.counting, "build_count_table", refuse)
        assert run_cli(capsys, "verify", "--series-terms", "513") == (
            1, "", "error: series_terms=513 is above 512, the largest order checked\n"
        )


class TestSample:
    def test_seeded_runs_are_identical(self, capsys):
        a = run_cli(capsys, "sample", "6", "--count", "5", "--seed", "42")
        b = run_cli(capsys, "sample", "6", "--count", "5", "--seed", "42")
        assert a == b
        assert a[0] == 0
        assert a[2] == ""  # no diagnostics when the seed is given
        lines = a[1].splitlines()
        assert len(lines) == 5
        assert all(line.count("|") == 6 for line in lines)

    def test_size_one(self, capsys):
        code, out, err = run_cli(capsys, "sample", "1", "--count", "2", "--seed", "7")
        assert (code, out, err) == (0, "[|]\n[|]\n", "")

    def test_entropy_seed_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "sample", "3")
        assert code == 0
        assert err.startswith("seed ")
        seed = int(err.split()[1])
        code2, out2, err2 = run_cli(capsys, "sample", "3", "--seed", str(seed))
        assert (code2, out2, err2) == (0, out, "")

    def test_above_the_size_bound_is_refused_before_any_work(self, capsys, monkeypatch):
        # refused before the entropy seed is echoed and before anything is
        # drawn: the pool of 3n-2 slots that a draw builds does not fit in
        # memory at n = 10^12
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "SamplerState", refuse)
        for n in (cli._MAX_SAMPLE_N + 1, 10**12):
            assert run_cli(capsys, "sample", str(n)) == (
                1, "", f"error: n={n} is above 1000000, the largest n sampled\n"
            )

    def test_a_negative_seed_is_refused_before_any_draw(self, capsys, monkeypatch):
        # _random seeds -s as s: --seed -5 would print the trees of --seed 5
        class Unloaded:
            def __getattr__(self, attr):
                raise AssertionError("a draw started")

        monkeypatch.setattr(sampler, "random", Unloaded())
        assert run_cli(capsys, "sample", "5", "--seed", "-5") == (
            1, "", "error: seed must be at least 0, got -5\n"
        )

    def test_the_bound_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sample_text", lambda n, state: "tree")
        assert run_cli(capsys, "sample", "1000000", "--seed", "1") == (0, "tree\n", "")

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "sample", "3", "--count", "0")[0] == 2
        assert run_cli(capsys, "sample", "-3")[0] == 2


class TestSeries:
    def test_default_terms(self, capsys):
        code, out, _ = run_cli(capsys, "series")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,coefficient"
        assert len(lines) == 18  # header + orders 0..16
        assert lines[1] == "0,0"
        assert lines[4] == "3,7"

    def test_explicit_terms(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--terms", "5")
        assert out == "k,coefficient\n0,0\n1,1\n2,2\n3,7\n4,30\n5,143\n"
        assert code == 0


class TestParam:
    def test_unit(self, capsys):
        code, out, _ = run_cli(capsys, "param", "--toll", "unit", "3")
        assert code == 0
        assert out == "n,total,mean_num,mean_den\n3,21,3,1\n"

    def test_size(self, capsys):
        code, out, _ = run_cli(capsys, "param", "--toll", "size", "2")
        # both size-2 trees have c = 2 + 1 = 3
        assert out == "n,total,mean_num,mean_den\n2,6,3,1\n"
        assert code == 0

    @pytest.mark.parametrize("toll", ["unit", "leaf", "size"])
    def test_large_n_builds_no_table_or_series(self, capsys, monkeypatch, toll):
        def boom(*args, **kwargs):
            raise AssertionError("param built a table or a series")

        monkeypatch.setattr(counting, "build_count_table", boom)
        for method in ("__init__", "__mul__", "quasi_inverse"):
            monkeypatch.setattr(verification.PowerSeries, method, boom)
        n = 3000
        total = {
            "unit": lambda: math.comb(3 * n - 2, n - 1),
            "leaf": lambda: math.comb(3 * n - 4, n - 1),
            "size": lambda: sum(math.comb(2 * n - 2 + k, k) * 3 ** (n - 1 - k) for k in range(n)),
        }[toll]()
        g = math.gcd(total, count_closed_form(n))
        code, out, _ = run_cli(capsys, "param", "--toll", toll, str(n))
        assert code == 0
        assert out == (
            f"n,total,mean_num,mean_den\n{n},{total},{total // g},"
            f"{count_closed_form(n) // g}\n"
        )

    @pytest.mark.parametrize("toll,binomials", [("unit", 2), ("leaf", 2), ("size", 1)])
    def test_each_big_number_is_computed_once(self, capsys, monkeypatch, toll, binomials):
        # the total once, t_n once, and the mean reduced from those two by a
        # gcd: the same line as the library's Fraction route
        for n in (1, 2, 3, 40, 199):
            mean = mean_parameter(toll_by_name(toll), n)
            code, out, _ = run_cli(capsys, "param", "--toll", toll, str(n))
            assert code == 0
            assert out == (
                f"n,total,mean_num,mean_den\n{n},{mean * count_closed_form(n)},"
                f"{mean.numerator},{mean.denominator}\n"
            )
        calls = []
        real_binomial, real_count = counting._binomial, counting.count_closed_form

        def binomial(a, b):
            calls.append("binomial")
            return real_binomial(a, b)

        def closed_form(n):
            calls.append("t_n")
            return real_count(n)

        # the one binomial kernel, wherever a closed form or a total reads it
        for module in (counting, additive):
            monkeypatch.setattr(module, "_binomial", binomial)
        for module in (cli, counting, additive):
            monkeypatch.setattr(module, "count_closed_form", closed_form)
        code, _, _ = run_cli(capsys, "param", "--toll", toll, "40")
        assert code == 0
        assert (calls.count("t_n"), calls.count("binomial")) == (1, binomials)

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "param", "--toll", "depth", "3")[0] == 2
        assert run_cli(capsys, "param", "3")[0] == 2
        assert run_cli(capsys, "param", "--toll", "leaf", "0")[0] == 2


class TestBinomialRoute:
    def test_no_request_reads_math_comb(self, capsys, monkeypatch):
        # count n, approx --compare and the unit and leaf totals read the
        # prime-power kernel; math.comb is only this test's oracle
        n = 3000
        unit, leaf = math.comb(3 * n - 2, n - 1), math.comb(3 * n - 4, n - 1)
        t = unit // n

        def refuse(*args):
            raise AssertionError("math.comb was called")

        monkeypatch.setattr(math, "comb", refuse)
        assert run_cli(capsys, "count", str(n)) == (0, f"{t}\n", "")
        code, out, _ = run_cli(capsys, "approx", str(n), "--compare")
        assert (code, out.splitlines()[3]) == (0, f"exact {t}")
        for toll, total in (("unit", unit), ("leaf", leaf)):
            g = math.gcd(total, t)
            assert run_cli(capsys, "param", "--toll", toll, str(n)) == (
                0, f"n,total,mean_num,mean_den\n{n},{total},{total // g},{t // g}\n", ""
            )


class TestExactBound:
    """``count n``, ``approx n --compare`` and ``param`` refuse n above the
    bound before any work: the digits of t_n, and ``param --toll size``'s
    total, cost time that grows about quadratically in n."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("count_closed_form", "stirling_log_approx", "toll_by_name",
                     "tree_counts"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["count", str(cli._MAX_EXACT_N + 1)],
        ["count", "1000000", "--format", "json"],
        ["approx", "1000000000000000000", "--compare"],
        ["param", "--toll", "unit", "1000000"],
        ["param", "--toll", "size", str(cli._MAX_EXACT_N + 1)],
    ])
    def test_refused_before_any_work(self, capsys, no_work, argv):
        n = next(word for word in argv if word.isdecimal())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: n={n} is above {cli._MAX_EXACT_N}, the largest n counted exactly\n"

    def test_the_bound_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_closed_form", lambda n: 7)
        monkeypatch.setattr(cli, "relative_error_of", lambda ln_approx, t: 0.5)
        assert run_cli(capsys, "count", str(cli._MAX_EXACT_N)) == (0, "7\n", "")
        code, out, _ = run_cli(capsys, "approx", str(cli._MAX_EXACT_N), "--compare")
        assert (code, out.splitlines()[-2:]) == (0, ["exact 7", "rel_error 0.5"])


class Recorder:
    """A stdout that keeps each text written and ``len(drawn)`` at that moment."""

    def __init__(self, drawn=()):
        self.drawn, self.writes, self.drawn_at = drawn, [], []

    def write(self, text):
        self.writes.append(text)
        self.drawn_at.append(len(self.drawn))
        return len(text)

    def flush(self):
        pass


def blocks_of(items, bound):
    """``items`` joined into blocks, each cut after the item that brings it to ``bound``."""
    blocks, block = [], ""
    for item in items:
        block += item
        if len(block) >= bound:
            blocks.append(block)
            block = ""
    return blocks + [block] * bool(block)


class TestOutput:
    @pytest.mark.parametrize(
        "argv,header",
        [
            (("enumerate", "3"), 0),
            (("sample", "4", "--count", "7", "--seed", "5"), 0),
            (("count", "--upto", "7"), 0),
            (("count", "--upto", "7", "--format", "csv"), 1),
            (("series", "--terms", "6"), 1),
        ],
    )
    def test_lines_are_written_in_blocks(self, capsys, monkeypatch, argv, header):
        # one write per line is one system call each when stdout is unbuffered
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        recorder = Recorder()
        monkeypatch.setattr(cli, "_BLOCK_CHARS", 24)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(list(argv)) == 0
        writes = recorder.writes
        items = out.splitlines(keepends=True)
        if argv[0] == "enumerate":  # the writer takes a run of trees as one item
            items = [run + "\n" for run in tree_runs(int(argv[1]))]
        blocks = blocks_of(items, 24)
        assert "".join(writes) == out
        assert writes == blocks
        assert writes[0].count("\n") > header  # a header shares the first block
        assert len(blocks) < len(out.splitlines())

    @pytest.mark.parametrize("n", [8, 10])
    def test_runs_are_written_in_blocks_at_the_real_bound(self, monkeypatch, n):
        # runs are 299-2549 characters at n = 8 and up to 5207 at n = 10, so
        # no one run's width tells how many runs fill a block
        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(["enumerate", str(n)]) == 0
        items = [run + "\n" for run in tree_runs(n)]
        assert recorder.writes == blocks_of(items, cli._BLOCK_CHARS)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "5"),
            ("approx", "50", "--compare"),
            ("param", "--toll", "leaf", "20"),
            ("verify", "--oracle-limit", "3", "--series-terms", "8"),
        ],
    )
    def test_a_short_output_is_one_write(self, capsys, monkeypatch, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(list(argv)) == 0
        assert recorder.writes == [out]

    def test_a_block_ends_on_the_line_that_reaches_the_bound(self, capsys, monkeypatch):
        # a block is bounded by characters, not lines: lines of t_n, some
        # 0.83 n digits each, make blocks of few lines
        code, out, _ = run_cli(capsys, "count", "--upto", "40")
        assert code == 0
        recorder = Recorder()
        monkeypatch.setattr(cli, "_BLOCK_CHARS", 50, raising=False)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(["count", "--upto", "40"]) == 0
        writes = recorder.writes
        assert "".join(writes) == out
        assert len(writes) > 1
        for text in writes[:-1]:
            last = text.splitlines(keepends=True)[-1]
            assert len(text) >= 50 > len(text) - len(last), text

    @pytest.mark.parametrize(
        "argv,header",
        [
            (("count", "--upto", "10"), 0),
            (("count", "--upto", "10", "--format", "csv"), 1),
            (("count", "--upto", "10", "--format", "json"), 1),
            (("series", "--terms", "10"), 1),
        ],
    )
    def test_table_commands_stream(self, capsys, monkeypatch, argv, header):
        # each block is written before the count recurrence runs more than one
        # term past it, and no table, forest count or series is built
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("built a count table or a series")

        for module in (cli, counting):
            monkeypatch.setattr(module, "build_count_table", refuse, raising=False)
        monkeypatch.setattr(verification.PowerSeries, "__init__", refuse)
        drawn = []

        def counted(real=getattr(cli, "tree_counts", None)):
            for t in real():
                drawn.append(t)
                yield t

        monkeypatch.setattr(cli, "tree_counts", counted, raising=False)
        recorder = Recorder(drawn)
        monkeypatch.setattr(cli, "_BLOCK_CHARS", 20)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(list(argv)) == 0
        assert "".join(recorder.writes) == out
        assert len(drawn) == 10
        # the header shares the first block; a json row takes 4 lines
        per_row = 4 if "json" in argv else 1
        written = list(zip(recorder.drawn_at, recorder.writes))
        assert len(written) >= 3
        lines = -header
        for n, text in written:
            lines += text.count("\n")
            assert n <= lines // per_row + 1, f"a block written after {n} counts"

    def test_a_block_is_written_once_it_reaches_the_bound(self, monkeypatch):
        # short lines before long ones: each block is cut after the line that
        # brings it to the bound, so it overshoots by less than that line
        lines = ["a" * 3] * 20 + ["b" * 30] * 10 + ["c"] * 5 + ["d" * 120] * 2
        recorder = Recorder()
        monkeypatch.setattr(cli, "_BLOCK_CHARS", 50)
        monkeypatch.setattr(sys, "stdout", recorder)
        cli._write_lines(iter(lines))
        assert recorder.writes == blocks_of([line + "\n" for line in lines], 50)
        assert len(recorder.writes) > 2

    def test_growing_lines_are_written_as_they_come(self, capsys, monkeypatch):
        # a line of t_n grows with n, and each block is written on the count
        # that brings it to the bound, before the next count is drawn: the
        # first block ends near count 560 of 2000
        code, out, _ = run_cli(capsys, "count", "--upto", "2000")
        assert code == 0
        drawn = []

        def counted(real=cli.tree_counts):
            for t in real():
                drawn.append(t)
                yield t

        monkeypatch.setattr(cli, "tree_counts", counted)
        recorder = Recorder(drawn)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(["count", "--upto", "2000"]) == 0
        assert "".join(recorder.writes) == out
        assert len(recorder.writes) > 2
        lines = 0
        for n, text in zip(recorder.drawn_at, recorder.writes):
            lines += text.count("\n")
            assert n <= lines + 1, f"a block written after {n} counts"


class TestDispatch:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "count" in capsys.readouterr().out

    def test_only_a_value_error_is_a_domain_failure(self, capsys, monkeypatch):
        # every refusal raises ValueError; anything else is a fault, and
        # propagates with its traceback rather than as an "error: " line
        def broken(**values):
            raise IndexError("a lookup out of range")

        monkeypatch.setitem(cli.COMMANDS, "count", (broken, *cli.COMMANDS["count"][1:]))
        with pytest.raises(IndexError):
            cli.main(["count", "3"])
        assert "error: " not in capsys.readouterr().err

    def test_installed_entry_point(self):
        # The installed command and `python -m deptrees` must start the same
        # function: run(), which owns the BrokenPipe handling.
        module, _, attr = console_scripts()["deptrees"].partition(":")
        assert (module, attr) == ("deptrees.cli", "run")
        assert getattr(importlib.import_module(module), attr) is cli.run
        assert deptrees.__main__.run is cli.run
        proc = subprocess.run(
            module_command("count", "3"),
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "7\n"

    def test_broken_pipe_is_quiet(self):
        assert_quiet_on_broken_pipe(module_command("enumerate", "8"))

    def test_broken_pipe_is_quiet_through_a_bare_run(self):
        # as the benchmark calls it: no runpy, so nothing has loaded the os
        # that the broken-pipe branch uses
        assert_quiet_on_broken_pipe([sys.executable, "-S", "-c", RUN, "enumerate", "8"])


def assert_quiet_on_broken_pipe(command: list[str]) -> None:
    # 21318 lines overflow the pipe buffer once the reader goes away.
    with subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 1
    assert first == "[[[[[[[[|]|]|]|]|]|]|]|]\n"
    assert "Traceback" not in stderr


class TestPublicApi:
    def test_all_is_pinned_and_resolves(self):
        assert sorted(deptrees.__all__) == [
            "CheckResult", "CountTable", "DEFAULT_ORACLE_LIMIT", "DepTree", "Forest",
            "OracleLimitError", "ParseError", "SamplerState", "TollSpec",
            "__version__", "build_count_table", "builtin_tolls", "count_closed_form",
            "cumulative_by_enumeration", "enumerate_forests", "enumerate_trees",
            "eval_T_numeric", "fold_cost", "mean_parameter", "parse", "parse_forest",
            "relative_error", "run_verification", "sample_forest", "sample_tree",
            "serialize", "serialize_forest", "size", "stirling_log_approx", "toll_by_name",
        ]
        for name in deptrees.__all__:
            assert getattr(deptrees, name) is not None, name
        # no module resolves names lazily
        for module in layers() | {"deptrees"}:
            assert "__getattr__" not in vars(importlib.import_module(module)), module


def layers() -> set[str]:
    return {
        f"deptrees.{path.stem}"
        for path in Path(deptrees.__file__).parent.glob("*.py")
        if path.stem not in ("__init__", "__main__")
    }


class TestStartup:
    def test_cold_import_loads_every_layer_and_no_heavy_stdlib(self):
        # Every request is a fresh interpreter, so the import graph is paid
        # per request.  All submodules stay eagerly imported: a wrapper put on
        # a module after the import (as a tracer does) then sees every layer.
        code = "import deptrees.cli, sys; print(*sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        # random (with bisect, warnings and _sha512) and os would be half the
        # import; a draw loads only _random, and only the branches that use it os.
        # Every annotation evaluates as written, so no module needs __future__
        assert loaded.isdisjoint(
            {"dataclasses", "typing", "inspect", "secrets", "json", "collections",
             "random", "_random", "os", "operator", "__future__"}
        )
        assert layers() and layers() <= loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "300", "--seed", "1", "--count", "3"),
            ("sample", "5", "--seed", "0"),
            ("param", "--toll", "unit", "50"),
            ("verify", "--oracle-limit", "4", "--series-terms", "8"),
            ("series", "--terms", "8"),
            ("count", "5"),
            ("count", "--upto", "5", "--format", "json"),
            ("enumerate", "4"),
            ("approx", "50", "--compare"),
            ("sample", "30", "--seed", "1"),
        ],
    )
    def test_cold_request_loads_no_re_argparse_or_fractions(self, argv):
        # re (with enum) was a third of a request's start-up: argparse and
        # fractions each imported it, so neither may be on a request's path.
        # collections was built into three namedtuples and a Counter only,
        # and operator only re-exports the built-in _operator.  A seeded
        # sample draws from _random alone, and only a seedless one needs os.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN_REPORTING_MODULES, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        loaded = set(proc.stderr.split())
        heavy = {"re", "enum", "argparse", "gettext", "locale", "shutil",
                 "fractions", "decimal", "numbers", "collections", "operator",
                 "random", "os"}
        assert heavy.isdisjoint(loaded), heavy & loaded
        assert layers() <= loaded
        # the first draw loads _random (a shared library), and only a draw does
        assert ("_random" in loaded) == (argv[0] == "sample")

    def test_cold_import_loads_no_math(self):
        # math is a shared library; each function that computes with it
        # imports it, so the import alone loads no extension module
        code = ("import deptrees.cli, sys; print('math' in sys.modules, *(name for name, m in "
                "sys.modules.items() if str(getattr(m, '__file__', '')).endswith(('.so', '.pyd'))))")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize(
        "argv,loads_math",
        [
            (("sample", "30", "--seed", "1"), False),
            (("enumerate", "4"), False),
            (("count", "--upto", "5", "--format", "json"), False),
            (("series", "--terms", "8"), False),
            # the binomial kernel is integer arithmetic too
            (("count", "5"), False),
            # the check can see the module: these compute with it
            (("approx", "50", "--compare"), True),
            (("param", "--toll", "leaf", "20"), True),
            # the kernel again, and exact checks only
            (("verify", "--oracle-limit", "4", "--series-terms", "8"), False),
        ],
    )
    def test_cold_request_loads_math_only_to_compute_with_it(self, argv, loads_math):
        # the stars-and-bars sampler, the grammar walk and the binomial kernel
        # are integer arithmetic; only Stirling's floats and param's gcd use math
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN_REPORTING_MODULES, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        assert ("math" in proc.stderr.split()) == loads_math

    def test_refused_size_loads_no_math(self):
        # the size check comes before the import
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN_REPORTING_MODULES, "count", "100001"],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 1
        error, modules = proc.stderr.splitlines()
        assert error.startswith("error: ") and "math" not in modules.split()

    def test_cold_seedless_sample_seeds_from_urandom(self, capsys):
        # secrets.randbits(64) reads the same os.urandom, but secrets imports
        # re, hashlib, hmac and base64 besides
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN_REPORTING_MODULES, "sample", "5"],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        echo, modules = proc.stderr.splitlines()
        loaded = set(modules.split())
        assert loaded.isdisjoint({"secrets", "re", "hashlib", "hmac", "random"})
        assert {"_random", "os"} <= loaded
        word, seed = echo.split()
        assert word == "seed" and 0 <= int(seed) < 2**64
        assert run_cli(capsys, "sample", "5", "--seed", seed) == (0, proc.stdout, "")

    @pytest.mark.parametrize(
        "argv, code", [(("--help",), 0), (("sample", "-h"), 0), (("count", "0"), 2)]
    )
    def test_cold_help_and_usage_error_go_through_argparse(self, argv, code):
        # off the plain shape the argparse parser built from COMMANDS answers
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stdout.startswith("usage: deptrees")
            assert proc.stderr == ""
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith("usage: deptrees count")
            assert "error: argument n: must be a positive integer, got 0" in proc.stderr
