"""Regenerate ``expected.json``: digests of the reference CLI outputs.

The ``param --toll leaf|size`` and ``approx --compare`` outputs have no
independent closed form the harness could compute, so the benchmark
compares them to the bytes the reference commit printed.  Run this from
the repository root on that commit:

    PYTHONPATH=src python3 perfbench/make_expected.py

It calls ``deptrees.cli.main`` in-process for every size the workloads
(and the smoke sizes) can draw.  ``approx`` uses one shared count table
sliced to each n, which is exactly what ``build_count_table(n)`` returns
since the recurrences fill the table in order; a few sizes are checked
against a direct build.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import workloads
from deptrees import cli
from deptrees.counting import CountTable, build_count_table


def _stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"reference run failed with exit {code}: {argv}")
    return buf.getvalue().encode()


def main() -> int:
    sys.set_int_max_str_digits(0)
    expected = {}
    hi = workloads.RANGES["param"][1]
    for toll in ("leaf", "size"):
        for n in range(1, hi + 1):
            argv = ["param", "--toll", toll, str(n)]
            expected[" ".join(argv)] = checks.digest(_stdout_of(argv))

    hi = workloads.RANGES["approx"][1]
    full = build_count_table(hi)
    for n in (1, 7, 100, 333):
        sliced = CountTable(full.t[: n + 1], full.s[: n + 1])
        assert sliced == build_count_table(n), n
    cli.build_count_table = lambda n: CountTable(full.t[: n + 1], full.s[: n + 1])
    for n in range(1, hi + 1):
        argv = ["approx", str(n), "--compare"]
        expected[" ".join(argv)] = checks.digest(_stdout_of(argv))

    out = Path(__file__).with_name("expected.json")
    out.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
