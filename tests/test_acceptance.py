"""Acceptance gate: ten criteria, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 01-05 and 08 run the checks of ``deptrees.verification`` at the
sizes stated here, so each check is written once.  The asymptotic and
ratio tolerances are frozen from a one-time exact evaluation recorded here
(measured values in comments).
"""
from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

from deptrees import (
    build_count_table,
    builtin_tolls,
    cli,
    cumulative_by_enumeration,
    eval_T_numeric,
    relative_error,
)
from deptrees.counting import SINGULARITY_FLOAT
from deptrees.trees import tree_runs
from deptrees.verification import (
    _check_additive,
    _check_counts,
    _check_sampler,
    _check_series,
    _tally,
)

GOLDEN = Path(__file__).parent / "golden"

# frozen tolerances (measured values noted alongside)
REL_ERROR_TOL_AT_1000 = 2.5e-4          # measured -2.3613879688777492e-04
RATIO_GAP_TOL_AT_2000 = Fraction(52, 10000)  # measured ~5.0597e-03


def oracle(n: int) -> list:
    """The tallies of the trees of sizes 1..n, as ``run_verification`` makes them."""
    return [None, *(_tally(tree_runs(k), False) for k in range(1, n + 1))]


def held(n: int) -> list:
    """The string lists of the trees of sizes 1..n, which the sampler check reads."""
    return [None, *("\n".join(tree_runs(k)).split("\n") for k in range(1, n + 1))]


def verdict(num: int, passed: bool, summary: str, started: float) -> None:
    state = "PASS" if passed else "FAIL"
    elapsed = time.monotonic() - started
    print(f"[criterion {num:02d}] {state} ({elapsed:.2f}s) {summary}")
    assert passed, f"criterion {num}: {summary}"


class TestAcceptance:
    def test_criterion_01_three_way_counts(self):
        started = time.monotonic()
        passed, detail = _check_counts(build_count_table(512), oracle(8))
        verdict(
            1,
            passed,
            "ratio table matches the convolution (t and s) and the closed form "
            f"and Lagrange routes: {detail}",
            started,
        )

    def test_criterion_02_oracle_agreement(self):
        started = time.monotonic()
        table = build_count_table(512)
        passed, detail = _check_counts(table, oracle(8))
        ok = passed and table.t[3:6] == (7, 30, 143)
        verdict(2, ok, f"oracle matches counts, t_3..t_5 = 7, 30, 143: {detail}", started)

    def test_criterion_03_series_identity(self):
        started = time.monotonic()
        passed, detail = _check_series(build_count_table(256).t)
        verdict(3, passed, f"T(1-T)^2 = z exactly: {detail}", started)

    def test_criterion_04_derivative_identity(self):
        started = time.monotonic()
        passed, detail = _check_series(build_count_table(256).t)
        verdict(4, passed, f"zT' = T(1-T)/(1-3T) exactly: {detail}", started)

    def test_criterion_05_cumulative_relation(self):
        started = time.monotonic()
        passed, _ = _check_additive(build_count_table(128).t, oracle(8))
        leaf = next(t for t in builtin_tolls() if t.name == "leaf")
        ok = passed and cumulative_by_enumeration(leaf, 3) == 10
        verdict(
            5,
            ok,
            "closed-form totals match both cumulative GF forms to order 128, "
            "and the GF matches oracle totals for n<=8",
            started,
        )

    def test_criterion_06_asymptotics(self):
        started = time.monotonic()
        errs = {n: relative_error(n) for n in (10, 100, 1000)}
        ok = abs(errs[1000]) < abs(errs[100]) < abs(errs[10])
        ok = ok and abs(errs[1000]) < REL_ERROR_TOL_AT_1000
        verdict(
            6,
            ok,
            f"relative error shrinks 10->100->1000; |err(1000)|="
            f"{abs(errs[1000]):.3e} < {REL_ERROR_TOL_AT_1000}",
            started,
        )

    def test_criterion_07_ratio_gap(self, table_2048):
        started = time.monotonic()
        t = table_2048.t
        gap_200 = abs(Fraction(27, 4) - Fraction(t[201], t[200]))
        gap_2000 = abs(Fraction(27, 4) - Fraction(t[2001], t[2000]))
        ok = gap_2000 < RATIO_GAP_TOL_AT_2000 and gap_2000 < gap_200
        verdict(
            7,
            ok,
            f"t_2001/t_2000 within {float(RATIO_GAP_TOL_AT_2000)} of 27/4 "
            f"(gap {float(gap_2000):.3e}), tighter than at n=200",
            started,
        )

    def test_criterion_08_sampler_uniformity(self):
        started = time.monotonic()
        passed, detail = _check_sampler(held(7))
        verdict(8, passed, f"exact uniformity, no statistics: {detail}", started)

    def test_criterion_09_numeric_branch(self):
        started = time.monotonic()
        grid = [SINGULARITY_FLOAT * i / 49 for i in range(50)]
        values = [eval_T_numeric(z) for z in grid]
        residuals = [abs(x * (1 - x) ** 2 - z) for x, z in zip(values, grid)]
        ok = all(r <= 1e-12 for r in residuals)
        ok = ok and all(0.0 <= x <= 1 / 3 + 1e-15 for x in values)
        ok = ok and all(a <= b for a, b in zip(values, values[1:]))
        ok = ok and abs(values[0] - 0.0) <= 1e-9
        ok = ok and abs(values[-1] - 1 / 3) <= 1e-9
        verdict(
            9,
            ok,
            f"50-point grid: residual <= 1e-12, monotone, endpoints 0 and 1/3 "
            f"(max residual {max(residuals):.1e})",
            started,
        )

    def test_criterion_10_cli_golden(self, capsys):
        started = time.monotonic()
        cases = [
            (["count", "--upto", "5"], "count_upto5.txt"),
            (["enumerate", "2"], "enumerate2.txt"),
            (["enumerate", "3"], "enumerate3.txt"),
            (["param", "--toll", "leaf", "3"], "param_leaf3.txt"),
        ]
        ok = True
        for argv, name in cases:
            code = cli.main(argv)
            out = capsys.readouterr().out
            ok = ok and code == 0 and out == (GOLDEN / name).read_text()
        with capsys.disabled():
            verdict(10, ok, "four CLI invocations byte-match their golden files", started)
