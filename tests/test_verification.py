"""Verification suite tests.

Covers: the suite passing on a healthy build, structured results, one
count table, one walk of each oracle size with no size held, every star
subset of each size to 6 fed to the sampler, and one cumulative GF kernel
per run, fault injection through a wrong derivative, through a corrupted
count table (both directly and through the CLI), through a wrong
closed-form additive total, an oracle missing or repeating a tree, off
its forest tally or out of order across two runs, and a wrong string
fold, and through samplers that are biased, draw from the wrong slot
range, skip draws or ignore their stream, crash containment inside
checks, parameter validation, and the series helper of the sequence-form
cumulative GF.
"""
from __future__ import annotations

import tracemalloc
from itertools import combinations, cycle

import pytest

from deptrees import CheckResult, CountTable, TollSpec, build_count_table, run_verification
from deptrees import cli, counting, verification
from deptrees.trees import OracleLimitError, tree_runs


def corrupt(table: CountTable, n: int, delta: int = 1) -> CountTable:
    t = list(table.t)
    t[n] += delta
    return CountTable(tuple(t), table.s)


def inject(monkeypatch, change) -> None:
    """Make the suite's count table ``change(table)``, for the table it builds."""
    real = counting.build_count_table
    monkeypatch.setattr(counting, "build_count_table", lambda n: change(real(n)))


def sampler_result(results):
    (result,) = [r for r in results if r.name == "sampler-exact"]
    return result


class TestHealthyRun:
    def test_all_pass(self):
        results = run_verification(oracle_limit=5, series_terms=16)
        assert [r.name for r in results] == [
            "count-agreement",
            "series-identity",
            "additive-agreement",
            "sampler-exact",
        ]
        assert all(r.passed for r in results)
        assert all(isinstance(r, CheckResult) and r.detail for r in results)

    def test_series_terms_below_the_oracle_limit(self):
        # the additive check reads the GF coefficient of every oracle size
        results = run_verification(oracle_limit=8, series_terms=4)
        assert all(r.passed for r in results), results
        assert "order 8" in results[1].detail

    def test_one_table_and_one_oracle_pass(self, monkeypatch):
        # each size 1..max(L, 6) is walked exactly once: the sampler check
        # reads the sizes to 6 whatever the oracle limit L
        real_table, real_walk = counting.build_count_table, verification.tree_runs
        for oracle_limit in (4, 7):
            tables, walked = [], []

            def table(n):
                tables.append(n)
                return real_table(n)

            def walk(n):
                walked.append(n)
                return real_walk(n)

            monkeypatch.setattr(counting, "build_count_table", table)
            monkeypatch.setattr(verification, "tree_runs", walk)
            results = run_verification(oracle_limit=oracle_limit, series_terms=16)
            assert all(r.passed for r in results)
            assert len(tables) == 1
            assert sorted(walked) == list(range(1, max(oracle_limit, 6) + 1))

    def test_the_oracle_holds_no_size(self):
        # each size is tallied as its runs come: the 120175 strings of size
        # 9 alone take about 10 MiB held, and every size to 9 about 12 MiB
        tracemalloc.start()
        try:
            results = run_verification(oracle_limit=9, series_terms=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak < 2 * 2**20

    def test_every_star_subset_reaches_the_sampler(self, monkeypatch):
        # n t_n draws and one more that finds the subsets used up, at each
        # n <= 6 whatever the oracle limit: 1 + 4 + 21 + 120 + 715 + 4368
        # subsets and 6 more calls
        real = verification.sample_text
        for oracle_limit in (2, 7):
            calls = []

            def counted(n, state):
                calls.append(n)
                return real(n, state)

            monkeypatch.setattr(verification, "sample_text", counted)
            assert sampler_result(run_verification(oracle_limit=oracle_limit, series_terms=8)).passed
            assert len(calls) == 5235

    def test_one_kernel_per_check(self, monkeypatch):
        # the additive check forms one kernel K = C(E = 1) in each form, which
        # serves all three tolls; the series check forms neither, and no
        # quasi-inverse: it clears the denominator 1 - 3T instead
        calls = []
        for name in ("cumulative_gf", "cumulative_gf_via_sequences"):

            def counted(E, T, name=name, real=getattr(verification, name)):
                calls.append(name)
                return real(E, T)

            monkeypatch.setattr(verification, name, counted)
        results = run_verification(oracle_limit=4, series_terms=8)
        assert all(r.passed for r in results)
        assert sorted(calls) == ["cumulative_gf", "cumulative_gf_via_sequences"]

        def refuse(self):
            raise AssertionError("the series check formed a quasi-inverse")

        monkeypatch.setattr(verification.PowerSeries, "quasi_inverse", refuse)
        calls.clear()
        assert verification._check_series(build_count_table(8).t)[0]
        assert calls == []


class TestFaultInjection:
    def test_corrupted_count_detected(self, monkeypatch):
        inject(monkeypatch, lambda table: corrupt(table, 7))
        results = run_verification(oracle_limit=4, series_terms=8)
        by_name = {r.name: r for r in results}
        assert not by_name["count-agreement"].passed
        assert "n=7" in by_name["count-agreement"].detail

    def test_corrupted_forest_count_detected(self, monkeypatch):
        # s_8, the table's last forest count, lies beyond the oracle, so only
        # the convolution route sees it
        def bump_s8(table):
            s = list(table.s)
            s[8] += 1
            return CountTable(table.t, tuple(s))

        inject(monkeypatch, bump_s8)
        results = run_verification(oracle_limit=4, series_terms=8)
        by_name = {r.name: r for r in results}
        assert not by_name["count-agreement"].passed
        assert "m=8" in by_name["count-agreement"].detail

    def test_corrupted_small_count_detected_by_oracle_too(self, monkeypatch):
        inject(monkeypatch, lambda table: corrupt(table, 3))
        results = run_verification(oracle_limit=4, series_terms=8)
        assert not results[0].passed

    def test_corrupted_count_fails_the_series_checks_too(self, monkeypatch):
        # T(z) is read off the suite's table, up to the series order
        inject(monkeypatch, lambda table: corrupt(table, 5))
        by_name = {r.name: r for r in run_verification(oracle_limit=4, series_terms=8)}
        assert not by_name["series-identity"].passed
        assert by_name["series-identity"].detail == "T(1-T)^2 = z fails beyond order 4"
        # the two kernel forms agree only when T solves its equation
        assert by_name["additive-agreement"].detail == "the two GF forms differ"
        assert by_name["sampler-exact"].passed

    def test_wrong_derivative_detected(self, monkeypatch):
        # T itself is right, so the residual holds and only the derivative
        # identity can fail; a corrupted table cannot reach this branch, as
        # the derivative identity follows once the residual holds to order N
        real = verification.z_times_derivative

        def shifted(a):
            c = list(real(a).coeffs)
            c[3] += 1
            return verification.PowerSeries(c)

        healthy = {r.name: r for r in run_verification(oracle_limit=4, series_terms=8)}
        assert healthy["series-identity"].passed
        monkeypatch.setattr(verification, "z_times_derivative", shifted)
        by_name = {r.name: r for r in run_verification(oracle_limit=4, series_terms=8)}
        assert (by_name["series-identity"].passed, by_name["series-identity"].detail) == (
            False, "zT' != T(1-T)/(1-3T)"
        )
        assert by_name["additive-agreement"].passed

    def test_non_integer_table_fails_checks_not_the_suite(self, monkeypatch):
        # a str count crashes the series arithmetic; the suite reports it
        def str_t3(table):
            t = list(table.t)
            t[3] = "7"
            return CountTable(tuple(t), table.s)

        inject(monkeypatch, str_t3)
        by_name = {r.name: r for r in run_verification(oracle_limit=4, series_terms=8)}
        for name in ("series-identity", "additive-agreement"):
            assert not by_name[name].passed
            assert by_name[name].detail.startswith("raised TypeError")

    def test_wrong_closed_form_total_detected(self, monkeypatch):
        # a size total off by one at n = 5 only: the GF routes must catch it
        real = verification.builtin_tolls()

        def off_by_one(n, total=real[2].total):
            return total(n) + (n == 5)

        bad = real[:2] + [TollSpec(real[2].name, real[2].evaluate, off_by_one)]
        monkeypatch.setattr(verification, "builtin_tolls", lambda: bad)
        results = run_verification(oracle_limit=3, series_terms=8)
        by_name = {r.name: r for r in results}
        assert not by_name["additive-agreement"].passed
        assert "toll size, n=5" in by_name["additive-agreement"].detail
        assert "closed form" in by_name["additive-agreement"].detail

    def test_missing_oracle_tree_detected(self, monkeypatch):
        # the shared oracle loses one size-5 tree: the count falls short,
        # and every toll's total at n = 5 falls short of the GF.  A list of
        # strings is a stream of one-line runs
        def short(n):
            texts = "\n".join(tree_runs(n)).split("\n")
            if n == 5:
                del texts[0]
            return iter(texts)

        monkeypatch.setattr(verification, "tree_runs", short)
        results = run_verification(oracle_limit=6, series_terms=8)
        by_name = {r.name: r for r in results}
        assert not by_name["additive-agreement"].passed
        assert "n=5" in by_name["additive-agreement"].detail
        assert "vs oracle" in by_name["additive-agreement"].detail
        assert not by_name["count-agreement"].passed
        assert "n=5" in by_name["count-agreement"].detail

    @pytest.mark.parametrize(
        "at, change, detail",
        [
            (1, lambda texts: texts[0], "enumeration at n=5 is not 143 distinct sorted trees"),
            (0, lambda texts: texts[0][:-1], "enumeration at m=4 is not 55 distinct sorted forests"),
        ],
        ids=["tree", "forest"],
    )
    def test_repeated_oracle_string_detected(self, monkeypatch, at, change, detail):
        # one size-5 string stands in for another.  A repeat keeps the length
        # but no longer gives 143 distinct trees.  The first string cut short
        # by a byte keeps 143 distinct sorted strings, but only 54 of them end
        # in "|]", a root with no right children above each of the 55 forests
        # of size 4
        def repeating(n):
            texts = "\n".join(tree_runs(n)).split("\n")
            if n == 5:
                texts[at] = change(texts)
            return iter(texts)

        monkeypatch.setattr(verification, "tree_runs", repeating)
        results = run_verification(oracle_limit=6, series_terms=8)
        assert results[0] == CheckResult("count-agreement", False, detail)

    @pytest.mark.parametrize("repeat", [False, True], ids=["swapped", "repeated"])
    def test_order_is_checked_across_runs(self, monkeypatch, repeat):
        # the last string of one size-5 run and the first of the next trade
        # places, or the first repeats the last: each run still increases,
        # and only the boundary between the two is out of order
        def faulty(n):
            runs = [run.split("\n") for run in tree_runs(n)]
            if n == 5:
                before, after = runs[1], runs[2]
                if repeat:
                    after[0] = before[-1]
                else:
                    before[-1], after[0] = after[0], before[-1]
            return ("\n".join(run) for run in runs)

        monkeypatch.setattr(verification, "tree_runs", faulty)
        results = run_verification(oracle_limit=6, series_terms=8)
        assert results[0] == CheckResult(
            "count-agreement", False, "enumeration at n=5 is not 143 distinct sorted trees"
        )

    def test_wrong_string_fold_detected(self, monkeypatch):
        real = verification._TOLL_FOLDS["size"]
        monkeypatch.setitem(verification._TOLL_FOLDS, "size", lambda text: real(text) + 1)
        results = run_verification(oracle_limit=3, series_terms=8)
        by_name = {r.name: r for r in results}
        assert not by_name["additive-agreement"].passed
        assert by_name["additive-agreement"].detail == "toll size, n=1: GF 1 vs oracle 2"

    def test_crashing_check_is_contained(self, monkeypatch):
        # a sampler that raises must fail its check, not the suite
        def broken(n, state):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(verification, "sample_text", broken)
        results = run_verification(oracle_limit=2, series_terms=8)
        by_name = {r.name: r for r in results}
        assert not by_name["sampler-exact"].passed
        assert "RuntimeError" in by_name["sampler-exact"].detail
        assert by_name["series-identity"].passed

    def test_sampler_bias_detected(self, monkeypatch):
        # redrawing once whenever the root has right children (the text
        # does not end in "|]") skews the shapes toward left-heavy roots;
        # every shape still appears, but the redraws use up the subsets
        # after 2 of the n t_n = 4 draws at n = 2
        real = verification.sample_text

        def biased(n, state):
            text = real(n, state)
            return text if text.endswith("|]") else real(n, state)

        monkeypatch.setattr(verification, "sample_text", biased)
        result = sampler_result(run_verification(oracle_limit=4, series_terms=8))
        assert not result.passed
        assert result.detail == "n=2: 2 draws succeeded, not 4"

    def test_short_slot_range_detected(self, monkeypatch):
        # n-1 stars among 3n-3 slots: one slot short, so only
        # binom(3n-3, n-1) < n t_n subsets exist; a failed check naming n,
        # not a crash
        def narrow(self, n):
            self.subsets = self.subsets or combinations(range(3 * n - 3), n - 1)
            return next(self.subsets)

        monkeypatch.setattr(verification._EverySubset, "stars", narrow)
        result = sampler_result(run_verification(oracle_limit=2, series_terms=8))
        assert not result.passed
        assert "n=2" in result.detail
        assert "raised" not in result.detail

    def test_skipped_draws_detected(self, monkeypatch):
        # a sampler that repeats its last tree instead of drawing every
        # other call leaves subsets unused: at n = 1 its second call
        # succeeds where the one subset allows one draw
        real = verification.sample_text
        last = {}

        def lazy(n, state):
            if n in last:
                return last.pop(n)
            last[n] = real(n, state)
            return last[n]

        monkeypatch.setattr(verification, "sample_text", lazy)
        result = sampler_result(run_verification(oracle_limit=2, series_terms=8))
        assert not result.passed
        assert result.detail == "n=1: 2 draws succeeded, not 1"

    def test_sampler_off_its_tally_detected(self, monkeypatch):
        # one draw per call, so the draw count holds, but every draw gives
        # the left chain: at n = 2 one tree is hit 4 times and the other never
        real = verification.sample_text

        def chain(n, state):
            real(n, state)
            return "[" * n + "|]" * n

        monkeypatch.setattr(verification, "sample_text", chain)
        result = sampler_result(run_verification(oracle_limit=2, series_terms=8))
        assert result == ("sampler-exact", False, "n=2: 2 tree(s) off their count of 2")

    def test_sampler_ignoring_its_stream_detected(self, monkeypatch):
        # each tree n times in n t_n draws, but none drawn from the stream:
        # the draw after the last subset must fail, and here it succeeds
        cycles = {}

        def ignoring(n, state):
            if n not in cycles:
                cycles[n] = cycle("\n".join(tree_runs(n)).split("\n"))
            return next(cycles[n])

        monkeypatch.setattr(verification, "sample_text", ignoring)
        result = sampler_result(run_verification(oracle_limit=2, series_terms=8))
        assert not result.passed
        assert result.detail.startswith("n=1: ")


class TestValidation:
    def test_oracle_limit_bounds(self):
        with pytest.raises(ValueError, match="^oracle_limit must be at least 1, got 0$"):
            run_verification(oracle_limit=0)

    def test_oracle_limit_is_refused_as_the_oracle_refuses_a_size(self, monkeypatch):
        # the oracle's own error, raised before the table or any walk starts
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(verification, "tree_runs", refuse)
        monkeypatch.setattr(counting, "build_count_table", refuse)
        with pytest.raises(OracleLimitError) as exc_info:
            run_verification(oracle_limit=11)
        assert exc_info.value.limit == 10
        assert str(exc_info.value) == "size 11 exceeds the enumeration limit 10"

    def test_series_terms_bounds(self):
        with pytest.raises(ValueError, match="^series_terms must be at least 1, got 0$"):
            run_verification(series_terms=0)
        with pytest.raises(
            ValueError, match="^series_terms=513 is above 512, the largest order checked$"
        ):
            run_verification(series_terms=verification.MAX_SERIES_TERMS + 1)

    @pytest.mark.parametrize("oracle_limit", [1, 2, 3])
    @pytest.mark.parametrize("series_terms", [1, 2, 3])
    def test_the_smallest_bounds_pass(self, oracle_limit, series_terms):
        results = run_verification(oracle_limit=oracle_limit, series_terms=series_terms)
        assert [r.name for r in results] == [
            "count-agreement", "series-identity", "additive-agreement", "sampler-exact"
        ]
        assert all(r.passed for r in results), results

    @pytest.mark.parametrize("argument", ["oracle_limit", "series_terms"])
    def test_a_bound_that_is_not_an_int_is_refused(self, argument):
        # a float in range used to pass the range checks and fail deep inside
        for value, kind in ((4.5, "float"), (8.5, "float"), ("8", "str")):
            with pytest.raises(TypeError, match=f"{argument} must be an int, got {kind}"):
                run_verification(**{argument: value})


class TestCliIntegration:
    def test_verify_ok(self, capsys):
        assert cli.main(["verify", "--oracle-limit", "3", "--series-terms", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok ") == 4
        assert "FAIL" not in out

    def test_verify_corrupted_table_exits_one(self, capsys, monkeypatch):
        inject(monkeypatch, lambda table: corrupt(table, 5))
        code = cli.main(["verify", "--oracle-limit", "3", "--series-terms", "8"])
        captured = capsys.readouterr()
        assert code == 1
        rows = {line.split()[0]: line.split()[1] for line in captured.out.splitlines()}
        assert rows["count-agreement"] == "FAIL"
        assert captured.err == "error: verification failed: count-agreement\n"


class TestRoutes:
    def test_shift_up(self):
        assert verification._shift_up(verification.PowerSeries([1, 2, 3])).coeffs == (0, 1, 2)
