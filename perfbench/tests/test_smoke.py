"""Smoke run of the benchmark at tiny sizes, so that it cannot rot.

Run from the repository root:  python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb"}


def _run(workload: str, trace: int, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(wanted)
    if not trace:
        assert set(wanted) == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_requests():
    for w in workloads.WORKLOADS:
        assert workloads.build_pass(w, 11) == workloads.build_pass(w, 11)
    assert workloads.build_pass("exact", 11) != workloads.build_pass("exact", 12)


def test_checks_reject_wrong_outputs():
    expected = checks.load_expected()
    assert checks.check(("count", "5"), b"143\n", expected) is None
    assert checks.check(("count", "5"), b"142\n", expected) is not None
    assert checks.check(("series", "--terms", "3"), b"k,coefficient\n0,0\n1,1\n2,2\n3,7\n",
                        expected) is None
    assert checks.check(("enumerate", "2"), b"[[|]|]\n[|[|]]\n", expected) is None
    assert checks.check(("enumerate", "2"), b"[|[|]]\n[[|]|]\n", expected) is not None
    assert checks.check(("sample", "2", "--count", "1", "--seed", "1"), b"[[|]]\n",
                        expected) is not None
    assert checks.check(("verify",), b"a  ok  x\nb  FAIL  y\n", expected) is not None
    for bad in ("", "[", "[]", "[||]", "[|]]", "[|][|]", "[|x]"):
        assert checks.tree_size(bad) is None, bad
    assert checks.tree_size("[[|]|[|[|]]]") == 4


def test_untimed_or_unmeasured_requests_fail():
    ok = run.Outcome(("count", "5"), 0, b"143\n", b"", b"VmHWM:\t 9000 kB\n", 0.1, 9000)
    checker = run.Checker()
    assert checker.failure(ok) is None
    assert checker.failure(run.Outcome(*ok.__dict__.values())) is None  # repeat, same bytes
    no_rss = run.Outcome(("count", "6"), 0, b"728\n", b"", b"", 0.1, None)
    assert checker.failure(no_rss) is not None
    assert checker.failure(no_rss, traced=True) is None
    hung = run.Outcome(("count", "7"), None, b"", b"", b"", 60.0, None)
    assert checker.failure(hung).startswith("timed out")


def test_tracer_defines_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    extra = {"sampler.random_bits", "sampler.bits_per_node", "cli.import_s", "cli.stdout_bytes",
             "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == set(tracer.LAYER_METRICS) | extra


def test_refuses_to_run_without_the_sources(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    (bare / "perfbench" / "expected.json").write_bytes((BENCH / "expected.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scales_use_the_nearest_calibration_runs():
    ref = run.CAL_REF_S
    # requests 0..3 run between calibration runs 0..4; one slow calibration run
    # (index 2) counts in the mean of every request it is near
    scaled = run.scales([ref, ref, 2 * ref, ref, ref])
    assert scaled == pytest.approx([3 / 4, 4 / 5, 4 / 5, 3 / 4])
    assert run.scales([ref, ref]) == pytest.approx([1.0])
