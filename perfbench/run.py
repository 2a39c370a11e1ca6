"""End-to-end benchmark of the deptrees CLI, with a traced per-layer run.

Usage, from the repository root (nothing to build or install):

    python3 perfbench/run.py --workload sampling|exact|crosscheck \
        --seed N --seconds S --trace 0|1 [--smoke]

The harness drives the CLI the way its users do: one request per fresh
interpreter (``python -S -c`` calling ``deptrees.cli.run``, see ``ENTRY``,
with ``PYTHONPATH=src``), from one closed-loop client with a single request in
flight.  A workload is a list of requests built from ``--seed``
(``workloads.py``); the harness runs that list as passes, at least
``MIN_PASSES`` of them, and starts no pass that would end after ``--seconds``
once it has those.  It checks every output independently (``checks.py``).
A request fails on a nonzero exit, a wrong output, a missing peak RSS or a
timeout of ``REQUEST_TIMEOUT_S``.  Python's int-to-str limit is lifted in
this process only, to read long counts; the children keep the default.

Every time is taken at a reference machine speed.  Before the first
request and after every request the harness runs ``CALIBRATION``, a fixed
child that uses the interpreter alone (start-up, big-integer products, dict,
tuple and string work) and nothing of deptrees.  A request's spawn-to-exit
time is scaled by ``CAL_REF_S`` over the mean time of the calibration runs
nearest it (``scales``), so it reads as seconds on a machine where the
calibration takes ``CAL_REF_S``.  Import times are scaled the same way.
The raw times are printed on the lines before the result.

``--trace 0`` reports the end-to-end metrics, over every untraced pass:

  setup_s         median scaled time for a fresh interpreter to import deptrees.cli
  wall_s          one pass: the sum over requests of each one's median latency
  latency_p50_s   median of all request latencies, spawn to exit
  latency_tail_s  their TAIL_PERCENTILE (nearest rank)
  peak_rss_mb     largest peak RSS (VmHWM) of any request

``--trace 1`` alternates untraced passes with passes whose requests run
under ``tracer.py``, and reports the per-layer metrics of ``LAYER_METRICS``
plus ``sampler.random_bits``, ``sampler.bits_per_node``, ``cli.import_s``,
``cli.stdout_bytes`` and the tracing overhead (``trace.*``, fastest traced
pass against fastest untraced pass, both scaled).  Every layer value is a
total over one pass, as the median over traced passes; span times are taken
inside the child and are not scaled.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same figures with
sample counts, the failure ratio, the Python version, git SHA and CPU count,
and for ``exact`` the outcome of ``DEFECT_PROBE``.  The exit code is 0
whenever a result is printed, and nonzero, with no result, when
``deptrees.cli`` cannot be imported.

Why the scaling: on a shared machine the speed of a core changes in phases
of seconds to minutes, by up to half, as other work comes and goes, and
CPU time slows with wall time, so no estimator over one run's samples
escapes a run that falls in a slow phase.  On a two-vCPU shared VM, five
runs of each workload had a run-to-run spread (IQR/median) of 0.14 to 0.25
in raw wall time and of 0.02 to 0.04 once scaled.  The calibration mixes
the kinds of work the three workloads do, so that it slows with them: per
request kind, the log of the request time against the log of the
calibration time had a slope of 0.8 to 1.25.
Medians are taken, not minima, so the number of passes that fit in a run
does not bias the figures.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: environment variable naming the descriptor a child writes its report to
REPORT_FD = "PERFBENCH_REPORT_FD"
#: the untraced child: the CLI's own entry point, plus an exit hook that
#: writes /proc/self/status to the report descriptor.  Its VmHWM is the
#: child's peak RSS; the ru_maxrss of the child's rusage is no good here,
#: because Linux folds the spawning process's high-water mark into it at exec.
ENTRY = (
    "import atexit, os\n"
    "atexit.register(lambda: os.write(int(os.environ['PERFBENCH_REPORT_FD']),\n"
    "                                 open('/proc/self/status', 'rb').read()))\n"
    "from deptrees.cli import run\n"
    "run()\n"
)

#: the calibration child; the time of its fixed work, start-up included,
#: gives the machine's current speed
CALIBRATION = (
    "x = 3 ** 20000\n"
    "for _ in range(40):\n"
    "    y = x * x\n"
    "d = {}\n"
    "for i in range(40000):\n"
    "    d[i & 1023] = d.get(i & 1023, 0) + i\n"
    "nodes = [((i, ()), [i & 7], (i >> 3,)) for i in range(25000)]\n"
    "keys = sorted(['[' + str(a[1][0]) + '|' + str(a[2][0]) + ']' for a in nodes])\n"
)
#: the calibration's time, in seconds, at the reference speed: about its
#: time in the fast phases of a two-vCPU shared VM on a 2.1 GHz Intel Xeon
CAL_REF_S = 0.06

SETUP_REPEATS = 15
#: a request running longer than this is killed and counted as failed
REQUEST_TIMEOUT_S = 60.0
#: no request starts after this many seconds, so a run ends well within 180 s
RUN_BUDGET_S = 110.0


@dataclass
class Outcome:
    argv: tuple[str, ...]
    code: int | None  # None when the request timed out
    stdout: bytes
    stderr: bytes
    report: bytes  # the exit hook's /proc/self/status, or the tracer's report
    seconds: float
    peak_rss_kb: int | None  # None when the child did not report it
    scale: float = 1.0  # set from the calibration runs around the request, see scales()

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # the child must keep the default limit
    # bytecode caches go next to the sources, as in an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def _peak_rss_kb(status: bytes) -> int | None:
    for line in status.splitlines():
        if line.startswith(b"VmHWM:"):
            return int(line.split()[1])
    return None


def spawn(args: list[str], timeout: float) -> Outcome:
    """Run ``python -S ARGS`` to completion; stdout, stderr and the report captured.

    ``-S`` skips the ``site`` import: deptrees is found through PYTHONPATH
    and needs nothing from site-packages, whose ``.pth`` hooks belong to the
    host (one imported certifi in every child, a third of its start-up time)
    and not to the program being measured.  The child writes its report, a
    few kilobytes at most, to the pipe named by ``REPORT_FD``.
    """
    r, w = os.pipe()
    env = dict(_child_env(), **{REPORT_FD: str(w)})
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, pass_fds=(w,))
    os.close(w)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    seconds = time.perf_counter() - start
    with os.fdopen(r, "rb") as pipe:
        report = pipe.read()
    return Outcome(tuple(args), code, out, err, report, seconds, _peak_rss_kb(report))


def calibrate() -> float:
    """Seconds of one calibration run; exits 1 if it fails."""
    o = spawn(["-c", CALIBRATION], REQUEST_TIMEOUT_S)
    if o.code != 0:
        sys.stderr.write(o.stderr.decode(errors="replace"))
        sys.exit("the calibration run failed")
    return o.seconds


def scales(cal: list[float]) -> list[float]:
    """The scale of each request run between ``cal[i]`` and ``cal[i + 1]``.

    It is CAL_REF_S over the mean of the four calibration runs nearest the
    request, two before and two after (fewer at the ends): one calibration
    run alone varies by about a tenth from the next, as much as a request.
    """
    return [CAL_REF_S / statistics.mean(cal[max(0, i - 1):i + 3]) for i in range(len(cal) - 1)]


def measure_setup() -> list[float]:
    """Scaled import times of fresh interpreters; exits 1 if the import fails."""
    times = []
    cal = [calibrate()]
    for _ in range(SETUP_REPEATS + 1):
        o = spawn(["-c", "import deptrees.cli"], REQUEST_TIMEOUT_S)
        if o.code != 0:
            sys.stderr.write(o.stderr.decode(errors="replace"))
            sys.exit(f"cannot import deptrees.cli from {SRC}")
        times.append(o.seconds)
        cal.append(calibrate())
    # the first import may still be writing bytecode caches
    return [t * scale for t, scale in zip(times, scales(cal))][1:]


def run_pass(reqs: list[tuple[str, ...]], traced: bool, budget_end: float):
    """One pass over ``reqs``; returns (outcomes, scaled wall seconds, complete)."""
    outcomes = []
    cal = [calibrate()]
    for argv in reqs:
        remaining = budget_end - time.perf_counter()
        if remaining <= 0:
            break
        args = [str(HERE / "tracer.py"), *argv] if traced else ["-c", ENTRY, *argv]
        o = spawn(args, min(REQUEST_TIMEOUT_S, remaining))
        o.argv = argv
        outcomes.append(o)
        cal.append(calibrate())
    for o, scale in zip(outcomes, scales(cal)):
        o.scale = scale
    return outcomes, sum(o.scaled for o in outcomes), len(outcomes) == len(reqs)


class Checker:
    """Checks outputs; a request seen before must repeat its bytes exactly."""

    def __init__(self):
        self.expected = checks.load_expected()
        self.seen: dict[tuple[str, ...], bytes] = {}

    def failure(self, o: Outcome, traced: bool = False) -> str | None:
        if o.code is None:
            return f"timed out after {o.seconds:.1f} s"
        if o.code != 0:
            tail = o.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit {o.code}: {tail[0] if tail else ''}"
        if not traced and o.peak_rss_kb is None:
            return "no peak RSS (VmHWM) reported"
        if o.argv in self.seen:
            return None if o.stdout == self.seen[o.argv] else "output differs on repeat"
        try:
            reason = checks.check(o.argv, o.stdout, self.expected)
        except ValueError as exc:  # undecodable or malformed output
            reason = str(exc)
        if reason is None:
            self.seen[o.argv] = o.stdout
        return reason


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def git_sha() -> str:
    """The commit checked out at ROOT, or "unknown" where ROOT is no git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    # the ceiling keeps git from finding an enclosing repository instead
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def layer_metrics(passes) -> dict[str, float]:
    traced = [(outs, wall) for outs, wall, was_traced in passes if was_traced]
    plain = [wall for _, wall, was_traced in passes if not was_traced]
    names = [*tracer.LAYER_METRICS, "sampler.random_bits", "cli.import_s"]
    per_pass = []
    absent = set()
    for outs, _ in traced:
        totals = dict.fromkeys(names, 0)
        for o in outs:
            try:
                report = json.loads(o.report)
            except ValueError:
                continue  # the child died before reporting; it is counted as failed
            absent.update(report["absent"])
            for name, value in tracer.layer_values(report).items():
                totals[name] += value
        per_pass.append(totals)
    if absent:
        print(f"absent (metrics read 0): {', '.join(sorted(absent))}")
    metrics = {name: statistics.median([p[name] for p in per_pass] or [0]) for name in names}
    nodes = metrics["sampler.nodes"]
    metrics["sampler.bits_per_node"] = metrics["sampler.random_bits"] / nodes if nodes else 0.0
    metrics["cli.stdout_bytes"] = statistics.median(
        [sum(len(o.stdout) for o in outs) for outs, _ in traced] or [0])
    metrics["trace.wall_s"] = min((wall for _, wall in traced), default=0.0)
    metrics["trace.untraced_wall_s"] = min(plain, default=0.0)
    metrics["trace.overhead_ratio"] = (
        metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] if traced and plain else 0.0
    )
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio" if name.endswith(("_ratio", "_per_node")) else "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if not (SRC / "deptrees" / "cli.py").is_file():
        sys.exit(f"no deptrees sources under {SRC}")

    budget_end = time.perf_counter() + RUN_BUDGET_S
    setup = measure_setup()
    reqs = workloads.build_pass(args.workload, args.seed, args.smoke)
    checker = Checker()
    passes = []  # (outcomes, scaled wall seconds, traced) of every complete pass
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        n_plain = sum(1 for *_, was_traced in passes if not was_traced)
        traced = bool(args.trace) and n_plain > len(passes) - n_plain
        outs, wall, complete = run_pass(reqs, traced, budget_end)
        for o in outs:
            reason = checker.failure(o, traced)
            if reason is not None:
                failed += 1
                print(f"FAILED {' '.join(o.argv)}: {reason}", file=sys.stderr)
        attempted += len(outs)
        if not complete:
            # requests hung: report what the complete passes measured
            print("run budget spent; the last pass is incomplete", file=sys.stderr)
            break
        passes.append((outs, wall, traced))
        n_plain += not traced
        # the trace run needs one pass of each kind; the timed run needs MIN_PASSES
        enough = ((n_plain >= 1 and n_plain < len(passes)) if args.trace
                  else n_plain >= workloads.MIN_PASSES)
        elapsed = time.perf_counter() - start
        # no pass starts that would end after --seconds, once there are enough
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    probe_ok = True
    if args.workload == "exact":
        o = spawn(["-c", ENTRY, *workloads.DEFECT_PROBE], REQUEST_TIMEOUT_S)
        o.argv = workloads.DEFECT_PROBE
        reason = checker.failure(o)
        if o.code == 1 and b"limit" in o.stderr and b"digits" in o.stderr:
            print(f"known defect: {' '.join(o.argv)} hits the int-to-str limit ({reason})")
        elif reason is None:
            print(f"defect probe: {' '.join(o.argv)} is exact")
        else:
            probe_ok = False
            print(f"FAILED {' '.join(o.argv)}: {reason}", file=sys.stderr)

    untraced = [outs for outs, _, was_traced in passes if not was_traced]
    # each request at the median of its repetitions, one per untraced pass
    per_request = [statistics.median(o.scaled for o in column) for column in zip(*untraced)]
    latencies = [o.scaled for outs in untraced for o in outs] or [0.0]
    raw_wall = sum(statistics.median(o.seconds for o in column) for column in zip(*untraced))
    calibration = statistics.median(
        [CAL_REF_S / o.scale for outs in untraced for o in outs] or [CAL_REF_S])
    rss = [o.peak_rss_kb for outs in untraced for o in outs if o.peak_rss_kb is not None]
    print(f"# python {platform.python_version()}  git {git_sha()}  nproc {os.cpu_count()}")
    print(f"# workload {args.workload}  seed {args.seed}  {len(passes)} passes of "
          f"{len(reqs)} requests  attempted {attempted}  failed {failed}  "
          f"failed_ratio {failed / max(attempted, 1):.4f}")
    if args.trace:
        metrics = layer_metrics(passes)
    else:
        tail = nearest_rank(latencies, workloads.TAIL_PERCENTILE)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_request),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "peak_rss_mb": max(rss, default=0) / 1024,
        }
        print(f"# samples: setup_s {len(setup)}, {len(per_request)} requests x "
              f"{len(untraced)} passes, tail is p{workloads.TAIL_PERCENTILE} with "
              f"{sum(1 for x in latencies if x > tail)} latencies beyond it; scaled pass "
              "walls (s): " + " ".join(f"{wall:.3f}" for _, wall, was_traced in passes
                                        if not was_traced))
        print(f"# unscaled: wall_s {raw_wall:.4f} s; median calibration {calibration:.4f} s "
              f"against CAL_REF_S {CAL_REF_S} s")
    for name, value in metrics.items():
        print(f"{name:<26} {value:.6g} {_unit(name)}")
    result = {
        "correct": failed == 0 and probe_ok and bool(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
