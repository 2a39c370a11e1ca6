"""Request mixes of the three workloads, generated from a seed.

A workload is one pass: a list of CLI argument vectors that the harness
sends one at a time, each to a fresh interpreter.  The seed picks the sizes,
the sampler seeds and the order.  The sizes of each request kind sit near
the centres of equal strata of its range, each moved by a seeded offset of
up to a 32nd of a stratum, the offsets in opposite pairs: every request
differs between seeds, but the work of a pass and the latency at a given
rank barely do, so a seed changes the inputs without changing the figures.

Every pass is 40 short requests, none longer than about 0.7 s on an idle
two-vCPU VM, so that a run repeats each of them at least ``MIN_PASSES``
times, and so that the calibration runs nearest a request (``run.py``) see
the machine at the speed the request saw.
"""
from __future__ import annotations

import random

WORKLOADS = ("sampling", "exact", "crosscheck")

#: inclusive size ranges per request kind; the smoke ranges keep each
#: request to a few milliseconds of work.
RANGES = {
    "sample": (200, 700),
    "param": (64, 160),
    "series": (64, 192),
    "upto": (200, 800),
    "approx": (400, 800),
    "count": (1000, 5000),
}
SMOKE_RANGES = {
    "sample": (20, 40),
    "param": (8, 16),
    "series": (8, 16),
    "upto": (20, 40),
    "approx": (10, 30),
    "count": (50, 100),
}

#: a timed run makes at least this many passes, one repetition of each
#: request per pass; the reference commit completes them well within a
#: 35-second run on every workload.
MIN_PASSES = 3

#: percentile of the request latencies of all passes reported as
#: ``latency_tail_s`` (nearest rank): the highest that leaves at least ten
#: of the MIN_PASSES x 40 latencies beyond it.
TAIL_PERCENTILE = 90

#: ``count n`` past Python's default int-to-str limit: t_n has more than
#: 4300 digits from n = 5193.  Run once per ``exact`` run, outside the
#: timed passes, so the defect stays visible without failing the workload.
DEFECT_PROBE = ("count", "6000")


#: requests per pass: ``sample`` requests, and ``exact`` requests per kind
#: (``param`` per toll)
SAMPLE_REQUESTS = 39
EXACT_MIX = {"param": 4, "series": 4, "upto": 4, "approx": 6, "count": 14}


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes in [lo, hi], one near the centre of each stratum."""
    width = (hi - lo) / count
    sizes = []
    for i in range(count):
        if i % 2 == 0:
            offset = (rng.random() - 0.5) * width / 16
        sizes.append(round(lo + (i + 0.5) * width + (offset if i % 2 == 0 else -offset)))
    return sizes


def _sampling(rng: random.Random, ranges: dict, smoke: bool) -> list[tuple[str, ...]]:
    lo, hi = ranges["sample"]
    # K draws scaled by the ~n^2 cost per tree keep each request short
    reqs = [
        ("sample", str(n), "--count", str(max(1, round(8 * (lo / n) ** 2))),
         "--seed", str(rng.getrandbits(64)))
        for n in _spread(rng, lo, hi, 5 if smoke else SAMPLE_REQUESTS)
    ]
    rng.shuffle(reqs)
    # the same seeded request twice in a pass must print the same bytes
    reqs.append(min(reqs, key=lambda r: int(r[1])))
    return reqs


def _exact(rng: random.Random, ranges: dict, smoke: bool) -> list[tuple[str, ...]]:
    def sizes(kind):
        return _spread(rng, *ranges[kind], 1 if smoke else EXACT_MIX[kind])

    reqs = []
    for toll in ("unit", "leaf", "size"):
        reqs += [("param", "--toll", toll, str(n)) for n in sizes("param")]
    reqs += [("series", "--terms", str(n)) for n in sizes("series")]
    reqs += [("count", "--upto", str(n)) for n in sizes("upto")]
    reqs += [("approx", str(n), "--compare") for n in sizes("approx")]
    reqs += [("count", str(n)) for n in sizes("count")]
    rng.shuffle(reqs)
    return reqs


#: ``crosscheck`` requests per pass: ``verify`` per oracle limit, and
#: ``enumerate`` per size.  ``verify`` keeps its other defaults (64 series
#: terms, 30000 sampler draws at n = 4).  The 12 ``enumerate 8`` latencies
#: of three passes hold the p90, so the tail is a steady statistic of one
#: request kind, not the edge between two.
CROSS_VERIFY = {7: 2}
CROSS_ENUMERATE = {8: 4, 7: 6, 6: 28}


def _crosscheck(rng: random.Random, smoke: bool) -> list[tuple[str, ...]]:
    if smoke:
        reqs = [("verify", "--oracle-limit", "4", "--series-terms", "8")]
        reqs += [("enumerate", str(n)) for n in (3, 3, 4, 5)]
    else:
        reqs = [("verify", "--oracle-limit", str(limit))
                for limit, k in CROSS_VERIFY.items() for _ in range(k)]
        reqs += [("enumerate", str(n)) for n, k in CROSS_ENUMERATE.items() for _ in range(k)]
    rng.shuffle(reqs)
    return reqs


def build_pass(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, ...]]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "crosscheck":
        return _crosscheck(rng, smoke)
    ranges = SMOKE_RANGES if smoke else RANGES
    build = _sampling if workload == "sampling" else _exact
    return build(rng, ranges, smoke)
