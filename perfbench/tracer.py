"""Traced child of the per-layer run, and the layer metric definitions.

Run as ``python3 perfbench/tracer.py <deptrees arguments>`` with
``PYTHONPATH=src`` and the descriptor named by ``PERFBENCH_REPORT_FD`` open
for writing.  It imports ``deptrees.cli`` (timing the import), wraps every
public module-level function of each ``deptrees`` module, plus the few
methods named in ``METHODS``, at every module namespace that holds it (so
``cli.build_count_table`` is wrapped as well as
``counting.build_count_table``), hands ``sampler`` a ``random.Random``
subclass that counts the bits drawn, runs ``cli.run()`` and, whatever the
exit, writes one JSON report to that descriptor.  Stdout and stderr are left
to the program, so its output is checked exactly as in the untraced run.

Spans are kept in memory: per function the calls, inclusive time and self
time (span minus its wrapped child spans), and per group in ``GROUPS`` the
time covered by its outermost calls, their number and a counter.  A
function named in a group that no longer exists is listed as absent and
its metrics read 0.
"""
from __future__ import annotations

import inspect
import json
import os
import random
import sys
import types
from functools import wraps
from time import perf_counter

#: methods wrapped in addition to the public module-level functions
METHODS = (
    "series.PowerSeries.__mul__",
    "series.PowerSeries.square",
    "series.PowerSeries.quasi_inverse",
    "additive.TollSpec.toll_series",
)
PRODUCTS = METHODS[:3]

#: group -> wrapped functions whose outermost calls it times
GROUPS = {
    "counting.table": ("counting.build_count_table",),
    "counting.closed_form": ("counting.count_closed_form",),
    "series.solve": ("series.solve_tree_gf",),
    "series.product": PRODUCTS,
    "additive.toll_series": ("additive.TollSpec.toll_series",),
    "additive.cumulative": ("additive.cumulative_gf", "additive.cumulative_gf_via_sequences"),
    "additive.fold": ("additive.fold_cost",),
    "sampler.sample": ("sampler.sample_tree", "sampler.sample_forest"),
    "trees.enumerate": ("trees.enumerate_trees", "trees.enumerate_forests"),
    "trees.parse": ("trees.parse", "trees.parse_forest"),
    "trees.serialize": ("trees.serialize", "trees.serialize_forest"),
    "verification.run": ("verification.run_verification",),
}


def _size_arg(args, kwargs, result):
    return args[0] if args else next(iter(kwargs.values()))


#: group -> what one outermost call adds to the group's counter
COUNTERS = {
    "counting.table": _size_arg,  # table size N
    "series.solve": _size_arg,  # series order
    "sampler.sample": _size_arg,  # nodes sampled
    "trees.enumerate": lambda args, kwargs, result: len(result),
    "trees.serialize": lambda args, kwargs, result: len(result) // 3,  # "[", "|", "]"
}

#: per-layer metric -> (what, group); "self" sums the self time of every
#: wrapped function whose name starts with the given prefix(es).
LAYER_METRICS = {
    "counting.table_s": ("time", "counting.table"),
    "counting.table_calls": ("calls", "counting.table"),
    "counting.table_terms": ("count", "counting.table"),
    "counting.closed_form_s": ("time", "counting.closed_form"),
    "series.solve_s": ("time", "series.solve"),
    "series.solve_terms": ("count", "series.solve"),
    "series.product_s": ("self", PRODUCTS),
    "series.product_calls": ("calls", "series.product"),
    "additive.toll_series_s": ("time", "additive.toll_series"),
    "additive.cumulative_s": ("time", "additive.cumulative"),
    "additive.fold_s": ("time", "additive.fold"),
    "additive.fold_calls": ("calls", "additive.fold"),
    "sampler.sample_s": ("time", "sampler.sample"),
    "sampler.trees": ("calls", "sampler.sample"),
    "sampler.nodes": ("count", "sampler.sample"),
    "trees.enumerate_s": ("time", "trees.enumerate"),
    "trees.enumerated": ("count", "trees.enumerate"),
    "trees.parse_s": ("time", "trees.parse"),
    "trees.serialize_s": ("time", "trees.serialize"),
    "trees.nodes_serialized": ("count", "trees.serialize"),
    "verification.run_s": ("time", "verification.run"),
    "cli.self_s": ("self", ("cli.",)),
}


class Tracer:
    """Span bookkeeping for one traced process."""

    def __init__(self):
        self.child_time = [0.0]  # per open span: time covered by its wrapped children
        self.functions: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.depth = dict.fromkeys(GROUPS, 0)
        self.groups = {g: [0.0, 0, 0] for g in GROUPS}  # [outermost_s, calls, counter]
        self.random_bits = 0

    def wrap(self, name: str, fn):
        groups = [g for g, names in GROUPS.items() if name in names]
        record = self.functions.setdefault(name, [0, 0.0, 0.0])

        @wraps(fn)
        def traced(*args, **kwargs):
            outermost = [g for g in groups if self.depth[g] == 0]
            for g in groups:
                self.depth[g] += 1
            self.child_time.append(0.0)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = perf_counter() - start
                children = self.child_time.pop()
                self.child_time[-1] += span
                record[0] += 1
                record[1] += span
                record[2] += span - children
                for g in groups:
                    self.depth[g] -= 1
                for g in outermost:
                    totals = self.groups[g]
                    totals[0] += span
                    totals[1] += 1
                    if g in COUNTERS and result is not None:
                        try:
                            totals[2] += COUNTERS[g](args, kwargs, result)
                        except (TypeError, IndexError, StopIteration):
                            pass  # signature changed; the counter reads low

        return traced

    def counting_random(self):
        tracer = self

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                tracer.random_bits += k
                return super().getrandbits(k)

            def random(self):
                tracer.random_bits += 53
                return super().random()

        return CountingRandom


def install(tracer: Tracer) -> list[str]:
    """Wrap the deptrees functions in place; return the absent group members."""
    modules = {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("deptrees.") and mod is not None
    }
    wrapped = {}  # original function -> wrapper
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for qualified in METHODS:
        short, cls_name, meth = qualified.split(".")
        cls = getattr(modules.get(short), cls_name, None)
        fn = vars(cls).get(meth) if isinstance(cls, type) else None
        if fn is None:
            continue
        wrapper = tracer.wrap(qualified, fn)
        for attr, obj in list(vars(cls).items()):
            if obj is fn:  # aliases such as __rmul__ = __mul__
                setattr(cls, attr, wrapper)
    for mod in [sys.modules["deptrees"], *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    sampler = modules.get("sampler")
    CountingRandom = tracer.counting_random()
    if isinstance(getattr(sampler, "random", None), types.ModuleType):
        proxy = types.ModuleType("random")
        proxy.__dict__.update(vars(random))
        proxy.Random = CountingRandom
        sampler.random = proxy
    if getattr(sampler, "Random", None) is random.Random:
        sampler.Random = CountingRandom
    names = {n for names in GROUPS.values() for n in names}
    return sorted(names - set(tracer.functions))


def layer_values(report: dict) -> dict[str, float]:
    """The per-layer metrics of one traced request, from its report."""
    values = {}
    for metric, (what, source) in LAYER_METRICS.items():
        if what == "self":
            values[metric] = sum(
                rec[2] for name, rec in report["functions"].items() if name.startswith(source)
            )
        else:
            values[metric] = report["groups"][source][("time", "calls", "count").index(what)]
    values["sampler.random_bits"] = report["random_bits"]
    values["cli.import_s"] = report["import_s"]
    return values


def main() -> None:
    start = perf_counter()
    import deptrees.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    absent = install(tracer)
    sys.argv = ["deptrees", *sys.argv[1:]]
    try:
        cli.run()
    finally:
        report = {
            "import_s": import_s,
            "functions": tracer.functions,
            "groups": tracer.groups,
            "random_bits": tracer.random_bits,
            "absent": absent,
        }
        with os.fdopen(int(os.environ["PERFBENCH_REPORT_FD"]), "w") as out:
            json.dump(report, out)


if __name__ == "__main__":
    main()
