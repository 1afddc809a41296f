"""Outside-in layer tracing for the benchmark's traced run.

`Tracer.install()` wraps the public functions of every nilcount module in
each module namespace that binds them (the package imports by name, so
`permcore.mulclose` and `series.mulclose` are two bindings), the entries of
`suites.SUITES`, and the two `PermGroup` constructors.  Each wrapped call
records a span: name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  A few hot leaf functions, `Permutation.__mul__`
first, are counted only: a span per call would cost more than the call.

Layer metrics are derived from the spans:
  * `<layer>.<fn>_s` is the time the layer function was on the stack: the
    summed duration of its spans that have no ancestor in the same group;
  * `<layer>.<fn>_calls` and the other counts are recorded at the same
    boundaries;
  * `cli.self_s` is the self time of the `cli.main` spans, their duration
    minus the part that child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# span name -> per-layer metric group (the metric is the group + "_s")
TIMED = {
    "permcore.mulclose": "permcore.mulclose",
    "permcore.conjugacy_classes": "permcore.conjugacy_classes",
    "permcore.PermGroup.generate": "permcore.generate",
    "permcore.PermGroup.from_elements": "permcore.generate",
    "permcore.quotient_with_map": "permcore.quotient",
    "permcore.quotient": "permcore.quotient",
    "permcore.center": "permcore.center",
    "extension.find_isomorphism": "extension.find_isomorphism",
    "extension.regular_permutation_group":
        "extension.regular_permutation_group",
    "extension.fiber_product": "extension.fiber_product",
    "extension.fiber_product_maps": "extension.fiber_product",
    "extension.semidirect": "extension.semidirect",
    "series.optimize_d": "series.optimize_d",
    "series.enumerate_refinements": "series.enumerate_refinements",
    "series.all_min_index_central": "series.all_min_index_central",
    "malle.min_index": "malle.min_index",
    "malle.b_constant": "malle.b_constant",
    "nilpotent.is_nilpotent": "nilpotent.is_nilpotent",
    "nilpotent.sylow_decompose": "nilpotent.sylow_decompose",
    "catalog.get_group": "catalog.get_group",
    "dirichlet.multi_factor_sum": "dirichlet.multi_factor_sum",
    "dirichlet.coefficient_sieve": "dirichlet.coefficient_sieve",
    "dirichlet.prime_sieve": "dirichlet.prime_sieve",
    "dirichlet.slope_estimate": "dirichlet.slope_estimate",
    "counting.enumerate_v4": "counting.enumerate_v4",
    "counting.count_quadratic": "counting.count_quadratic",
    "counting.enumerate_cyclic_ell": "counting.enumerate_cyclic_ell",
}

# span name -> count metric incremented once per call
CALLS = {
    "permcore.mulclose": "permcore.mulclose_calls",
    "permcore.conjugacy_classes": "permcore.conjugacy_classes_calls",
    "extension.find_isomorphism": "extension.find_isomorphism_calls",
    "series.optimize_d": "series.optimize_d_calls",
    "counting.enumerate_v4": "counting.enumerate_v4_calls",
}

# Public functions too hot for a span per call; they run inside their
# caller's span.  Permutation.__mul__ alone is called millions of times.
COUNT_ONLY = {"permcore.is_prime", "permcore.element_order", "malle.ind",
              "permcore.cycle_string"}

MODULES = ["permcore", "extension", "series", "malle", "nilpotent",
           "catalog", "dirichlet", "counting", "suites", "cli"]


def layer_metric_names(suite_ids) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("permcore.mul_calls", "count", "lower"),
           ("permcore.mul_points", "count", "lower")]
    for group in dict.fromkeys(TIMED.values()):
        out.append((group + "_s", "s", "lower"))
        for span, counter in CALLS.items():
            if TIMED.get(span) == group:
                out.append((counter, "count", "lower"))
        if group == "extension.regular_permutation_group":
            out.append(("extension.regular_table_entries", "count", "lower"))
        if group == "dirichlet.multi_factor_sum":
            out.append(("dirichlet.sweep_rate", "integers/s", "higher"))
    out += [(f"suites.{sid}_s", "s", "lower") for sid in suite_ids]
    out += [("cli.self_s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, job]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: str | None = None

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = CALLS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            if calls:
                counts[calls] += 1
            if count:
                count(counts, args, kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the nilcount modules already imported."""
        mods = {m: sys.modules[f"nilcount.{m}"] for m in MODULES}
        permcore = mods["permcore"]
        counts = self.counts

        mul = permcore.Permutation.__mul__

        def counted_mul(a, b):
            counts["permcore.mul_calls"] += 1
            counts["permcore.mul_points"] += len(a.images)
            return mul(a, b)
        permcore.Permutation.__mul__ = counted_mul

        group_cls = permcore.PermGroup
        for meth in ("generate", "from_elements"):
            fn = group_cls.__dict__[meth].__func__
            setattr(group_cls, meth, classmethod(
                self._span(f"permcore.PermGroup.{meth}", fn)))

        def table_entries(counts, args, kwargs):
            items = args[0] if args else kwargs["items"]
            counts["extension.regular_table_entries"] += len(items) ** 2

        # one wrapper per original function, bound everywhere it is bound
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mname}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[obj] = self._counted(name, obj)
                else:
                    extra = (table_entries if
                             name == "extension.regular_permutation_group"
                             else None)
                    wrappers[obj] = self._span(name, obj, extra)
        for mod in sys.modules.values():
            if not getattr(mod, "__name__", "").startswith("nilcount"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        suites = mods["suites"].SUITES
        for sid, fn in list(suites.items()):
            suites[sid] = self._span(f"suites.{sid}", fn)

    # -- derivation ------------------------------------------------------

    def metrics(self, suite_ids, sweep_job: str | None, sweep_x: int) -> dict:
        """Every per-layer metric except the `trace.*` ones, which need the
        untraced round."""
        spans = self.spans
        group_of = dict(TIMED, **{f"suites.{sid}": f"suites.{sid}"
                                  for sid in suite_ids})
        inclusive: dict[str, int] = defaultdict(int)
        sweep_ns = 0
        for name, start, end, parent, job in spans:
            dur = end - start
            group = group_of.get(name)
            if group is None:
                continue
            p = parent
            while p >= 0 and group_of.get(spans[p][0]) != group:
                p = spans[p][3]
            if p < 0:
                inclusive[group] += dur
                if name == "dirichlet.multi_factor_sum" and job == sweep_job:
                    sweep_ns += dur
        out = {}
        for name, unit, _ in layer_metric_names(suite_ids):
            if unit == "count":
                out[name] = self.counts.get(name, 0)
            elif unit == "s" and not name.startswith(("cli.", "trace.")):
                out[name] = inclusive.get(name[:-2], 0) / 1e9
        out["dirichlet.sweep_rate"] = (sweep_x * 1e9 / sweep_ns
                                       if sweep_ns else 0.0)
        out["cli.self_s"] = self.self_times().get("cli.main",
                                                  {"self_s": 0.0})["self_s"]
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds; self time is a
        span's duration minus the part its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return table

    def dump(self, path: str, metrics: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "job"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "by_name": self.self_times(),
                       "metrics": metrics}, fh)
