"""Span tracer that times calls into the public functions of each layer.

Every public module-level function of a layer module is wrapped at every
``polyproj.*`` binding that refers to it, so a call made through
``from .atomic import project_onto`` inside ``iterate`` or ``cli`` is
caught as well as a call through the package namespace.  Spans nest on
one stack (the library is single-threaded); a span's self time is its
duration minus the durations of its direct children.  Calls made while
no root span is open (the benchmark's own correctness checks) pass
through untraced.

Aggregates are kept for every span.  Full span records (id, parent id,
root id, name, start, end) are kept only up to ``MAX_SPANS`` so memory
does not grow with run length.

A wrapped call costs more than a direct one.  ``span_cost_ns`` measures
that cost on a no-op function, so the time a root span spends in
wrappers can be taken out of its duration.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from time import perf_counter_ns

LAYERS = ("linalg", "sets", "atomic", "closed_form", "oracle", "iterate", "instances", "cli")

# Functions reported one by one; every other public function still counts
# toward its layer's totals.
FUNCTIONS = (
    "linalg.classify_pair",
    "linalg.solve_gram",
    "linalg.max_independent_subset",
    "sets.reduce_hyperplane_system",
    "sets.contains",
    "atomic.project_onto",
    "closed_form.project_halfspace_pair",
    "closed_form.project_hyperplane_halfspace",
    "closed_form.project_hyperplanes",
    "oracle.oracle_project",
    "oracle.kkt_check",
    "iterate.dykstra",
    "cli.main",
)

BENCH = "bench"

MAX_SPANS = 20_000


class _Layer:
    __slots__ = ("name", "calls", "self_ns", "errors")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.self_ns = 0
        self.errors = 0


class _Function:
    __slots__ = ("name", "layer", "calls", "total_ns")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_ns = 0


class _Frame:
    __slots__ = ("layer", "span_id", "child_ns")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.span_id = span_id
        self.child_ns = 0


class _Root:
    """Totals of the root spans with one label."""

    __slots__ = ("count", "total_ns", "spans")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.spans = 0


class Counters:
    """Counts taken from return values at layer boundaries."""

    def __init__(self):
        self.pair_calls = 0
        self.pair_dependent = 0
        self.pair_two_active = 0
        self.oracle_subsets = 0
        self.certificates = 0
        self.certificates_valid = 0
        self.dykstra_sweeps: list[int] = []
        self.dykstra_max_iter = 0

    def pair(self, args, result):
        self.pair_calls += 1
        if result.case is not None:
            self.pair_dependent += 1
        if result.region is not None and result.region.value in ("C3", "InC"):
            self.pair_two_active += 1

    def oracle_project(self, args, result):
        m = sum(1 for s in args[0] if s.kind == "halfspace")
        self.oracle_subsets += 1 << m

    def kkt_check(self, args, result):
        self.certificates += 1
        self.certificates_valid += bool(result.valid)

    def dykstra(self, args, result):
        self.dykstra_sweeps.append(len(result.iterates) - 1)
        self.dykstra_max_iter += result.stop_reason.value == "MaxIterations"


class Tracer:
    """Wraps layer functions on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.layers = {name: _Layer(name) for name in LAYERS + (BENCH,)}
        self.functions: dict[str, _Function] = {}
        self.counters = Counters()
        self.roots: dict[str, _Root] = {}
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._last_id = 0
        self._root_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Zero every aggregate in place; installed wrappers keep their records."""
        for layer in self.layers.values():
            layer.calls = layer.self_ns = layer.errors = 0
        for stat in self.functions.values():
            stat.calls = stat.total_ns = 0
        self.counters.__init__()
        self.roots.clear()
        self.spans.clear()

    def _observer(self, qualname):
        c = self.counters
        return {
            "closed_form.project_halfspace_pair": c.pair,
            "closed_form.project_hyperplane_halfspace": c.pair,
            "oracle.oracle_project": c.oracle_project,
            "oracle.kkt_check": c.kkt_check,
            "iterate.dykstra": c.dykstra,
        }.get(qualname)

    def _wrap(self, qualname, layer_name, fn):
        tracer = self
        stack = self._stack
        layer = self.layers[layer_name]
        stat = self.functions.setdefault(qualname, _Function(qualname, layer))
        observe = self._observer(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            tracer._last_id += 1
            frame = _Frame(layer, tracer._last_id)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent.layer is not layer:
                    layer.errors += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_ns += duration
                layer.calls += 1
                layer.self_ns += duration - frame.child_ns
                parent.child_ns += duration
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (frame.span_id, parent.span_id, tracer._root_id, qualname, start, end)
                    )
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every layer at each of its bindings."""
        targets = {}
        for layer_name in LAYERS:
            module = sys.modules[f"polyproj.{layer_name}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    targets[id(obj)] = self._wrap(f"{layer_name}.{name}", layer_name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polyproj" and not mod_name.startswith("polyproj."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def root(self, label, fn, *args):
        """Run ``fn(*args)`` under a root span that stands for benchmark code."""
        layer = self.layers[BENCH]
        self._last_id += 1
        frame = _Frame(layer, self._last_id)
        self._root_id = frame.span_id
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            layer.calls += 1
            layer.self_ns += duration - frame.child_ns
            totals = self.roots.setdefault(label, _Root())
            totals.count += 1
            totals.total_ns += duration
            totals.spans += self._last_id - frame.span_id
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame.span_id, 0, frame.span_id, f"{BENCH}.{label}", start, end))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            layer = self.layers[name]
            out[f"{name}.calls"] = (layer.calls, "count")
            out[f"{name}.self_s"] = (layer.self_ns / 1e9, "s")
            out[f"{name}.errors"] = (layer.errors, "count")
        for qualname in FUNCTIONS:
            stat = self.functions.get(qualname) or _Function(qualname, None)
            out[f"{qualname}.calls"] = (stat.calls, "count")
            out[f"{qualname}.us_per_call"] = (_ratio(stat.total_ns / 1e3, stat.calls), "us")
        c = self.counters
        out["closed_form.dependent_frac"] = (_ratio(c.pair_dependent, c.pair_calls), "ratio")
        out["closed_form.two_active_frac"] = (_ratio(c.pair_two_active, c.pair_calls), "ratio")
        oracle_ns = self.functions["oracle.oracle_project"].total_ns
        out["oracle.subsets"] = (c.oracle_subsets, "count")
        out["oracle.us_per_subset"] = (_ratio(oracle_ns / 1e3, c.oracle_subsets), "us")
        out["oracle.valid_frac"] = (_ratio(c.certificates_valid, c.certificates), "ratio")
        sweeps = sorted(c.dykstra_sweeps)
        out["iterate.dykstra.sweeps_p50"] = (_quantile(sweeps, 0.5), "count")
        out["iterate.dykstra.sweeps_p90"] = (_quantile(sweeps, 0.9), "count")
        dykstra_ns = self.functions["iterate.dykstra"].total_ns
        out["iterate.dykstra.us_per_sweep"] = (_ratio(dykstra_ns / 1e3, sum(sweeps)), "us")
        out["iterate.dykstra.max_iter_frac"] = (_ratio(c.dykstra_max_iter, len(sweeps)), "ratio")
        out[f"{BENCH}.self_s"] = (self.layers[BENCH].self_ns / 1e9, "s")
        return out



def span_cost_ns() -> float:
    """Extra time of one wrapped call over a direct call, in ns.

    Measured on a no-op function with a throwaway tracer; the median of
    five loops of ``MAX_SPANS`` calls each.  The first loop fills the
    span records, so the median is the cost once they are full, as for
    most spans of a run.
    """
    calls = MAX_SPANS
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("linalg.noop", "linalg", noop)

    def loop(fn):
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        return perf_counter_ns() - start

    costs = []
    for _ in range(5):
        direct = loop(noop)
        traced = tracer.root("calibrate", loop, wrapped)
        costs.append((traced - direct) / calls)
    return statistics.median(costs)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quantile(sorted_values, q) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q))
    return float(sorted_values[rank - 1])
