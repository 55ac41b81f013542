"""Span tracing by rebinding qwlab's functions, and the per-layer metrics.

Only the traced process installs the tracer.  It replaces each public
function of each qwlab module with a timing wrapper, and rebinds every other
module-level name that refers to the same function object (the names
``decoherence`` imports from ``hitting``, ``quotient`` from ``groups`` and
``spectral``, and so on), so calls made inside the library are caught too.
Spans are kept in memory and written when the run ends.  A span's self time
is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

from qwlab import cli, decoherence, graphs, groups, hitting, quotient, spectral, walk

LAYER_MODULES = (graphs, groups, walk, hitting, spectral, decoherence, quotient)
# Private functions that carry a layer's work or are imported across modules.
EXTRA_NAMES = {
    hitting: ("closed_form_engine", "_accumulate_series"),
    cli: ("main",),
}
# hitting._vec_identity_dot is left unwrapped: decohered_hitting_series calls
# it once per step for an O(D) trace, and a span there would cost more than
# the call it measures.

GRAPH_BUILDERS = frozenset(
    f"graphs.{name}" for name in graphs.__all__
    if name.startswith(("build_", "cayley_"))
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    op: int
    t0: float
    t1: float = 0.0
    child: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _route(result) -> str:
    if result.escape_probability is not None:
        return "infinite"
    return result.method


# Counters read off a function's result: name -> (counter, value).
RESULT_COUNTERS = {
    "groups.closure": lambda r: [("groups.closure_elements", r.order)],
    "spectral.infinite_hitting_projector": lambda r: [("spectral.trapped_dim_sum", r.trace_int)],
    "hitting.superoperators": lambda r: [("hitting.superop_bytes_computed", sum(a.nbytes for a in r))],
    "hitting.closed_form_engine": lambda r: [(f"hitting.route.{_route(r)}", 1)],
    "hitting.hitting_time_series": lambda r: [("hitting.series_steps", r.truncation or 0)],
    "hitting.classical_hitting_monte_carlo": lambda r: [
        ("hitting.mc_walker_steps", round(r.mean * r.trials))
    ],
    "decoherence.dephasing_channel": lambda r: [("decoherence.kraus_ops", len(r.kraus))],
}


class Tracer:
    """Keeps spans and result counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(next(tracer._ids), parent.sid if parent else None, name, tracer.op,
                        perf_counter())
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child += span.duration
                tracer.spans.append(span)
            if counter is not None:
                for key, value in counter(result):
                    tracer.counters[key] += value
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for module in LAYER_MODULES + (cli,):
            short = module.__name__.rsplit(".", 1)[-1]
            names = tuple(getattr(module, "__all__", ())) + EXTRA_NAMES.get(module, ())
            for name in names:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        modules = [m for k, m in sys.modules.items() if k == "qwlab" or k.startswith("qwlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "op", "start_s", "duration_ms", "self_ms"])
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.writerow([s.sid, "" if s.parent is None else s.parent, s.name, s.op,
                              f"{s.t0:.6f}", f"{s.duration * 1e3:.4f}",
                              f"{s.self_time * 1e3:.4f}"])


def _layer_times(spans: list[Span]):
    """Inclusive and self seconds per span name, with nested same-layer
    spans (a builder calling a builder) counted once."""
    by_id = {s.sid: s for s in spans}

    def has_ancestor(span: Span, names) -> bool:
        pid = span.parent
        while pid is not None:
            p = by_id[pid]
            if p.name in names:
                return True
            pid = p.parent
        return False

    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    for s in spans:
        self_time[s.name] += s.self_time
        calls[s.name] += 1
        if not has_ancestor(s, {s.name}):
            inclusive[s.name] += s.duration
    builds = sum(s.duration for s in spans
                 if s.name in GRAPH_BUILDERS and not has_ancestor(s, GRAPH_BUILDERS))
    deco_solve = sum(s.duration for s in spans if s.name == "hitting.closed_form_engine"
                     and has_ancestor(s, {"decoherence.decohered_hitting_time"}))
    return inclusive, self_time, calls, builds, deco_solve


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced pass: (value, unit) by metric name."""
    inc, self_t, calls, builds, deco_solve = _layer_times(tracer.spans)
    c = tracer.counters

    def ms(seconds: float) -> tuple[float, str]:
        return seconds * 1e3 / passes, "ms"

    def count(value: float) -> tuple[float, str]:
        return value / passes, "count"

    def rate(n: float, seconds: float) -> tuple[float, str]:
        return (n / seconds if seconds > 0 else 0.0), "1/s"

    return {
        "graphs.build_ms": ms(builds),
        "walk.evolution_operator_ms": ms(inc["walk.evolution_operator"]),
        "groups.lift_ms": ms(inc["groups.direction_perm_to_automorphism"]),
        "groups.closure_ms": ms(inc["groups.closure"]),
        "groups.closure_elements": count(c["groups.closure_elements"]),
        "quotient.orbit_basis_ms": ms(inc["quotient.orbit_basis"]),
        "quotient.quotient_walk_ms": ms(inc["quotient.quotient_walk"]),
        "quotient.verdict_ms": ms(self_t["quotient.quotient_infinite_hitting"]),
        "spectral.projector_ms": ms(inc["spectral.infinite_hitting_projector"]),
        "spectral.projector_calls": count(calls["spectral.infinite_hitting_projector"]),
        "spectral.trapped_dim_sum": count(c["spectral.trapped_dim_sum"]),
        "hitting.superop_ms": ms(inc["hitting.superoperators"]),
        "hitting.superop_bytes_computed": (c["hitting.superop_bytes_computed"] / passes, "bytes"),
        "hitting.resolvent_ms": ms(self_t["hitting.closed_form_engine"]),
        "hitting.route.closed_form": count(c["hitting.route.closed_form"]),
        "hitting.route.pseudo_inverse": count(c["hitting.route.pseudo_inverse"]),
        "hitting.route.infinite": count(c["hitting.route.infinite"]),
        "hitting.series_ms": ms(inc["hitting.hitting_time_series"]),
        "hitting.series_steps": count(c["hitting.series_steps"]),
        "hitting.series_steps_per_s": rate(c["hitting.series_steps"],
                                           inc["hitting.hitting_time_series"]),
        "hitting.mc_ms": ms(inc["hitting.classical_hitting_monte_carlo"]),
        "hitting.mc_walker_steps": count(c["hitting.mc_walker_steps"]),
        "hitting.mc_walker_steps_per_s": rate(c["hitting.mc_walker_steps"],
                                              inc["hitting.classical_hitting_monte_carlo"]),
        "decoherence.channel_ms": ms(inc["decoherence.dephasing_channel"]),
        "decoherence.kraus_ops": count(c["decoherence.kraus_ops"]),
        "decoherence.superop_ms": ms(inc["decoherence.decohered_superoperators"]),
        "decoherence.solve_ms": ms(deco_solve),
        "decoherence.slope_ms": ms(inc["decoherence.hitting_time_slope"]),
        "decoherence.series_ms": ms(inc["decoherence.decohered_hitting_series"]),
        "cli.self_ms": ms(self_t["cli.main"]),
    }
