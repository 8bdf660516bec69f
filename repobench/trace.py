"""Timing shims around the library's layer entry points.

The benchmark traces from its own files: :func:`install` replaces public
entry points with wrappers, patched where their callers look them up
(module globals the evaluator imported, class attributes for methods).
A wrapper records a span only while an op is open, so set-up, warm-up
and correctness checks leave no spans.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index
of the enclosing span (the op span itself for top-level calls) and ``op``
the op id.  Spans stay in memory until the run writes them out.  A
layer's self time is the sum over its spans of duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> layer (a module of the repository).
LAYER_OF = {
    "blocked_multi_source_distances": "graphs.shortest_paths",
    "multi_source_distances": "graphs.shortest_paths",
    "to_csr": "graphs.digraph",
    "copy_without_out_edges": "graphs.digraph",
    "repair_block": "graphs.dynamic_sssp",
    "best_response_from_service": "core.best_response",
    "gain_sweep": "core.evaluator",
    "best_response": "core.evaluator",
    "set_profile": "core.evaluator",
    "batch_service_costs": "core.evaluator",
    "strategy_rows_costs": "core.evaluator",
    "social_cost": "core.evaluator",
    "store.get": "core.service_store",
    "store.put": "core.service_store",
    "dynamics.run": "core.dynamics",
    "apply_epoch": "service.state",
    "subgame_matrix": "service.state",
    "op": "bench.op",
}

LAYERS = (
    "graphs.shortest_paths",
    "graphs.digraph",
    "graphs.dynamic_sssp",
    "core.best_response",
    "core.evaluator",
    "core.service_store",
    "core.dynamics",
    "service.state",
    "bench.op",
)

Span = Tuple[str, float, float, int, int]


def _count_sources(counters: Counter, args, kwargs) -> None:
    counters["shortest_paths.calls"] += 1
    counters["shortest_paths.sources"] += len(args[1])


def _count_blocked_sources(counters: Counter, args, kwargs) -> None:
    counters["shortest_paths.calls"] += 1
    counters["shortest_paths.sources"] += sum(len(s) for _g, s in args[0])


def _count_repair_rows(counters: Counter, args, kwargs) -> None:
    counters["dynamic_sssp.rows"] += len(args[1])


def _counter(key: str) -> Callable:
    def count(counters: Counter, args, kwargs) -> None:
        counters[key] += 1

    return count


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def op(self, op_id: int):
        """Open the op span; layer calls inside it become its children."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._op = None
            self.spans[index] = ("op", start, end, -1, op_id)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(index)
            if count is not None:
                count(tracer.counters, args, kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer._op)

        return shim

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Self time per layer, inclusive time per span name, coverage."""
        spans = self.spans  # every span is closed once no op is open
        child_time = defaultdict(float)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms = {layer: 0.0 for layer in LAYERS}
        inclusive_ms: Dict[str, float] = defaultdict(float)
        op_ms = top_ms = 0.0
        for index, (name, start, end, parent, _op) in enumerate(spans):
            duration = end - start
            self_ms[LAYER_OF[name]] += (duration - child_time[index]) * 1e3
            inclusive_ms[name] += duration * 1e3
            if name == "op":
                op_ms += duration * 1e3
                top_ms += child_time[index] * 1e3
        return {
            "self_ms": self_ms,
            "inclusive_ms": dict(inclusive_ms),
            "op_ms": op_ms,
            "coverage": top_ms / op_ms if op_ms else 0.0,
            "spans": len(spans),
        }


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every shim in place; returns a function that restores them."""
    # repro.core re-exports a *function* named best_response, so modules
    # are fetched by their dotted names.
    br_module = importlib.import_module("repro.core.best_response")
    ev_module = importlib.import_module("repro.core.evaluator")
    sssp_module = importlib.import_module("repro.graphs.dynamic_sssp")
    state_module = importlib.import_module("repro.service.state")
    from repro.core.dynamics import BestResponseDynamics
    from repro.core.service_store import ArrayStore
    from repro.graphs.digraph import WeightedDigraph

    targets = [
        (ev_module, "blocked_multi_source_distances",
         "blocked_multi_source_distances", _count_blocked_sources),
        (ev_module, "multi_source_distances", "multi_source_distances",
         _count_sources),
        (br_module, "multi_source_distances", "multi_source_distances",
         _count_sources),
        (sssp_module, "multi_source_distances", "multi_source_distances",
         _count_sources),
        (ev_module, "best_response_from_service",
         "best_response_from_service", None),
        (WeightedDigraph, "to_csr", "to_csr", _counter("digraph.to_csr_calls")),
        (WeightedDigraph, "copy_without_out_edges", "copy_without_out_edges",
         _counter("digraph.copies")),
        (sssp_module.RowRepairer, "repair_block", "repair_block", _count_repair_rows),
        (ArrayStore, "get", "store.get", None),
        (ArrayStore, "put", "store.put", None),
        (BestResponseDynamics, "run", "dynamics.run", None),
        (state_module.ServiceState, "apply_epoch", "apply_epoch", None),
        (state_module, "subgame_matrix", "subgame_matrix", None),
    ]
    for method in (
        "gain_sweep",
        "best_response",
        "set_profile",
        "batch_service_costs",
        "strategy_rows_costs",
        "social_cost",
    ):
        targets.append((ev_module.GameEvaluator, method, method, None))

    originals = []
    for owner, attr, name, count in targets:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall
