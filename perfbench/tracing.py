"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions and methods of
``repro.simplify``, ``repro.metrics``, ``repro.atpg``,
``repro.simulation`` and ``repro.service`` (the names their callers
resolve, e.g. ``repro.simplify.greedy.preview_area_reduction``) with
span recorders.  A span is ``(id, parent, name, start, end, request,
attrs)``; every span under one :meth:`Tracer.request` shares that
request's id.  Spans stay in memory; ``run.py`` writes them out when
the run ends.

:func:`layer_metrics` turns the spans into the per-layer metrics named
in ``BENCHMARK.json``; times are inclusive (a span's whole duration),
and :func:`self_times` gives the exclusive view (span minus children).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span recorder shared by every installed wrapper.

    The open-span stack and the current request id are per thread, so
    concurrent service clients each build their own span tree.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[str, Optional[str]]:
        # Span ids carry the pid: spans of the benchmark process and of
        # its children merge into one trace without clashing.
        sid = f"{os.getpid()}-{next(self._ids)}"
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attrs) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
             "request": getattr(self._local, "request", None), "attrs": attrs}
        )

    @contextmanager
    def request(self, request_id: str, name: str = "request"):
        """Root span of one request; nested spans carry its id."""
        self._local.request = request_id
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, {})
            self._local.request = None

    def wrap(self, name: str, fn: Callable, attrs_of: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``attrs_of(result, args)``
        may attach a small dict of counts to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            attrs: Dict = {}
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result, args)
                return result
            finally:
                tracer._close(sid, parent, name, t0, attrs)

        return traced


# ----------------------------------------------------------------------
# attribute extractors (small counts attached to spans)
# ----------------------------------------------------------------------
def _es_result_attrs(result, _args) -> Dict:
    return {"status": result.status.value, "nodes": result.nodes}


def _exact_attrs(_result, args) -> Dict:
    return {"vectors": 1 << len(args[0].support)}


def _check_rs_attrs(result, _args) -> Dict:
    return {"accepted": bool(result[0])}


def _batch_attrs(result, _args) -> Dict:
    return {"faults": len(result), "dropped": sum(1 for s in result if s.dropped)}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced layers; returns a function that restores them."""
    import repro.service.client as client_mod
    import repro.simplify.greedy as greedy_mod
    import repro.simulation.compiled as compiled_mod
    from repro.atpg.es_atpg import EsAtpg
    from repro.atpg.podem import Podem
    from repro.metrics.estimate import MetricsEstimator
    from repro.simplify.engine import Overlay
    from repro.simulation.batchfaultsim import BatchFaultSimulator
    from repro.simulation.faultsim import FaultSimulator
    from repro.simulation.logicsim import LogicSimulator

    targets = [
        # repro.atpg
        (EsAtpg, "__init__", "atpg.es_init", None),
        (EsAtpg, "decide", "atpg.decide", _es_result_attrs),
        (EsAtpg, "test_exists", "atpg.search", _es_result_attrs),
        (EsAtpg, "exact_max_deviation", "atpg.exact", _exact_attrs),
        (Podem, "run", "atpg.podem", None),
        # repro.metrics
        (MetricsEstimator, "__init__", "metrics.estimator_init", None),
        (MetricsEstimator, "check_rs", "metrics.check_rs", _check_rs_attrs),
        (MetricsEstimator, "simulate", "metrics.simulate", None),
        (MetricsEstimator, "simulate_faults", "metrics.simulate_faults", None),
        # repro.simplify
        (greedy_mod, "preview_area_reduction", "simplify.preview", None),
        (greedy_mod, "datapath_faults", "simplify.candidates", None),
        (greedy_mod, "enumerate_faults", "simplify.candidates", None),
        (Overlay, "materialize", "simplify.materialize", None),
        # repro.simulation
        (BatchFaultSimulator, "evaluate", "simulation.batch_evaluate", _batch_attrs),
        (FaultSimulator, "differential", "simulation.differential", None),
        (LogicSimulator, "run_packed", "simulation.logicsim", None),
        (compiled_mod.CompiledSimulator, "run_packed", "simulation.kernel", None),
        (compiled_mod, "compile_program", "simulation.compile", None),
        # repro.service (client side of the wire)
        (client_mod.ServiceClient, "submit", "service.submit", None),
        (client_mod.ServiceClient, "wait", "service.wait", None),
        (client_mod.ServiceClient, "result_json", "service.result", None),
    ]
    saved = []
    for owner, attr, name, attrs_of in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, attrs_of))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------
def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Exclusive seconds per span name: duration minus direct children."""
    child_time: Dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def top_level_coverage(spans: List[Dict]) -> float:
    """Share of request-root time covered by the roots' direct children."""
    roots = {s["id"]: s["end"] - s["start"] for s in spans if s["parent"] is None
             and s["name"] == "request"}
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    total = sum(roots.values())
    return covered / total if total else 0.0


def layer_metrics(spans: List[Dict]) -> Dict[str, float]:
    """The per-layer metrics of one traced run (inclusive times)."""
    def by(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by(name))

    decide = by("atpg.decide")
    search = by("atpg.search")
    exact = by("atpg.exact")
    checks = by("metrics.check_rs")
    batches = by("simulation.batch_evaluate")
    search_s = seconds("atpg.search")
    search_nodes = sum(s["attrs"]["nodes"] for s in search)
    exact_s = seconds("atpg.exact")
    exact_vectors = sum(s["attrs"]["vectors"] for s in exact)
    statuses = [s["attrs"]["status"] for s in decide]
    batch_faults = sum(s["attrs"]["faults"] for s in batches)
    batch_dropped = sum(s["attrs"]["dropped"] for s in batches)
    accepted = sum(1 for s in checks if s["attrs"]["accepted"])
    return {
        "atpg.search_s": search_s,
        "atpg.search_nodes": search_nodes,
        "atpg.search_us_per_node": 1e6 * search_s / search_nodes if search_nodes else 0.0,
        "atpg.abort_ratio": statuses.count("aborted") / len(decide) if decide else 0.0,
        "atpg.exact_s": exact_s,
        "atpg.exact_vectors": exact_vectors,
        "atpg.exact_ns_per_vector": 1e9 * exact_s / exact_vectors if exact_vectors else 0.0,
        "atpg.decide_s": seconds("atpg.decide"),
        "atpg.decide_calls": len(decide),
        "atpg.sat": statuses.count("sat"),
        "atpg.unsat": statuses.count("unsat"),
        "atpg.aborted": statuses.count("aborted"),
        "atpg.es_init_s": seconds("atpg.es_init"),
        "atpg.podem_s": seconds("atpg.podem"),
        "atpg.podem_calls": len(by("atpg.podem")),
        "metrics.check_rs_s": seconds("metrics.check_rs"),
        "metrics.check_rs_calls": len(checks),
        "metrics.simulate_faults_s": seconds("metrics.simulate_faults"),
        "metrics.simulate_faults_calls": len(by("metrics.simulate_faults")),
        "metrics.simulate_s": seconds("metrics.simulate"),
        "metrics.simulate_calls": len(by("metrics.simulate")),
        "metrics.estimator_init_s": seconds("metrics.estimator_init"),
        "simplify.commit_accept_ratio": accepted / len(checks) if checks else 0.0,
        "simplify.preview_s": seconds("simplify.preview"),
        "simplify.preview_calls": len(by("simplify.preview")),
        "simplify.materialize_s": seconds("simplify.materialize"),
        "simulation.batch_evaluate_s": seconds("simulation.batch_evaluate"),
        "simulation.batch_faults": batch_faults,
        "simulation.batch_drop_ratio": batch_dropped / batch_faults if batch_faults else 0.0,
        "simulation.differential_s": seconds("simulation.differential"),
        "simulation.differential_calls": len(by("simulation.differential")),
        "simulation.logicsim_s": seconds("simulation.logicsim"),
        "simulation.kernel_s": seconds("simulation.kernel"),
        "simulation.kernel_calls": len(by("simulation.kernel")),
        "simulation.compile_s": seconds("simulation.compile"),
        "simulation.compile_calls": len(by("simulation.compile")),
        "trace.top_level_coverage": top_level_coverage(spans),
        "trace.spans": len(spans),
    }
