"""Metric names, units and bounds: the single source for ``run.py``
and for the ``end_to_end`` / ``per_layer`` lists of BENCHMARK.json
(``python3 perfbench/spec.py`` prints those lists)."""

from __future__ import annotations

import json
import statistics
from typing import List

#: (name, unit, better, bound) -- reported by every untraced run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("area_reduction_pct", "%", "higher", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cold_p50_s", "s", "lower", 0.25),
    ("cold_p90_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
]

_S, _N, _R = "s", "count", "ratio"

#: (name, unit, better) -- reported by every traced run.
PER_LAYER = [
    ("atpg.search_s", _S, "lower"),
    ("atpg.search_nodes", _N, "lower"),
    ("atpg.search_us_per_node", "us", "lower"),
    ("atpg.abort_ratio", _R, "lower"),
    ("atpg.exact_s", _S, "lower"),
    ("atpg.exact_vectors", _N, "lower"),
    ("atpg.exact_ns_per_vector", "ns", "lower"),
    ("atpg.decide_s", _S, "lower"),
    ("atpg.decide_calls", _N, "lower"),
    ("atpg.sat", _N, "lower"),
    ("atpg.unsat", _N, "higher"),
    ("atpg.aborted", _N, "lower"),
    ("atpg.es_init_s", _S, "lower"),
    ("atpg.podem_s", _S, "lower"),
    ("atpg.podem_calls", _N, "lower"),
    ("metrics.check_rs_s", _S, "lower"),
    ("metrics.check_rs_calls", _N, "lower"),
    ("metrics.simulate_faults_s", _S, "lower"),
    ("metrics.simulate_faults_calls", _N, "lower"),
    ("metrics.simulate_s", _S, "lower"),
    ("metrics.simulate_calls", _N, "lower"),
    ("metrics.estimator_init_s", _S, "lower"),
    ("simplify.commit_accept_ratio", _R, "higher"),
    ("simplify.preview_s", _S, "lower"),
    ("simplify.preview_calls", _N, "lower"),
    ("simplify.materialize_s", _S, "lower"),
    ("simulation.batch_evaluate_s", _S, "lower"),
    ("simulation.batch_faults", _N, "lower"),
    ("simulation.batch_drop_ratio", _R, "higher"),
    ("simulation.differential_s", _S, "lower"),
    ("simulation.differential_calls", _N, "lower"),
    ("simulation.logicsim_s", _S, "lower"),
    ("simulation.kernel_s", _S, "lower"),
    ("simulation.kernel_calls", _N, "lower"),
    ("simulation.compile_s", _S, "lower"),
    ("simulation.compile_calls", _N, "lower"),
    ("service.hit_p50_s", _S, "lower"),
    ("service.overhead_p50_s", _S, "lower"),
    ("service.runner_import_s", _S, "lower"),
    ("service.queue_wait_p50_s", _S, "lower"),
    ("service.attempt_p50_s", _S, "lower"),
    ("service.compute_p50_s", _S, "lower"),
    ("service.cache_hit_ratio", _R, "higher"),
    ("service.attempts_per_job", _N, "lower"),
    ("trace.top_level_coverage", _R, "higher"),
    ("trace.spans", _N, "lower"),
    ("trace.overhead_s", _S, "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.predictions_failed", _N, "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def quantile(samples: List[float], q: float) -> float:
    """The ``q`` quantile (0.01 steps) of ``samples``, inclusive method."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def benchmark_lists() -> dict:
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_lists(), indent=2))
