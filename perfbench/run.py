"""Paper-scale benchmark of the circuit simplifier, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload es_search --seed 0 --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``es_search``, ``es_exact``,
``rank_prepass`` (compute: ``SimplifyRequest(...).run(circuit)`` in a
fresh interpreter per pass) and ``service_mix`` (a closed loop of two
clients against ``repro serve``).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` adds a
traced pass to the untraced ones, wraps the program's layers from outside
(``tracing.py``), writes the spans to ``.perfbench_work/traces/`` and
reports the per-layer metrics, the tracing overhead and whether each
workload's recorded prediction held.  Every run checks its outputs;
the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check failed and 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402
import workloads  # noqa: E402
from procs import ChildFailed, TimedChild, python_import_seconds, use_pycache  # noqa: E402

#: No child may outlive this many seconds.
CHILD_DEADLINE_S = 170.0

#: Each workload's prediction, checked on the traced run: (text, test).
PREDICTIONS = {
    "es_search": [
        ("atpg.search_s >= 60% of wall_s",
         lambda m, w: m["atpg.search_s"] >= 0.60 * w),
    ],
    "es_exact": [
        ("atpg.exact_s >= 40% of wall_s",
         lambda m, w: m["atpg.exact_s"] >= 0.40 * w),
        ("atpg.search_s == 0", lambda m, w: m["atpg.search_s"] == 0.0),
    ],
    "rank_prepass": [
        # The PODEM prepass is its random-pattern screen
        # (simulation.differential) plus the PODEM proofs.
        ("atpg.podem_s + simulation.differential_s + metrics.simulate_faults_s"
         " >= 60% of wall_s",
         lambda m, w: (m["atpg.podem_s"] + m["simulation.differential_s"]
                       + m["metrics.simulate_faults_s"]) >= 0.60 * w),
        ("atpg.decide_s <= 15% of wall_s",
         lambda m, w: m["atpg.decide_s"] <= 0.15 * w),
    ],
    "service_mix": [
        ("service.overhead_p50_s >= 50% of service.attempt_p50_s",
         lambda m, w: m["service.overhead_p50_s"] >= 0.5 * m["service.attempt_p50_s"]),
    ],
}
_COVERAGE = ("named top-level spans cover >= 90% of wall_s",
             lambda m, w: m["trace.top_level_coverage"] >= 0.90)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)



# ----------------------------------------------------------------------
# compute workloads
# ----------------------------------------------------------------------
def _pass(root: str, workload: str, seed: int, trace: bool) -> Dict:
    """One fresh-interpreter pass; returns the child's report plus the
    spawn-to-``done`` latency of the job."""
    child = TimedChild(["run", workload, str(seed), "1" if trace else "0"],
                       root, CHILD_DEADLINE_S)
    report = child.report
    report["latency_s"] = child.marks["done"]
    report["wall_s"] = sum(r["wall_s"] for r in report["requests"])
    return report


def compute_run(root: str, workload: str, seed: int, seconds: float) -> Dict:
    passes: List[Dict] = []
    failures: List[str] = []
    attempted = failed = 0
    n_jobs = len(workloads.compute_jobs(workload, seed))
    TimedChild(["setup", workload, str(seed)], root, 60.0)  # untimed: fills the bytecode cache
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        attempted += n_jobs
        try:
            report = _pass(root, workload, seed, False)
        except ChildFailed as exc:
            failures.append(str(exc))
            failed += n_jobs
            break
        passes.append(report)
        failures += [f for r in report["requests"] for f in r["failures"]]
        failed += sum(1 for r in report["requests"] if r["failures"])
    metrics = {}
    if passes:
        setup = [TimedChild(["setup", workload, str(seed)], root, 60.0).marks["ready"]
                 for _ in range(workloads.SETUP_SAMPLES)]
        cold = [p["latency_s"] for p in passes]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "area_reduction_pct": statistics.median(
                statistics.fmean(r["area_reduction_pct"] for r in p["requests"])
                for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "cold_p50_s": statistics.median(cold),
            "cold_p90_s": spec.quantile(cold, 0.9),
            "jobs_per_s": len(cold) / sum(cold),
        }
        _log(f"{workload}: {len(passes)} pass(es) of {n_jobs} request(s); "
             f"samples: cold={len(cold)} setup={len(setup)}")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics}


def compute_trace(root: str, workload: str, seed: int, seconds: float) -> Dict:
    """The untraced passes of a ``--trace 0`` run, then one traced pass."""
    import tracing

    run = compute_run(root, workload, seed, seconds)
    if not run["metrics"]:
        raise ChildFailed(run["failures"][0])
    traced = _pass(root, workload, seed, True)
    spans = traced.pop("spans")
    layer = tracing.layer_metrics(spans)
    layer.update({name: 0.0 for name, *_ in spec.PER_LAYER if name.startswith("service.")})
    requests = traced["requests"]
    return {
        "attempted": run["attempted"] + len(requests),
        "failed": run["failed"] + sum(1 for r in requests if r["failures"]),
        "failures": run["failures"] + [f for r in requests for f in r["failures"]],
        "layer": layer,
        "spans": spans,
        "untraced_wall_s": run["metrics"]["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }


# ----------------------------------------------------------------------
# traced-run bookkeeping shared by all workloads
# ----------------------------------------------------------------------
def finish_trace(root: str, workload: str, seed: int, run: Dict) -> Dict:
    import tracing

    layer = run["layer"]
    wall = run["traced_wall_s"]
    layer["trace.overhead_s"] = wall - run["untraced_wall_s"]
    layer["trace.overhead_pct"] = 100.0 * layer["trace.overhead_s"] / run["untraced_wall_s"]
    checks = []
    for text, test in PREDICTIONS[workload] + (
            [_COVERAGE] if workload in workloads.COMPUTE_WORKLOADS else []):
        checks.append({"prediction": text, "met": bool(test(layer, wall))})
    layer["trace.predictions_failed"] = sum(1 for c in checks if not c["met"])
    for c in checks:
        _log(f"prediction [{'met' if c['met'] else 'MISSED'}] {workload}: {c['prediction']}")

    spans = run.get("spans") or run.get("reference_spans", [])
    all_spans = spans + run.get("client_spans", [])
    selfs = tracing.self_times(all_spans)
    _log(f"{workload}: traced wall {wall:.3f} s, untraced {run['untraced_wall_s']:.3f} s; "
         "self time by span:")
    for name, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
        _log(f"  {name:32s} {secs:9.3f} s  {100.0 * secs / wall:6.1f}%")

    trace_dir = os.path.join(root, ".perfbench_work", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "wall_s": wall,
                   "untraced_wall_s": run["untraced_wall_s"], "metrics": layer,
                   "predictions": checks, "self_times_s": selfs,
                   "spans": all_spans}, fh)
    _log(f"spans written to {os.path.relpath(path, root)}")
    return layer


# ----------------------------------------------------------------------
def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One benchmark run; returns the result object ``main`` prints."""
    workdir = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        use_pycache(root, workdir)
        if workload == workloads.SERVICE_WORKLOAD:
            import service_mix

            run = service_mix.run(root, workdir, seed, seconds, trace)
            _log(f"service_mix: samples: cold={run['samples']['cold']} "
                 f"hit={run['samples']['hit']}")
            if trace:
                import tracing

                run["layer"].update(tracing.layer_metrics(run["reference_spans"]))
                run["layer"]["service.runner_import_s"] = statistics.median(
                    python_import_seconds(root) for _ in range(3))
        elif trace:
            run = compute_trace(root, workload, seed, seconds)
        else:
            run = compute_run(root, workload, seed, seconds)
        if trace:
            values = finish_trace(root, workload, seed, run)
            names = spec.PER_LAYER
        else:
            values = run["metrics"]
            names = spec.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in run["failures"]:
        _log(f"CHECK FAILED: {f}")
    return {
        "correct": run["failed"] == 0 and all(n in values for n, *_ in names),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": values.get(n, 0.0), "unit": spec.UNITS[n]}
                    for n, *_ in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or 'all' for a table of every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        _log("perfbench: run from the root of a checkout (no src/repro here)")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
               for w in workloads.WORKLOADS}
    for w, result in results.items():
        print(f"{w}: attempted {result['attempted']}, failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
