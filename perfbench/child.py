"""One fresh-interpreter job of the benchmark.

Started by ``run.py`` with a cleaned environment, so the import cost
and the compiled-program cache never carry over between jobs.  Modes:

``setup WORKLOAD SEED``
    import ``repro``, build the workload's circuits, print ``ready``.
``run WORKLOAD SEED TRACE``
    as ``setup``, then run the workload's requests with
    ``SimplifyRequest(...).run(circuit)``, print ``done`` and check the
    results.
``reference TRACE``
    read ``service_mix`` requests (JSON) from stdin and run each one
    in-process, for comparison with the service's outcomes.
``import-runner``
    time a fresh ``import repro.service.runner``.

The last stdout line is a JSON report for ``run.py``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import workloads  # noqa: E402  (benchmark-local module)

#: Untraced repetitions of the service reference list (median reported;
#: one list takes about 2 s).
_REFERENCE_REPEATS = 5


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build(workload: str, seed: int):
    from repro import SimplifyRequest
    from repro.benchlib import ISCAS85_SUITE

    jobs = []
    for job in workloads.compute_jobs(workload, seed):
        circuit = ISCAS85_SUITE[job["circuit"]].builder()
        jobs.append((circuit, SimplifyRequest(**job["request"])))
    return jobs


def _tracer(trace: bool):
    if not trace:
        return None, lambda: None
    import tracing

    tracer = tracing.Tracer()
    return tracer, tracing.install(tracer)


def run_compute(workload: str, seed: int, trace: bool) -> dict:
    """Run the workload's requests and check each result."""
    from checks import check_compute

    jobs = _build(workload, seed)
    _say("ready")
    tracer, restore = _tracer(trace)
    results = []
    try:
        for i, (circuit, request) in enumerate(jobs):
            t0 = time.perf_counter()
            if tracer is None:
                outcome = request.run(circuit)
            else:
                with tracer.request(f"{workload}-{seed}-{i}"):
                    outcome = request.run(circuit)
            results.append((circuit, request, outcome, time.perf_counter() - t0))
    finally:
        restore()
    _say("done")
    report = {"requests": [], "peak_rss_mb": _peak_rss_mb()}
    for circuit, request, outcome, wall in results:
        try:
            failures = check_compute(circuit, request, outcome)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
            failures = [f"{circuit.name}: check raised {exc!r}"]
        report["requests"].append(
            {"circuit": circuit.name, "wall_s": wall,
             "area_reduction_pct": outcome.area_reduction_pct,
             "faults": len(outcome.faults), "failures": failures}
        )
    if tracer is not None:
        report["spans"] = tracer.spans
    return report


def run_reference(trace: bool, payload: dict) -> dict:
    """In-process runs of the service's cold requests.

    The ``timed`` requests run ``_REFERENCE_REPEATS`` times untraced
    (once traced); ``walls_s`` holds each repeat's total.  The
    ``extra`` requests run once, for their digests only.
    """
    from checks import outcome_digest
    from repro import SimplifyRequest, loads_bench

    circuit = loads_bench(payload["netlist"], name=payload["name"])
    timed = [SimplifyRequest.from_dict(req) for req in payload["timed"]]
    tracer, restore = _tracer(trace)
    report = {"digests": {}, "walls_s": [], "areas": []}
    try:
        for rep in range(1 if trace else _REFERENCE_REPEATS):
            wall = 0.0
            for i, request in enumerate(timed):
                t0 = time.perf_counter()
                if tracer is None:
                    outcome = request.run(circuit)
                else:
                    with tracer.request(f"service_mix-ref-{i}"):
                        outcome = request.run(circuit)
                wall += time.perf_counter() - t0
                if rep == 0:
                    report["digests"][str(request.seed)] = outcome_digest(outcome.to_dict())
                    report["areas"].append(outcome.area_reduction_pct)
            report["walls_s"].append(wall)
    finally:
        restore()
    if not trace:
        for req in payload["extra"]:
            request = SimplifyRequest.from_dict(req)
            report["digests"][str(request.seed)] = outcome_digest(request.run(circuit).to_dict())
    if tracer is not None:
        report["spans"] = tracer.spans
    return report


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        _build(argv[1], int(argv[2]))
        _say("ready")
        _say(json.dumps({}))
        return 0
    if mode == "run":
        workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
        _say(json.dumps(run_compute(workload, seed, trace)))
        return 0
    if mode == "reference":
        trace = argv[1] == "1"
        _say(json.dumps(run_reference(trace, json.loads(sys.stdin.read()))))
        return 0
    if mode == "import-runner":
        t0 = time.perf_counter()
        import repro.service.runner  # noqa: F401

        _say(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
