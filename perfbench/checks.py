"""Output checks, made from outside the program.

Compute results are re-measured, never compared against golden area
numbers (an ES change that turns aborts into proofs may legitimately
raise the area reduction).  Service outcomes are compared against an
in-process run of the same request by a digest of their semantic part.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List


def check_compute(circuit, request, outcome) -> List[str]:
    """Failures of one compute result (empty when it checks out).

    * the simplified netlist, re-measured by a fresh ``MetricsEstimator``
      on the run's vector seed, keeps ER x observed ES within the RS
      threshold (recomputed here from the request and the circuit);
    * replaying the result's faults on the original circuit with
      ``simplify_with_faults`` reproduces the result's area.
    """
    from repro.metrics import MetricsEstimator, rs_max
    from repro.simplify import simplify_with_faults

    failures = []
    threshold = request.rs_pct_threshold * rs_max(circuit) / 100.0
    estimator = MetricsEstimator(circuit, num_vectors=request.num_vectors, seed=request.seed)
    er, observed = estimator.simulate(approx=outcome.simplified)
    if er * observed > threshold:
        failures.append(
            f"{circuit.name}: re-measured RS {er * observed:.6g} exceeds "
            f"threshold {threshold:.6g} (ER {er:.6g}, observed ES {observed})"
        )
    replayed = simplify_with_faults(circuit, outcome.faults).area()
    if replayed != outcome.simplified.area():
        failures.append(
            f"{circuit.name}: replaying {len(outcome.faults)} faults gives area "
            f"{replayed}, result has {outcome.simplified.area()}"
        )
    return failures


def outcome_digest(outcome_dict: Dict) -> str:
    """Digest of an outcome's semantic part.

    The wall time and the request (whose durability paths the service
    rewrites) are left out; the winning result, its netlists, faults,
    iterations and metrics, and the per-FOM summaries are kept.
    """
    semantic = {k: outcome_dict[k] for k in ("winning_fom", "runs", "result")}
    text = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
