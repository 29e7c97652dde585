"""Workload definitions: which requests each workload runs, from a seed.

Everything here is pure data plus small derivations from ``--seed``;
it imports nothing from ``repro`` so the orchestrator can read it
without paying the package import.

Compute workloads (``es_search``, ``es_exact``, ``rank_prepass``) run
a list of ``SimplifyRequest`` jobs on ISCAS85-like circuits with the
paper's setup: ``fom="area_per_rs"``, 10,000 vectors, the redundancy
prepass on, serial scoring, and the default ``atpg_node_limit`` (4000)
and ``candidate_limit`` (200).  ``service_mix`` drives ``repro serve``
with small ripple-adder jobs.
"""

from __future__ import annotations

from typing import Dict, List

#: Fresh interpreters (compute) or server starts (service) timed per
#: run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

COMPUTE_WORKLOADS = ("es_search", "es_exact", "rank_prepass")
SERVICE_WORKLOAD = "service_mix"
WORKLOADS = COMPUTE_WORKLOADS + (SERVICE_WORKLOAD,)

#: Request fields shared by every compute job.
COMPUTE_BASE = dict(
    fom="area_per_rs",
    num_vectors=10_000,
    redundancy_prepass=True,
    workers=1,
)

# The greedy trajectory, and with it the work a request does, depends
# on its vector-batch seed.  A 0-16 seed survey on the c5315 prefix
# gave 0 to 14 aborted B&B queries and 6 s to 58 s of wall time; c880
# ran 49 to 51 iterations; c5315 at 1 %RS ran 22 to 27 iterations, one
# seed with an aborted B&B query.  No bound absorbs that spread, so each
# compute workload draws its request seed from a pool of seeds whose
# trajectory has the workload's defining work profile, and ``--seed``
# picks from the pool.
SEED_POOLS = {
    # 25-iteration prefix with exactly six aborted B&B queries.
    "es_search": (0, 1, 5, 8),
    # 51 iterations, 44 exact ES queries (23.07 M exhaustive vectors).
    "es_exact": (0, 1, 2, 5, 7, 8, 10),
    # c5315: 24 iterations and no B&B query; c7552: 11 iterations.
    "rank_prepass": (0, 1, 5, 8),
}


def request_seed(workload: str, seed: int) -> int:
    pool = SEED_POOLS[workload]
    return pool[seed % len(pool)]


def compute_jobs(workload: str, seed: int) -> List[Dict]:
    """The ordered jobs of one compute-workload pass.

    Each job names an ``ISCAS85_SUITE`` circuit and the keyword
    arguments of its ``SimplifyRequest``.
    """
    if workload == "es_search":
        return [_job("c5315", 5.0, request_seed(workload, seed), max_iterations=25)]
    if workload == "es_exact":
        return [_job("c880", 5.0, request_seed(workload, seed))]
    if workload == "rank_prepass":
        rs = request_seed(workload, seed)
        return [_job("c5315", 1.0, rs), _job("c7552", 1e-6, rs)]
    raise ValueError(f"not a compute workload: {workload!r}")


def _job(circuit: str, rs_pct: float, request_seed: int, **extra) -> Dict:
    kwargs = dict(COMPUTE_BASE, rs_pct_threshold=rs_pct, seed=request_seed, **extra)
    return {"circuit": circuit, "request": kwargs}


#: Request fields of every ``service_mix`` job (a small but real greedy
#: run on a 4-bit ripple-carry adder, ~20 ms of compute).
SERVICE_BASE = dict(
    rs_pct_threshold=6.0,
    fom="area_per_rs",
    num_vectors=400,
    candidate_limit=30,
    workers=1,
)
SERVICE_ADDER_BITS = 4
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
#: Cold jobs per run: at least ten samples lie beyond the p90.
SERVICE_MIN_COLD = 100


def service_request_seed(seed: int, k: int) -> int:
    """Request seed of the ``k``-th cold job of a run: non-negative and
    distinct per ``k`` (a run completes far fewer than 1000 cold jobs)."""
    return (seed % 100_000) * 1_000 + k
