"""ScoringPool: deterministic merge, serial equivalence, degradation.

The load-bearing property is *bit-identical determinism*: a parallel
run must select the same fault sequence (and hence produce the same
netlist) as a serial run, because shards are contiguous order-preserving
slices of the shortlist and every per-fault stat is independent of the
rest of the batch.
"""

from concurrent.futures import Future

import pytest

from repro import GreedyConfig, circuit_simplify, dumps_bench
from repro.benchlib import ISCAS85_SUITE
from repro.faults import datapath_faults
from repro.metrics import MetricsEstimator
from repro.obs import Instrumentation
from repro.parallel import ScoringPool, resolve_workers
from repro.parallel.pool import WORKERS_ENV, _score_shard
from tests.conftest import build_ripple_adder


# ----------------------------------------------------------------------
# resolve_workers policy
# ----------------------------------------------------------------------
def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "7")
    assert resolve_workers(3) == 3


def test_resolve_workers_env_fallback(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers(None) == 5
    monkeypatch.delenv(WORKERS_ENV)
    assert resolve_workers(None) == 1


def test_resolve_workers_zero_means_cpu_count(monkeypatch):
    import os

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(0) == (os.cpu_count() or 1)
    assert resolve_workers(-1) == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# stat-level equality: pool vs estimator
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def c880():
    return ISCAS85_SUITE["c880"].builder()


@pytest.fixture(scope="module")
def estimator(c880):
    return MetricsEstimator(c880, num_vectors=1200, seed=0)


@pytest.fixture(scope="module")
def shortlist(c880):
    return datapath_faults(c880)[:60]


def _rows(stats):
    return [
        (
            st.fault,
            st.detected_count,
            st.max_abs_deviation,
            st.sum_abs_deviation,
            st.dropped,
        )
        for st in stats
    ]


@pytest.mark.parametrize("workers", [2, 4])
def test_pool_stats_identical_to_serial(estimator, shortlist, workers):
    serial = estimator.simulate_faults(shortlist, rs_drop_threshold=50.0)
    with ScoringPool(estimator, workers) as pool:
        parallel = pool.simulate_faults(shortlist, rs_drop_threshold=50.0)
    assert _rows(parallel) == _rows(serial)


def test_pool_stats_identical_with_approx(c880, estimator, shortlist):
    """Scoring against a mutated netlist (the per-iteration case)."""
    from repro.simplify.engine import Overlay

    overlay = Overlay(c880)
    overlay.apply(shortlist[0])
    approx = overlay.materialize(c880.name)
    # the greedy loop enumerates candidates from the evolving netlist
    batch = datapath_faults(approx)[:40]
    serial = estimator.simulate_faults(batch, approx=approx)
    with ScoringPool(estimator, 2) as pool:
        parallel = pool.simulate_faults(batch, approx=approx)
    assert _rows(parallel) == _rows(serial)


def test_pool_single_worker_short_circuits(estimator, shortlist):
    obs = Instrumentation()
    with ScoringPool(estimator, 1, obs=obs) as pool:
        stats = pool.simulate_faults(shortlist[:10])
    assert len(stats) == 10
    counters = obs.snapshot()["counters"]
    assert counters.get("parallel.shards_dispatched", 0) == 0
    assert counters["parallel.faults_scored_local"] == 10


def test_pool_spawn_start_method(estimator, shortlist):
    """The spawn + shared-memory shipment path scores identically."""
    serial = estimator.simulate_faults(shortlist[:12])
    with ScoringPool(estimator, 2, start_method="spawn") as pool:
        parallel = pool.simulate_faults(shortlist[:12])
    assert _rows(parallel) == _rows(serial)


def test_pool_empty_batch(estimator):
    with ScoringPool(estimator, 2) as pool:
        assert pool.simulate_faults([]) == []


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
class _PoisonedExecutor:
    """Executor stub whose every future fails at result() time."""

    def submit(self, fn, *args, **kwargs):
        f = Future()
        f.set_exception(RuntimeError("worker crashed"))
        return f

    def shutdown(self, **kwargs):
        pass


def test_crashed_workers_fall_back_in_process(estimator, shortlist):
    obs = Instrumentation()
    serial = estimator.simulate_faults(shortlist)
    pool = ScoringPool(estimator, 2, obs=obs)
    pool._executor = _PoisonedExecutor()  # every shard's future raises
    try:
        merged = pool.simulate_faults(shortlist)
    finally:
        pool.close()
    assert _rows(merged) == _rows(serial)
    counters = obs.snapshot()["counters"]
    assert counters["parallel.shard_fallbacks"] == 2
    assert counters["parallel.faults_scored_local"] == len(shortlist)
    assert counters["parallel.pool_restarts"] == 1
    assert pool._executor is None  # restarted lazily on next call


def test_pool_construction_failure_falls_back(estimator, shortlist, monkeypatch):
    obs = Instrumentation()
    serial = estimator.simulate_faults(shortlist[:8])
    pool = ScoringPool(estimator, 2, obs=obs)
    monkeypatch.setattr(
        ScoringPool,
        "_ensure_executor",
        lambda self: (_ for _ in ()).throw(OSError("fork refused")),
    )
    try:
        merged = pool.simulate_faults(shortlist[:8])
    finally:
        pool.close()
    assert _rows(merged) == _rows(serial)
    assert obs.snapshot()["counters"]["parallel.pool_failures"] == 1


# ----------------------------------------------------------------------
# run-level equivalence: the acceptance property
# ----------------------------------------------------------------------
_C880_CFG = GreedyConfig(
    num_vectors=1000,
    seed=0,
    candidate_limit=40,
    max_iterations=6,
    atpg_node_limit=400,
)
_C1908_CFG = GreedyConfig(
    num_vectors=700,
    seed=1,
    candidate_limit=25,
    max_iterations=3,
    atpg_node_limit=300,
)


@pytest.fixture(scope="module")
def c880_serial(c880):
    return circuit_simplify(c880, rs_pct_threshold=2.0, config=_C880_CFG, workers=1)


@pytest.mark.parametrize("workers", [2, 4])
def test_c880_parallel_run_identical(c880, c880_serial, workers):
    par = circuit_simplify(
        c880, rs_pct_threshold=2.0, config=_C880_CFG, workers=workers
    )
    assert [str(f) for f in par.faults] == [str(f) for f in c880_serial.faults]
    assert dumps_bench(par.simplified) == dumps_bench(c880_serial.simplified)
    assert par.final_metrics.rs == c880_serial.final_metrics.rs


def test_c1908_parallel_run_identical():
    c1908 = ISCAS85_SUITE["c1908"].builder()
    serial = circuit_simplify(
        c1908, rs_pct_threshold=1.0, config=_C1908_CFG, workers=1
    )
    par = circuit_simplify(c1908, rs_pct_threshold=1.0, config=_C1908_CFG, workers=2)
    assert [str(f) for f in par.faults] == [str(f) for f in serial.faults]
    assert dumps_bench(par.simplified) == dumps_bench(serial.simplified)


_SHARD_BARRIER = None


def _score_shard_in_lockstep(*args):
    """``_score_shard`` that first waits for the other worker, so each of
    the two workers must take one shard (fork-inherited barrier)."""
    _SHARD_BARRIER.wait(timeout=60)
    return _score_shard(*args)


def test_worker_trace_buffers_merge_into_coordinator(estimator, shortlist, monkeypatch):
    """With a tracer attached, shard scoring ships worker span events
    back and the merged trace shows distinct worker pid lanes."""
    import multiprocessing as mp
    import os

    from repro.obs import TraceRecorder, to_chrome_trace

    obs = Instrumentation()
    obs.tracer = TraceRecorder()
    serial = estimator.simulate_faults(shortlist)
    # Without the barrier the executor may hand both shards to one worker.
    monkeypatch.setattr(f"{__name__}._SHARD_BARRIER", mp.get_context("fork").Barrier(2))
    monkeypatch.setattr("repro.parallel.pool._score_shard", _score_shard_in_lockstep)
    with ScoringPool(estimator, 2, obs=obs, start_method="fork") as pool:
        merged = pool.simulate_faults(shortlist)
    assert _rows(merged) == _rows(serial)  # tracing never perturbs stats
    counters = obs.snapshot()["counters"]
    assert counters["parallel.trace_events_merged"] > 0
    worker_pids = {ev[5] for ev in obs.tracer.events} - {os.getpid()}
    assert len(worker_pids) == 2
    # every worker event sits under that worker's "shard" span
    for ev in obs.tracer.events:
        if ev[5] in worker_pids:
            assert ev[2] == "shard" or ev[2].startswith("shard/")
    payload = to_chrome_trace(obs.tracer)
    lane_names = {m["args"]["name"] for m in payload["traceEvents"]
                  if m["ph"] == "M"}
    assert "scoring worker 1" in lane_names
    assert "scoring worker 2" in lane_names


def test_pool_without_tracer_ships_no_trace_buffers(estimator, shortlist):
    obs = Instrumentation()
    with ScoringPool(estimator, 2, obs=obs) as pool:
        pool.simulate_faults(shortlist)
    assert "parallel.trace_events_merged" not in obs.snapshot()["counters"]


def test_parallel_run_emits_counters():
    ckt = build_ripple_adder(5)
    obs = Instrumentation()
    circuit_simplify(
        ckt,
        rs_pct_threshold=5.0,
        config=GreedyConfig(num_vectors=800, seed=2, candidate_limit=50),
        workers=2,
        obs=obs,
    )
    snap = obs.snapshot()
    assert snap["counters"]["parallel.faults_scored_remote"] > 0
    assert snap["counters"].get("parallel.shard_fallbacks", 0) == 0
    assert snap["gauges"]["parallel.workers"] == 2
