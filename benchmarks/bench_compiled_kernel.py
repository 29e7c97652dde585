"""Compiled whole-netlist kernel vs the per-gate reference simulator.

Two measurements on the big Table II circuits (c5315, c7552):

* whole-netlist good-value simulation throughput of
  :class:`CompiledSimulator` against :class:`LogicSimulator`, which
  produce bit-identical words (enforced by
  ``tests/simulation/test_engine_equivalence.py`` and spot-checked
  here);
* background-telemetry sampling overhead on a bounded
  ``circuit_simplify`` run.

End-to-end simplification timing lives in ``perfbench/``.  Every row
also records process RSS (after each simulator's timed runs, plus the
run-wide peak), so ``repro trends`` can flag memory regressions
alongside the timing ones.

Rows land in ``bench_results.txt`` and machine-readably in
``BENCH_compiled_kernel.json`` (consumed by ``repro trends`` in CI).
"""

import os
import time

import numpy as np
import pytest

from repro.benchlib import ISCAS85_SUITE
from repro.obs.telemetry import peak_rss_bytes, sample_rss_bytes
from repro.simplify import GreedyConfig, circuit_simplify
from repro.simulation import CompiledSimulator, LogicSimulator, random_vectors

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))
NUM_VECTORS = 10_000 if FULL else 4_000
ROUNDS = 3
CIRCUITS = ["c5315", "c7552"]


def _timeit(fn, rounds=ROUNDS):
    fn()  # warm caches (compiled program, cone plans, good values)
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds


def _rss_mb():
    return round(sample_rss_bytes() / 1e6, 1)


def _rss_fields(rss_python_mb, rss_compiled_mb):
    return {
        "rss_python_mb": rss_python_mb,
        "rss_compiled_mb": rss_compiled_mb,
        "rss_peak_mb": round(peak_rss_bytes() / 1e6, 1),
    }


@pytest.mark.parametrize("name", CIRCUITS)
def test_good_sim_throughput(name, benchmark, bench_rows, bench_json):
    circuit = ISCAS85_SUITE[name].builder()
    rng = np.random.default_rng(0)
    vectors = random_vectors(len(circuit.inputs), NUM_VECTORS, rng)
    py = LogicSimulator(circuit)
    cm = CompiledSimulator(circuit)

    a, b = py.run(vectors), cm.run(vectors)
    for o in circuit.outputs:
        assert np.array_equal(a.words_for(o), b.words_for(o))

    t_py = _timeit(lambda: py.run(vectors))
    rss_py = _rss_mb()
    t_cm = _timeit(lambda: cm.run(vectors))
    rss_cm = _rss_mb()
    benchmark.pedantic(lambda: cm.run(vectors), rounds=1, iterations=1)
    speedup = t_py / t_cm
    bench_rows.append(
        f"KERNEL-SIM {name:<6} {NUM_VECTORS} vectors: "
        f"python={t_py * 1e3:7.1f}ms  compiled={t_cm * 1e3:7.1f}ms  "
        f"speedup={speedup:.1f}x"
    )
    bench_json["compiled_kernel"].append(
        {
            "bench": "good_sim",
            "circuit": name,
            "num_vectors": NUM_VECTORS,
            "full_profile": FULL,
            "t_python_ms": round(t_py * 1e3, 3),
            "t_compiled_ms": round(t_cm * 1e3, 3),
            "speedup": round(speedup, 2),
            **_rss_fields(rss_py, rss_cm),
        }
    )


def test_telemetry_overhead(benchmark, bench_rows, bench_json):
    """Sampled RSS/CPU telemetry must stay in the noise (<2% target).

    Times a bounded ``circuit_simplify`` on c5315 with
    and without a 50ms background sampler.  The assertion bound is
    deliberately loose (10%) so CI jitter can't flake the job; the
    measured number lands in the bench JSON for ``repro trends``.
    """
    circuit = ISCAS85_SUITE["c5315"].builder()
    iters = 10 if FULL else 6

    def run(telemetry_interval):
        cfg = GreedyConfig(
            num_vectors=NUM_VECTORS,
            seed=0,
            candidate_limit=60,
            max_iterations=iters,
            atpg_node_limit=400,
        )
        t0 = time.perf_counter()
        circuit_simplify(
            circuit,
            rs_pct_threshold=2.0,
            config=cfg,
            telemetry_interval=telemetry_interval,
        )
        return time.perf_counter() - t0

    run(None)  # warm caches so both timed variants see the same state
    # Interleave the variants: run-to-run drift (allocator growth, cache
    # state) then lands on both sides instead of being read as overhead.
    plain_times, tel_times = [], []
    for _ in range(ROUNDS + 1):
        plain_times.append(run(None))
        tel_times.append(run(0.05))
    t_plain = sorted(plain_times)[len(plain_times) // 2]
    t_tel = sorted(tel_times)[len(tel_times) // 2]
    benchmark.pedantic(lambda: run(0.05), rounds=1, iterations=1)
    overhead_pct = (t_tel / t_plain - 1.0) * 100.0
    bench_rows.append(
        f"KERNEL-TEL c5315  50ms sampler: plain={t_plain:6.2f}s  "
        f"telemetry={t_tel:6.2f}s  overhead={overhead_pct:+.1f}%"
    )
    bench_json["compiled_kernel"].append(
        {
            "bench": "telemetry_overhead",
            "circuit": "c5315",
            "iterations": iters,
            "num_vectors": NUM_VECTORS,
            "full_profile": FULL,
            "interval_s": 0.05,
            "t_plain_s": round(t_plain, 3),
            "t_telemetry_s": round(t_tel, 3),
            "overhead_pct": round(overhead_pct, 2),
            "rss_peak_mb": round(peak_rss_bytes() / 1e6, 1),
        }
    )
    assert overhead_pct < 10.0
