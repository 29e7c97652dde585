"""Golden equivalence suite: the production simulators vs the reference.

The compiled whole-netlist kernel and the fault simulators built on it
must be **bit-identical** to the per-gate :class:`LogicSimulator`,
which serves as the reference oracle here -- same packed words for
every signal, same differential fault statistics (including drop
decisions and ``words_simulated`` bookkeeping).  The greedy end-to-end
runs are pinned as literal trajectories, captured from the per-gate
reference path, so the committed fault sequence can never drift.
"""

import numpy as np
import pytest

from repro import GreedyConfig, SimplifyRequest, circuit_simplify, dumps_bench
from repro.benchlib import ISCAS85_SUITE
from repro.faults import enumerate_faults
from repro.simulation import (
    BatchFaultSimulator,
    CompiledSimulator,
    FaultSimulator,
    LogicSimulator,
    random_vectors,
)
from tests.conftest import build_c17

BENCHES = ("c17", "c880", "c1908")


def _build(name):
    if name == "c17":
        return build_c17()
    return ISCAS85_SUITE[name].builder()


@pytest.fixture(scope="module", params=BENCHES)
def bench(request):
    return _build(request.param)


def _sample_faults(circuit, rng, limit=60):
    """Every fault on small circuits, a shuffled sample on large ones,
    always keeping at least one stem, one branch and one PI fault."""
    faults = list(enumerate_faults(circuit, include_branches=True))
    if len(faults) <= limit:
        return faults
    idx = rng.permutation(len(faults))[:limit]
    sample = [faults[i] for i in idx]
    sample.append(next(f for f in faults if f.line.is_branch))
    sample.append(next(f for f in faults if f.line.is_stem))
    sample.append(
        next(f for f in faults if f.line.is_stem and circuit.is_input(f.line.signal))
    )
    return sample


def _reference(circuit, vectors, faults):
    """Per-vector detection and signed weighted deviation, computed by
    comparing two :class:`LogicSimulator` runs (good vs faulty)."""
    sim = LogicSimulator(circuit)
    good, faulty = sim.run(vectors), sim.run(vectors, faults)
    detected = (
        good.output_bits(circuit.outputs) != faulty.output_bits(circuit.outputs)
    ).any(axis=1)
    values = circuit.data_outputs or circuit.outputs
    weights = [int(circuit.output_weights.get(o, 1)) for o in values]
    delta = faulty.output_bits(values).astype(int) - good.output_bits(values)
    deviations = [
        sum(w * int(d) for w, d in zip(weights, row)) for row in delta
    ]
    return detected, deviations


def test_good_sim_words_identical(bench):
    """Good-value simulation: every signal, word-for-word equal."""
    rng = np.random.default_rng(7)
    vectors = random_vectors(len(bench.inputs), 130, rng)  # ragged 3rd word
    py = LogicSimulator(bench).run(vectors)
    cm = CompiledSimulator(bench).run(vectors)
    for s in bench.signals():
        assert np.array_equal(py.words_for(s), cm.words_for(s)), s


def test_single_fault_sim_identical(bench):
    """Faulty-value simulation: stems, branches, PI faults."""
    rng = np.random.default_rng(11)
    vectors = random_vectors(len(bench.inputs), 130, rng)
    py = LogicSimulator(bench)
    compiled = CompiledSimulator(bench)
    for fault in _sample_faults(bench, rng):
        a = py.run(vectors, [fault])
        b = compiled.run(vectors, [fault])
        for o in bench.outputs:
            assert np.array_equal(a.words_for(o), b.words_for(o)), fault


def test_multi_fault_sim_identical(bench):
    """Several simultaneous faults (the committed-set replay case)."""
    rng = np.random.default_rng(13)
    vectors = random_vectors(len(bench.inputs), 200, rng)
    faults = _sample_faults(bench, rng, limit=40)[:7]
    py = LogicSimulator(bench).run(vectors, faults)
    cm = CompiledSimulator(bench).run(vectors, faults)
    for s in bench.signals():
        assert np.array_equal(py.words_for(s), cm.words_for(s)), s


def test_differential_fault_sim_identical(bench):
    """FaultSimulator: detection masks and deviations match the
    reference good/faulty comparison."""
    rng = np.random.default_rng(17)
    vectors = random_vectors(len(bench.inputs), 130, rng)
    fsim = FaultSimulator(bench)
    for fault in _sample_faults(bench, rng, limit=25):
        detected, deviations = _reference(bench, vectors, [fault])
        d = fsim.differential(vectors, [fault])
        assert np.array_equal(d.detected, detected), fault
        assert d.deviations == deviations, fault
        assert d.error_rate == np.count_nonzero(detected) / len(vectors), fault
        assert d.max_abs_deviation == max(abs(v) for v in deviations), fault


def test_batch_ppsfp_identical(bench):
    """PPSFP batch evaluation: full stats for every sampled fault."""
    rng = np.random.default_rng(19)
    vectors = random_vectors(len(bench.inputs), 130, rng)
    faults = _sample_faults(bench, rng, limit=80)
    batch = BatchFaultSimulator(bench)
    batch.load_batch(vectors)
    for f, st in zip(faults, batch.evaluate(faults, detailed=True)):
        detected, deviations = _reference(bench, vectors, [f])
        assert np.array_equal(st.detected, detected), f
        assert st.deviations == deviations, f
        assert st.detected_count == np.count_nonzero(detected), f
        assert st.max_abs_deviation == max(abs(v) for v in deviations), f
        assert st.sum_abs_deviation == sum(abs(v) for v in deviations), f
        assert not st.dropped and st.words_simulated == batch._w, f


def _expected_drop(detected, deviations, threshold):
    """Replay the one-word-chunk drop rule on reference data: the
    running ``(detected / n) * max_dev`` at each word boundary."""
    n = len(deviations)
    words = -(-n // 64)
    count = max_dev = 0
    for w in range(words):
        lo, hi = 64 * w, min(n, 64 * (w + 1))
        count += int(np.count_nonzero(detected[lo:hi]))
        max_dev = max([max_dev] + [abs(v) for v in deviations[lo:hi]])
        if (count / n) * max_dev > threshold:
            return w + 1 < words, w + 1, count, max_dev
    return False, words, count, max_dev


def test_batch_fault_dropping_identical(bench):
    """Drop decisions happen at the word the reference data predicts."""
    rng = np.random.default_rng(23)
    vectors = random_vectors(len(bench.inputs), 300, rng)
    faults = _sample_faults(bench, rng, limit=40)
    batch = BatchFaultSimulator(bench)
    batch.load_batch(vectors)
    stats = batch.evaluate(faults, rs_drop_threshold=0.5, chunk_words=1)
    for f, st in zip(faults, stats):
        expected = _expected_drop(*_reference(bench, vectors, [f]), 0.5)
        got = (st.dropped, st.words_simulated, st.detected_count,
               st.max_abs_deviation)
        assert got == expected, f


# (fault, area_after, ER) per committed iteration, rs_pct_threshold=10,
# captured from the per-gate reference simulation path.
_TRAJECTORIES = {
    "c17": [("G1 SA0", 9, 0.1875)],
    "c880": [
        ("and_60 SA1", 777, 0.365),
        ("res_1 SA0", 746, 0.6075),
        ("and_72 SA1", 711, 0.6725),
    ],
}

_C17_SIMPLIFIED = (
    "# c17\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n"
    "OUTPUT(G22)\nOUTPUT(G23)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n"
    "G22 = NOT(G16)\nG19 = NAND(G11, G7)\nG23 = NAND(G16, G19)\n"
)


@pytest.mark.parametrize("name", ["c17", "c880"])
def test_end_to_end_simplify_identical(name):
    """Full greedy runs commit the pinned fault sequence, area
    trajectory and per-iteration ER."""
    kw = dict(num_vectors=400, seed=0, candidate_limit=25, max_iterations=3)
    if name == "c17":
        kw = dict(num_vectors=400, seed=0, exhaustive=True)
    res = circuit_simplify(
        _build(name), rs_pct_threshold=10.0, config=GreedyConfig(**kw)
    )
    got = [(str(it.fault), it.area_after, it.metrics.er) for it in res.iterations]
    assert got == _TRAJECTORIES[name]
    assert [str(f) for f in res.faults] == [t[0] for t in _TRAJECTORIES[name]]
    assert res.final_metrics.er == _TRAJECTORIES[name][-1][2]
    if name == "c17":
        assert dumps_bench(res.simplified) == _C17_SIMPLIFIED


def test_simplify_outcome_identical_via_request():
    """The SimplifyRequest surface reaches the pinned c17 outcome."""
    out = SimplifyRequest(
        rs_pct_threshold=10.0, fom="area", num_vectors=400, seed=0,
        exhaustive=True,
    ).run(build_c17())
    assert [str(f) for f in out.faults] == ["G1 SA0"]
    assert dumps_bench(out.simplified) == _C17_SIMPLIFIED
    assert out.area_reduction == 3
    assert out.final_metrics.rs == 0.1875
    assert out.winning_fom == "area"
