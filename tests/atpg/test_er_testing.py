"""Error-rate test generation (ERTG-style flow)."""

import numpy as np
import pytest

from repro.atpg import estimate_fault_er, generate_er_tests
from repro.faults import StuckAtFault, enumerate_faults
from repro.simulation import (
    FaultSimulator,
    LogicSimulator,
    exhaustive_vectors,
    random_vectors,
)


def test_er_estimates_match_exhaustive(adder4):
    est = estimate_fault_er(adder4, num_vectors=4096, seed=1)
    fsim = FaultSimulator(adder4)
    for f in [
        StuckAtFault.stem(adder4.outputs[0], 0),
        StuckAtFault.stem(adder4.outputs[4], 1),
    ]:
        exact = fsim.estimate([f], exhaustive=True).error_rate
        assert est[f] == pytest.approx(exact, abs=0.05)


def test_generated_tests_detect_all_targets(c17):
    ts = generate_er_tests(c17, er_threshold=0.1, num_candidates=512, seed=2)
    assert ts.targets
    assert ts.coverage == 1.0
    # every target fault is detected by at least one chosen vector
    sim = LogicSimulator(c17)
    good = sim.run(ts.vectors).output_bits()
    for f in ts.targets:
        faulty = sim.run(ts.vectors, [f]).output_bits()
        assert (good != faulty).any(), f


def test_low_er_faults_left_untested(adder4):
    # a high threshold leaves almost everything untested
    ts = generate_er_tests(adder4, er_threshold=0.9, num_candidates=512, seed=3)
    assert len(ts.targets) < len(enumerate_faults(adder4)) / 4
    assert ts.skipped_faults > 0


def test_test_set_is_compact(c17):
    ts = generate_er_tests(c17, er_threshold=0.0, num_candidates=512, seed=4)
    # full single-stuck coverage of c17 needs only a handful of vectors
    assert 1 <= ts.num_tests <= 10
    assert ts.coverage == 1.0


def test_max_tests_cap(c17):
    ts = generate_er_tests(c17, er_threshold=0.0, num_candidates=512, seed=5, max_tests=1)
    assert ts.num_tests == 1
    assert ts.covered < len(ts.targets)  # one vector cannot cover c17 alone


def test_threshold_validation(c17):
    with pytest.raises(ValueError):
        generate_er_tests(c17, er_threshold=1.0)


def test_threshold_monotone_targets(adder4):
    sizes = []
    for thr in (0.0, 0.2, 0.5):
        ts = generate_er_tests(adder4, er_threshold=thr, num_candidates=512, seed=6)
        sizes.append(len(ts.targets))
    assert sizes[0] >= sizes[1] >= sizes[2]


def test_er_ignores_padding_bits(adder4):
    """At a vector count that is not a multiple of 64, every fault's ER
    matches the differential simulator's (padding bits are not
    detections)."""
    n = 100
    vecs = random_vectors(len(adder4.inputs), n, np.random.default_rng(0))
    fsim = FaultSimulator(adder4)
    est = estimate_fault_er(adder4, num_vectors=n, seed=0)
    ts = generate_er_tests(adder4, er_threshold=0.0, num_candidates=n, seed=0,
                           collapse=False)
    for f in enumerate_faults(adder4):
        truth = fsim.differential(vecs, [f]).error_rate
        assert est[f] == truth, f
        assert ts.fault_er[f] == truth, f
