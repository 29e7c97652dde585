"""Exact ES path vs. an exhaustive per-gate reference simulation.

``EsAtpg.exact_max_deviation`` runs on the compiled kernel, as does
``FaultSimulator``, so the ground truth here comes from
``LogicSimulator``: good and faulty machines simulated gate by gate
over every input vector.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.atpg import EsAtpg
from repro.benchlib import random_circuit
from repro.faults import enumerate_faults
from repro.simulation import LogicSimulator, exhaustive_vectors


def reference_max_deviation(good, faulty, faults):
    """max |sum_o w_o * (faulty_o - good_o)| over all input vectors."""
    vecs = exhaustive_vectors(len(good.inputs))
    g = LogicSimulator(good).run(vecs)
    f = LogicSimulator(faulty).run(vecs, faults)
    pair = dict(zip(good.outputs, faulty.outputs))
    dev = np.zeros(len(vecs), dtype=np.int64)
    for o in good.data_outputs or good.outputs:
        w = int(good.output_weights.get(o, 1))
        dev += w * (f.values_for(pair[o]).astype(np.int64)
                    - g.values_for(o).astype(np.int64))
    return int(np.abs(dev).max())


def _circuit(rng, num_inputs, num_outputs=None):
    return random_circuit(
        num_inputs=num_inputs,
        num_gates=int(rng.integers(4, 24)),
        rng=rng,
        num_outputs=num_outputs,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fault_mode_matches_reference(seed):
    rng = np.random.default_rng(seed)
    ckt = _circuit(rng, int(rng.integers(2, 8)))
    faults = enumerate_faults(ckt)
    pick = [faults[int(i)] for i in rng.permutation(len(faults))[:int(rng.integers(1, 4))]]
    seen = set()
    pick = [f for f in pick if not (f.line in seen or seen.add(f.line))]
    exact = EsAtpg(ckt, faults=pick).exact_max_deviation(chunk_vectors=64)
    assert exact == reference_max_deviation(ckt, ckt, pick)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_two_netlist_mode_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(2, 8))
    n_out = int(rng.integers(1, 4))
    good = _circuit(rng, n_in, n_out)
    other = _circuit(rng, n_in, n_out)
    exact = EsAtpg(good, faulty=other).exact_max_deviation(chunk_vectors=64)
    assert exact == reference_max_deviation(good, other, ())
