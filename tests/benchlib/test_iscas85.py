"""The ISCAS85-like Table II suite: structure and profile checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.benchlib import ISCAS85_SUITE, control_pla, random_circuit
from repro.circuit import CircuitBuilder
from repro.faults import datapath_faults, enumerate_faults
from repro.simulation import LogicSimulator, random_vectors


@pytest.fixture(scope="module")
def suite():
    return {k: p.builder() for k, p in ISCAS85_SUITE.items()}


def test_suite_membership():
    assert set(ISCAS85_SUITE) == {"c880", "c1908", "c3540", "c5315", "c7552"}
    for prof in ISCAS85_SUITE.values():
        assert len(prof.rs_pct_sweep) == len(prof.paper_area_reduction_pct) == 4


def test_circuits_validate(suite):
    for ckt in suite.values():
        ckt.validate()


def test_areas_near_paper(suite):
    for key, ckt in suite.items():
        paper = ISCAS85_SUITE[key].paper_area
        assert 0.55 * paper <= ckt.area() <= 1.45 * paper, (key, ckt.area())


def test_datafault_profile(suite):
    measured = {}
    for key, ckt in suite.items():
        nf = len(enumerate_faults(ckt))
        nd = len(datapath_faults(ckt))
        measured[key] = 100.0 * nd / nf
    # c3540 must be far below everything else (sub-2 %)
    assert measured["c3540"] < 2.0
    # c880 has the richest datapath
    assert measured["c880"] == max(measured.values())
    # ordering of the remaining profiles mirrors the paper
    assert measured["c7552"] < measured["c5315"]


def test_data_outputs_weighted_exponentially(suite):
    for key, ckt in suite.items():
        weights = [ckt.output_weights[o] for o in ckt.data_outputs]
        # every data bus carries power-of-two weights spanning >= 8 bits
        assert all(w & (w - 1) == 0 for w in weights)
        assert max(weights) >= 1 << 8
        for o in ckt.control_outputs:
            assert ckt.output_weights[o] == 1


def test_c7552_weight_reaches_2_32(suite):
    weights = [suite["c7552"].output_weights[o] for o in suite["c7552"].data_outputs]
    assert max(weights) == 1 << 32


def test_c880_alu_adds(suite):
    ckt = suite["c880"]
    rng = np.random.default_rng(1)
    vecs = random_vectors(len(ckt.inputs), 300, rng)
    # force opcode = ADD (op one-hot index 0): op bits are inputs 16..18
    vecs[:, 16:19] = False
    res = LogicSimulator(ckt).run(vecs)
    data = res.output_bits(ckt.data_outputs)
    for k in range(30):
        a = sum(int(vecs[k, i]) << i for i in range(8))
        b = sum(int(vecs[k, 8 + i]) << i for i in range(8))
        got = sum(int(data[k, i]) << i for i in range(9))
        assert got == a + b


def test_c7552_adds(suite):
    ckt = suite["c7552"]
    rng = np.random.default_rng(2)
    vecs = random_vectors(len(ckt.inputs), 200, rng)
    res = LogicSimulator(ckt).run(vecs)
    data = res.output_bits(ckt.data_outputs)
    for k in range(20):
        a = sum(int(vecs[k, i]) << i for i in range(32))
        b = sum(int(vecs[k, 32 + i]) << i for i in range(32))
        got = sum(int(data[k, i]) << i for i in range(33))
        assert got == a + b


def test_determinism():
    a = ISCAS85_SUITE["c880"].builder()
    b = ISCAS85_SUITE["c880"].builder()
    assert a.area() == b.area()
    assert list(a.gates) == list(b.gates)


def test_control_pla_deterministic_and_sized():
    b1 = CircuitBuilder("p1")
    ins1 = b1.input_bus("d", 6)
    outs1 = control_pla(b1, ins1, terms=20, outputs=4, seed=9)
    b2 = CircuitBuilder("p2")
    ins2 = b2.input_bus("d", 6)
    outs2 = control_pla(b2, ins2, terms=20, outputs=4, seed=9)
    assert len(outs1) == 4
    for o in outs1:
        b1.output(o)
    for o in outs2:
        b2.output(o)
    c1, c2 = b1.build(), b2.build()
    assert c1.area() == c2.area()


def test_random_circuit_reproducible():
    a = random_circuit(5, 20, np.random.default_rng(4))
    b = random_circuit(5, 20, np.random.default_rng(4))
    assert list(a.gates) == list(b.gates)
    assert a.outputs == b.outputs


_FINGERPRINTS = """
import json
from repro.benchlib import ISCAS85_SUITE
from repro.simulation import circuit_fingerprint
print(json.dumps({k: circuit_fingerprint(p.builder()) for k, p in ISCAS85_SUITE.items()}))
"""


def test_suite_netlists_independent_of_hash_seed():
    """Gate names and order do not depend on string hashing."""
    src = str(Path(repro.__file__).resolve().parents[1])

    def fingerprints(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _FINGERPRINTS], env=env,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    assert fingerprints("1") == fingerprints("2")
