"""Property-based tests for the compiled whole-netlist kernel.

Random netlists x random vector sets: the struct-of-arrays program
must match gate-by-gate python evaluation bit-for-bit for every
opcode, fanout shape and word count -- one word, a ragged two-word
tail, and wide (>64-way) batches -- plus the structural edge cases
(constant gates, single-gate cones, dangling dead logic) and the
content-keyed program cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchlib import random_circuit
from repro.circuit import CircuitBuilder, GateType, evaluate
from repro.faults import StuckAtFault, enumerate_faults
from repro.obs import Instrumentation
from repro.simulation import (
    CompiledSimulator,
    LogicSimulator,
    circuit_fingerprint,
    compile_program,
    exhaustive_vectors,
    random_vectors,
)

ALL_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)


def naive_eval(circuit, vector):
    """Reference interpreter: one vector, python ints."""
    values = {pi: int(v) for pi, v in zip(circuit.inputs, vector)}
    for name in circuit.topological_order():
        g = circuit.gates[name]
        values[name] = evaluate(g.gtype, [values[s] for s in g.inputs])
    return values


def _assert_matches_naive(circuit, vectors, *, spot=()):
    sim = CompiledSimulator(circuit)
    res = sim.run(vectors)
    checks = spot or range(vectors.shape[0])
    for k in checks:
        ref = naive_eval(circuit, vectors[k])
        for s in circuit.signals():
            assert bool(res.values_for(s)[k]) == bool(ref[s]), (s, k)


# ----------------------------------------------------------------------
# random netlists x random vectors
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_compiled_matches_naive_random(seed):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(2, 7)),
        num_gates=int(rng.integers(3, 30)),
        max_fanin=int(rng.integers(2, 5)),
        gate_types=ALL_TYPES,
        rng=rng,
    )
    vecs = random_vectors(len(ckt.inputs), 130, rng)
    _assert_matches_naive(ckt, vecs, spot=(0, 1, 63, 64, 65, 129))


@pytest.mark.parametrize("num_vectors", [1, 5, 64, 100, 1000])
def test_word_counts(num_vectors):
    """1 vector, partial word, exact word, 2 ragged words, >64-way."""
    rng = np.random.default_rng(3)
    ckt = random_circuit(num_inputs=5, num_gates=20, rng=rng,
                         gate_types=ALL_TYPES)
    vecs = random_vectors(5, num_vectors, rng)
    py = LogicSimulator(ckt).run(vecs)
    cm = CompiledSimulator(ckt).run(vecs)
    for s in ckt.signals():
        assert np.array_equal(py.words_for(s), cm.words_for(s)), s
        assert np.array_equal(py.values_for(s), cm.values_for(s)), s


@pytest.mark.parametrize("gtype", ALL_TYPES)
def test_every_opcode_all_fanins(gtype):
    """Each opcode alone, at every legal fanin, against truth tables."""
    fanins = (1,) if gtype in (GateType.NOT, GateType.BUF) else (2, 3, 4)
    for fanin in fanins:
        b = CircuitBuilder(f"{gtype.value.lower()}{fanin}")
        ins = [b.input(f"i{k}") for k in range(fanin)]
        b.output(b.gate(gtype, ins, name="g"))
        ckt = b.build()
        vecs = exhaustive_vectors(fanin)
        _assert_matches_naive(ckt, vecs)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fault_injection_matches_python_random(seed):
    """Stem + branch overlays on random circuits match LogicSimulator."""
    rng = np.random.default_rng(seed)
    ckt = random_circuit(num_inputs=5, num_gates=15, rng=rng,
                         gate_types=ALL_TYPES)
    vecs = random_vectors(5, 100, rng)
    py = LogicSimulator(ckt)
    cm = CompiledSimulator(ckt)
    faults = enumerate_faults(ckt, include_branches=True)
    for f in faults[:: max(1, len(faults) // 20)]:
        a = py.run(vecs, [f])
        b = cm.run(vecs, [f])
        for s in ckt.signals():
            assert np.array_equal(a.words_for(s), b.words_for(s)), (f, s)


# ----------------------------------------------------------------------
# structural edge cases
# ----------------------------------------------------------------------

def test_constant_gates():
    b = CircuitBuilder("consts")
    a = b.input("a")
    z = b.const(0)
    o = b.const(1)
    b.output(b.AND(a, o))
    b.output(b.OR(a, z))
    b.output(b.XOR(z, o))
    ckt = b.build()
    _assert_matches_naive(ckt, exhaustive_vectors(1))


def test_single_gate_cone():
    """Smallest possible program: one gate, one level."""
    b = CircuitBuilder("tiny")
    x, y = b.input("x"), b.input("y")
    b.output(b.NAND(x, y))
    ckt = b.build()
    _assert_matches_naive(ckt, exhaustive_vectors(2))
    # ... and a single NOT (the arity-1 lowering path)
    b = CircuitBuilder("inv")
    b.output(b.NOT(b.input("x")))
    _assert_matches_naive(b.build(), exhaustive_vectors(1))


def test_dangling_dead_logic():
    """Gates outside every output cone still evaluate correctly."""
    b = CircuitBuilder("dangling")
    x, y = b.input("x"), b.input("y")
    b.output(b.AND(x, y))
    dead = b.XOR(x, y, name="dead")  # no consumer, not an output
    b.NOT(dead, name="deader")
    ckt = b.build()
    vecs = exhaustive_vectors(2)
    res = CompiledSimulator(ckt).run(vecs)
    ref = LogicSimulator(ckt).run(vecs)
    for s in ("dead", "deader", *ckt.outputs):
        assert np.array_equal(res.words_for(s), ref.words_for(s)), s


def test_input_shape_validated():
    ckt = random_circuit(num_inputs=4, num_gates=6,
                         rng=np.random.default_rng(0))
    sim = CompiledSimulator(ckt)
    with pytest.raises(ValueError):
        sim.run(np.zeros((4, 3), dtype=bool))


# ----------------------------------------------------------------------
# program cache
# ----------------------------------------------------------------------

def test_fingerprint_is_structural():
    """Same structure -> same program; output weights don't matter."""
    def build(weight):
        b = CircuitBuilder("fp")
        x, y = b.input("x"), b.input("y")
        b.output(b.NAND(x, y), weight=weight)
        return b.build()

    assert circuit_fingerprint(build(1)) == circuit_fingerprint(build(4))
    b = CircuitBuilder("fp")
    x, y = b.input("x"), b.input("y")
    b.output(b.NOR(x, y))
    assert circuit_fingerprint(build(1)) != circuit_fingerprint(b.build())


def test_program_cache_shared_across_instances():
    rng = np.random.default_rng(21)
    ckt = random_circuit(num_inputs=4, num_gates=10, rng=rng)
    obs = Instrumentation()
    compile_program(ckt, obs=obs)
    compile_program(ckt, obs=obs)  # same object -> hit
    # a structurally identical rebuild also hits (content keyed)
    sim = CompiledSimulator(ckt, obs=obs)
    counters = obs.snapshot()["counters"]
    assert counters.get("compile.cache_hits", 0) >= 2
    assert sim.num_signals == len(list(ckt.signals()))


# ----------------------------------------------------------------------
# program-cache bound and eviction accounting
# ----------------------------------------------------------------------
def test_program_cache_bounds_entries_and_counts_evictions(monkeypatch):
    from repro.simulation import compiled as mod

    monkeypatch.setattr(mod, "_PROGRAM_CACHE_MAX", 2)
    monkeypatch.setattr(mod, "_PROGRAM_CACHE", type(mod._PROGRAM_CACHE)())
    obs = Instrumentation()
    rng = np.random.default_rng(5)
    for _ in range(4):  # 4 distinct circuits through a 2-entry cache
        compile_program(random_circuit(num_inputs=4, num_gates=8, rng=rng),
                        obs=obs)
    assert len(mod._PROGRAM_CACHE) == 2
    counters = obs.snapshot()["counters"]
    assert counters["compile.cache_misses"] == 4
    assert counters["compile.cache_evictions"] == 2


def test_program_cache_env_default_and_blank(monkeypatch):
    """The bound is the constant 64 whether the retired
    REPRO_PROGRAM_CACHE setting is unset, blank or a valid size."""
    from repro.simulation import compiled as mod

    ckt = random_circuit(num_inputs=3, num_gates=5,
                         rng=np.random.default_rng(9))
    monkeypatch.delenv("REPRO_PROGRAM_CACHE", raising=False)
    assert mod._PROGRAM_CACHE_MAX == 64
    assert not hasattr(mod, "_program_cache_max")
    for stale in ("  ", "128"):
        monkeypatch.setenv("REPRO_PROGRAM_CACHE", stale)
        assert compile_program(ckt).num_inputs == 3
        assert mod._PROGRAM_CACHE_MAX == 64


@pytest.mark.parametrize("bad", ["0", "-3", "many", "1.5"])
def test_program_cache_env_rejects_non_positive(monkeypatch, bad):
    """A stale malformed REPRO_PROGRAM_CACHE value is not adopted: it
    neither raises at compile time nor moves the bound off 64."""
    from repro.simulation import compiled as mod

    monkeypatch.setenv("REPRO_PROGRAM_CACHE", bad)
    monkeypatch.setattr(mod, "_PROGRAM_CACHE", type(mod._PROGRAM_CACHE)())
    rng = np.random.default_rng(9)
    for _ in range(3):
        compile_program(random_circuit(num_inputs=3, num_gates=5, rng=rng))
    assert mod._PROGRAM_CACHE_MAX == 64
    assert len(mod._PROGRAM_CACHE) == 3


# ----------------------------------------------------------------------
# per-pass kernel attribution counters
# ----------------------------------------------------------------------
def test_pass_counters_attribute_every_run():
    rng = np.random.default_rng(11)
    ckt = random_circuit(num_inputs=5, num_gates=20, rng=rng)
    obs = Instrumentation()
    sim = CompiledSimulator(ckt, obs=obs)
    vectors = random_vectors(len(ckt.inputs), 130, rng)  # 3 packed words
    sim.run(vectors)
    counters = obs.snapshot()["counters"]
    program = compile_program(ckt)
    expected_passes = sum(
        amount for name, amount, by_words in program.pass_counters
        if name == "kernel.pass.executions"
    )
    assert counters["kernel.pass.executions"] == expected_passes
    # word-scaled counters multiply by the packed word count
    per_word = sum(
        amount for name, amount, by_words in program.pass_counters
        if name == "kernel.pass.words_moved"
    )
    assert counters["kernel.pass.words_moved"] == per_word * 3
    # per-core entries sum to the aggregates
    core_rows = sum(
        counters.get(f"kernel.pass.{core}.rows_touched", 0)
        for core in ("and", "or", "xor")
    )
    assert core_rows * 3 == counters["kernel.pass.rows_touched"] * 3
    sim.run(vectors)  # a second run doubles every pass counter
    counters2 = obs.snapshot()["counters"]
    assert counters2["kernel.pass.executions"] == 2 * expected_passes


def test_pass_table_mirrors_pass_counters():
    rng = np.random.default_rng(13)
    ckt = random_circuit(num_inputs=4, num_gates=12, rng=rng)
    program = compile_program(ckt)
    table = program.pass_table()
    assert table, "a nontrivial circuit lowers to at least one pass"
    for row in table:
        assert row["core"] in ("and", "or", "xor")
        assert row["gates"] >= 1
        assert row["words_per_batch_word"] == (row["arity"] + 1) * row["gates"]
    total_passes = sum(1 for _ in table)
    counters_passes = sum(
        amount for name, amount, _w in program.pass_counters
        if name == "kernel.pass.executions"
    )
    assert counters_passes == total_passes
