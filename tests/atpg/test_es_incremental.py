"""The incremental ES branch-&-bound against a full re-simulation oracle.

``EsAtpg`` implies each PI assignment through its fanout only and undoes
it from a trail.  The oracle below is the straightforward form of the
same search: it re-simulates both machines from scratch, with dicts, at
every node.  Both must build the same search tree, so every query must
return the same status, node count, vector and deviation.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import EsAtpg, EsStatus
from repro.atpg.es_atpg import _X, _eval3
from repro.benchlib import build_adder_circuit, random_circuit
from repro.circuit.structure import transitive_fanin
from repro.faults import StuckAtFault, enumerate_faults
from repro.obs import Instrumentation, load_journal
from repro.simplify import simplify_with_faults
from repro.simulation import LogicSimulator


# ----------------------------------------------------------------------
# reference oracle: full dict-based dual simulation at every node
# ----------------------------------------------------------------------
def _schedules(atpg):
    pair = dict(zip(atpg.good.outputs, atpg.faulty.outputs))
    relevant_good, relevant_faulty = set(), set()
    for o in atpg.affected_outputs:
        relevant_good |= transitive_fanin(atpg.good, o, include_self=True)
        relevant_faulty |= transitive_fanin(atpg.faulty, pair[o], include_self=True)
    for f in atpg.faults:
        relevant_faulty |= transitive_fanin(atpg.faulty, f.line.signal, include_self=True)
    good_schedule = [n for n in atpg.good.topological_order() if n in relevant_good]
    faulty_schedule = [n for n in atpg.faulty.topological_order() if n in relevant_faulty]
    return pair, good_schedule, faulty_schedule


def _simulate(atpg, good_schedule, faulty_schedule, assign):
    stem = {f.line.signal: f.value for f in atpg.faults if f.line.is_stem}
    branch = {(f.line.gate, f.line.pin): f.value for f in atpg.faults if f.line.is_branch}
    good, faulty = {}, {}
    for pi in atpg.good.inputs:
        v = assign.get(pi, _X)
        good[pi] = v
        faulty[pi] = stem.get(pi, v)
    for name in good_schedule:
        g = atpg.good.gates[name]
        good[name] = _eval3(g.gtype, [good[s] for s in g.inputs])
    for name in faulty_schedule:
        g = atpg.faulty.gates[name]
        fins = []
        for pin, src in enumerate(g.inputs):
            ov = branch.get((name, pin))
            fins.append(ov if ov is not None else faulty[src])
        fvv = _eval3(g.gtype, fins)
        sf = stem.get(name)
        faulty[name] = sf if sf is not None else fvv
    return good, faulty


def _bounds(atpg, pair, good, faulty):
    dmin = dmax = 0
    for o in atpg.affected_outputs:
        w = atpg.weights[o]
        g, f = good[o], faulty[pair[o]]
        if g != _X and f != _X:
            dmin += w * (f - g)
            dmax += w * (f - g)
        elif g != _X:
            dmin += w * (0 - g)
            dmax += w * (1 - g)
        elif f != _X:
            dmin += w * (f - 1)
            dmax += w * f
        else:
            dmin -= w
            dmax += w
    return dmin, dmax


def _pi_order(atpg, pair):
    score = {pi: 0 for pi in atpg.support}
    for o in atpg.affected_outputs:
        cone = transitive_fanin(atpg.good, o, include_self=True)
        cone |= transitive_fanin(atpg.faulty, pair[o], include_self=True)
        for pi in atpg.support:
            if pi in cone:
                score[pi] += atpg.weights[o]
    return sorted(atpg.support, key=lambda p: -score[p])


def reference_test_exists(atpg, threshold, node_limit):
    """``(status, nodes, vector, deviation)`` of the re-simulating search."""
    if not atpg.affected_outputs or atpg.max_weight_sum < threshold:
        return EsStatus.UNSAT, 0, None, None
    pair, good_schedule, faulty_schedule = _schedules(atpg)
    pi_rank = _pi_order(atpg, pair)
    assign = {}
    nodes = 0

    def complete_vector():
        return {pi: assign.get(pi, 0) for pi in atpg.good.inputs}

    def search():
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            return EsStatus.ABORTED, None, None
        good, faulty = _simulate(atpg, good_schedule, faulty_schedule, assign)
        dmin, dmax = _bounds(atpg, pair, good, faulty)
        if max(abs(dmin), abs(dmax)) < threshold:
            return None
        if dmin >= threshold or dmax <= -threshold:
            return EsStatus.SAT, complete_vector(), dmin if dmin >= threshold else dmax
        pi = next((p for p in pi_rank if p not in assign), None)
        if pi is None:
            if abs(dmin) >= threshold:
                return EsStatus.SAT, complete_vector(), dmin
            return None
        for value in (1, 0):
            assign[pi] = value
            res = search()
            del assign[pi]
            if res is not None:
                return res
        return None

    res = search()
    if res is None:
        return EsStatus.UNSAT, nodes, None, None
    status, vector, deviation = res
    return status, nodes, vector, deviation


def _outcome(res):
    return res.status, res.nodes, res.vector, res.deviation


def _witness_deviation(atpg, vector):
    """Weighted faulty-minus-good value of one vector, by logic simulation."""
    vec = np.array([[vector[pi] for pi in atpg.good.inputs]], dtype=bool)
    good = LogicSimulator(atpg.good).run(vec)
    faulty = LogicSimulator(atpg.faulty).run(vec, atpg.faults)
    pair = dict(zip(atpg.good.outputs, atpg.faulty.outputs))
    dev = 0
    for o in atpg.value_outputs:
        w = atpg.weights[o]
        dev += w * (int(faulty.values_for(pair[o])[0]) - int(good.values_for(o)[0]))
    return dev


# ----------------------------------------------------------------------
# property: identical search trees on random netlists and fault sets
# ----------------------------------------------------------------------
def _random_faults(ckt, rng, k):
    """Up to ``k`` faults on distinct lines, always including one on a
    primary input and one on a primary output."""
    faults = enumerate_faults(ckt)
    picks = [faults[int(i)] for i in rng.permutation(len(faults))[:k]]
    picks.append(StuckAtFault.stem(ckt.inputs[int(rng.integers(len(ckt.inputs)))],
                                   int(rng.integers(2))))
    picks.append(StuckAtFault.stem(ckt.outputs[int(rng.integers(len(ckt.outputs)))],
                                   int(rng.integers(2))))
    seen = set()
    return [f for f in picks if not (f.line in seen or seen.add(f.line))]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), two_circuit=st.booleans())
def test_incremental_search_matches_reference(seed, two_circuit):
    rng = np.random.default_rng(seed)
    ckt = random_circuit(
        num_inputs=int(rng.integers(3, 10)),
        num_gates=int(rng.integers(4, 40)),
        rng=rng,
    )
    if two_circuit:
        faulty = simplify_with_faults(ckt, _random_faults(ckt, rng, 2))
        faults = _random_faults(faulty, rng, int(rng.integers(0, 3)))
    else:
        faulty = None
        faults = _random_faults(ckt, rng, int(rng.integers(1, 4)))
    for node_limit in (10**6, int(rng.integers(1, 12))):
        atpg = EsAtpg(ckt, faulty=faulty, faults=faults, node_limit=node_limit)
        top = max(1, atpg.max_weight_sum)
        for threshold in sorted({1, 2, top // 2 + 1, top, top + 1} - {0}):
            res = atpg.test_exists(threshold)
            assert _outcome(res) == reference_test_exists(atpg, threshold, node_limit)
            if res.status is EsStatus.SAT:
                assert abs(_witness_deviation(atpg, res.vector)) >= threshold


# ----------------------------------------------------------------------
# the trail restores the empty-assignment state after every query
# ----------------------------------------------------------------------
def test_trail_leaves_no_state_behind():
    adder = build_adder_circuit(5)
    carry = [n for n in adder.gates if adder.gates[n].gtype.name == "OR"][2]
    faults = [StuckAtFault.stem(carry, 1), StuckAtFault.stem(adder.inputs[3], 0)]
    true_es = EsAtpg(adder, faults=faults).exact_max_deviation()

    def fresh(threshold, node_limit):
        return EsAtpg(adder, faults=faults, node_limit=node_limit).test_exists(threshold)

    untouched = EsAtpg(adder, faults=faults)
    untouched._lower()
    atpg = EsAtpg(adder, faults=faults)
    queries = [
        (true_es, 10**6, EsStatus.SAT),  # early exit deep in the tree
        (true_es + 1, 40, EsStatus.ABORTED),  # exit at the node limit
        (true_es + 1, 10**6, EsStatus.UNSAT),  # the whole tree, unwound
    ]
    for threshold, node_limit, status in queries:
        atpg.node_limit = node_limit
        res = atpg.test_exists(threshold)
        assert res.status is status
        assert _outcome(res) == _outcome(fresh(threshold, node_limit))
        assert atpg._vals == untouched._vals


# ----------------------------------------------------------------------
# es_atpg.gate_evals
# ----------------------------------------------------------------------
def test_gate_evals_counted_once_per_query():
    adder = build_adder_circuit(8)
    obs = Instrumentation()
    atpg = EsAtpg(adder, faults=[StuckAtFault.stem(adder.outputs[8], 1)], obs=obs)
    atpg.test_exists(1)
    first = obs.counters["es_atpg.gate_evals"]
    assert first > 0
    atpg.test_exists(1)
    assert obs.counters["es_atpg.gate_evals"] == 2 * first
    assert obs.counters["es_atpg.queries"] == 2


@pytest.mark.parametrize("golden", ["golden_c17_run_a.jsonl", "golden_c17_run_b.jsonl"])
def test_c17_golden_es_counters_unchanged(tmp_path, golden):
    """c17 never reaches the branch-&-bound, so its journaled ES-ATPG
    counters -- and the golden journals -- stay as they are."""
    from tests.conftest import build_c17
    from tests.obs.test_compare import GOLDEN_A

    from repro.simplify import GreedyConfig, circuit_simplify

    golden_path = GOLDEN_A.replace("golden_c17_run_a.jsonl", golden)
    fom = "area_per_rs" if golden.endswith("_a.jsonl") else "area"
    cfg = GreedyConfig(exhaustive=True, seed=0, candidate_limit=None,
                       datapath_only=False, redundancy_prepass=True, fom=fom)
    path = tmp_path / "c17.jsonl"
    circuit_simplify(build_c17(), rs_pct_threshold=30.0, config=cfg, journal=path)

    def es_counters(events):
        return [{k: v for k, v in ev.get("counters", {}).items() if k.startswith("es_atpg.")}
                for ev in events]

    got = es_counters(load_journal(path, strict=True))
    with open(golden_path, "r", encoding="utf-8") as fh:
        want = es_counters(json.loads(line) for line in fh if line.strip())
    assert got == want
    assert not any("es_atpg.gate_evals" in c for c in got)
