"""The one-pass batch evaluation against the chunk-loop oracle.

``BatchFaultSimulator`` replays each fault's cone once over the whole
batch and applies the early-drop rule afterwards, on prefix sums of the
per-chunk detection counts and deviations.  The oracle below is the
straightforward form of the same rule: it walks the batch chunk by
chunk, re-simulating the cone and recomputing detection and deviation
on every chunk, and stops at the first chunk boundary where
``ER * max|deviation|`` exceeds the threshold.  Both must report the
same statistics, the same drop decision at the same word, and the same
``batchsim.*`` work counters.

The batch is bound to a *different* reference netlist, so the baseline
deviation is non-zero and the per-vector deviation correction matters.
"""

from typing import Optional

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.benchlib import random_circuit
from repro.circuit.gates import ALL_ONES
from repro.faults import enumerate_faults
from repro.obs import Instrumentation
from repro.simulation import BatchFaultSimulator, CompiledSimulator, random_vectors
from repro.simulation.compiled import eval_core_group
from repro.simulation.logicsim import _eval_into
from repro.simulation.vectors import pack_vectors, popcount_words, unpack_vectors

_COUNTERS = (
    "batchsim.faults_dropped",
    "batchsim.words_skipped",
    "batchsim.words_simulated",
)


# ----------------------------------------------------------------------
# reference oracle: the chunk loop, re-simulating the cone per chunk
# ----------------------------------------------------------------------
def _chunk_deviation(bsim, plan, sl, r0, r1):
    nrows = r1 - r0
    if not bsim._float_ok:
        delta = bsim._base_delta[r0:r1].copy()
        if plan.val_idx.size:
            new_bits = unpack_vectors(bsim._work[plan.val_rows, sl], nrows)
            delta[:, plan.val_idx] = (
                new_bits.astype(np.int8)
                - bsim._ref_val_bits[r0:r1][:, plan.val_idx]
            )
        mags = [
            abs(int(sum(w * int(d) for w, d in zip(bsim.weights, row) if d)))
            for row in delta
        ]
        return max(mags), sum(mags)
    if plan.val_idx.size == 0:
        dev = bsim._base_dev[r0:r1]
    else:
        new_bits = unpack_vectors(bsim._work[plan.val_rows, sl], nrows).astype(np.int8)
        delta_new = new_bits - bsim._ref_val_bits[r0:r1][:, plan.val_idx]
        adj = (
            delta_new - bsim._base_delta[r0:r1][:, plan.val_idx]
        ).astype(np.float64) @ bsim._wvec[plan.val_idx]
        dev = bsim._base_dev[r0:r1] + adj
    abs_dev = np.abs(dev)
    return int(abs_dev.max()), int(abs_dev.sum())


def chunked_evaluate_one(
    bsim: BatchFaultSimulator,
    fault,
    rs_drop_threshold: Optional[float],
    chunk_words: Optional[int],
    obs: Instrumentation,
):
    """(detected, max_dev, sum_dev, dropped, words) by the chunk loop."""
    w, n = bsim._w, bsim._n
    if chunk_words is None:
        chunk_words = w if rs_drop_threshold is None else max(8, -(-w // 8))
    chunk_words = max(1, int(chunk_words))
    line = fault.line
    forced_row = override = None
    if line.is_stem:
        forced_row = bsim.sim.index_of(line.signal)
    else:
        override = (bsim.sim.index_of(line.gate), line.pin)
    plan = bsim._plan_for_line(line)
    word = ALL_ONES if fault.value else np.uint64(0)
    other_diff = [p for p in bsim._dirty if p not in plan.obs_set]
    work, base, tail, ref = bsim._work, bsim._base, bsim._tail, bsim._ref_out

    detected = max_dev = sum_dev = words_done = 0
    lo = 0
    while lo < w:
        hi = min(w, lo + chunk_words)
        sl = slice(lo, hi)
        wlen = hi - lo
        if forced_row is not None:
            work[forced_row, sl] = word
        if plan.first is not None:
            gtype, out_idx, in_idx = plan.first
            operands = [
                np.full(wlen, word, dtype=np.uint64)
                if pin == override[1]
                else work[idx, sl]
                for pin, idx in enumerate(in_idx)
            ]
            _eval_into(gtype, operands, work[out_idx, sl], wlen)
        for entry in plan.groups:
            if len(entry) == 4:
                eval_core_group(entry[0], entry[1], entry[2], entry[3], work, sl)
                continue
            gtype, out_idx, in_idx = entry
            _eval_into(gtype, [work[idx, sl] for idx in in_idx], work[out_idx, sl], wlen)

        detect = np.zeros(wlen, dtype=np.uint64)
        if plan.obs_pos.size:
            detect |= np.bitwise_or.reduce(
                ref[plan.obs_pos, sl] ^ work[plan.obs_rows, sl], axis=0
            )
        for p in other_diff:
            detect |= bsim._base_diff[p, sl]
        detected += popcount_words(detect & tail[sl])

        chunk_max, chunk_sum = _chunk_deviation(bsim, plan, sl, lo * 64, min(n, hi * 64))
        max_dev = max(max_dev, chunk_max)
        sum_dev += chunk_sum
        words_done = lo = hi
        if rs_drop_threshold is not None and (detected / n) * max_dev > rs_drop_threshold:
            break
    work[plan.rows] = base[plan.rows]

    obs.incr("batchsim.words_simulated", words_done)
    if words_done < w:
        obs.incr("batchsim.faults_dropped")
        obs.incr("batchsim.words_skipped", w - words_done)
    return detected, max_dev, sum_dev, words_done < w, words_done


# ----------------------------------------------------------------------
# property: one full-width pass + prefix replay == the chunk loop
# ----------------------------------------------------------------------
def _bound_pair(seed, num_vectors, big_weights):
    """A host netlist with its batch bound to another netlist's outputs."""
    rng = np.random.default_rng(seed)
    host = random_circuit(num_inputs=7, num_gates=28, rng=rng, num_outputs=5)
    ref = random_circuit(num_inputs=7, num_gates=24, rng=rng, num_outputs=5)
    assume(len(host.outputs) == len(ref.outputs))
    vectors = random_vectors(7, num_vectors, rng)
    packed = pack_vectors(vectors)
    good = CompiledSimulator(ref).run_packed(packed, num_vectors)
    weights = None
    if big_weights:  # beyond float64's exact-integer range
        weights = [(1 << (60 + i)) + i for i in range(len(host.outputs))]
    obs = Instrumentation()
    bsim = BatchFaultSimulator(host, weights=weights, obs=obs)
    bsim.load_batch(
        packed=packed,
        num_vectors=num_vectors,
        reference_outputs=np.stack([good.words_for(o) for o in ref.outputs]),
        reference_value_bits=good.output_bits(ref.outputs),
    )
    assume(bsim._base_delta.any())  # a non-zero baseline deviation
    return host, bsim, obs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_vectors=st.integers(1, 700),
    chunk=st.sampled_from([1, 3, 8, "w", None]),
    rs_frac=st.sampled_from([None, -1.0, 0.0, 1e-3, 0.02, 0.1, 0.3, 1.0]),
    big_weights=st.booleans(),
)
def test_one_pass_matches_chunk_loop(seed, num_vectors, chunk, rs_frac, big_weights):
    host, bsim, obs = _bound_pair(seed, num_vectors, big_weights)
    chunk_words = bsim._w if chunk == "w" else chunk
    threshold = None if rs_frac is None else rs_frac * sum(bsim.weights)
    faults = enumerate_faults(host, include_branches=True)

    got = bsim.evaluate(faults, rs_drop_threshold=threshold, chunk_words=chunk_words)
    oracle_obs = Instrumentation()
    for fault, stats in zip(faults, got):
        expected = chunked_evaluate_one(bsim, fault, threshold, chunk_words, oracle_obs)
        assert (
            stats.detected_count,
            stats.max_abs_deviation,
            stats.sum_abs_deviation,
            stats.dropped,
            stats.words_simulated,
        ) == expected, fault
    for name in _COUNTERS:
        assert obs.counters.get(name, 0) == oracle_obs.counters.get(name, 0), name
