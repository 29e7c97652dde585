"""Fault-parallel batch fault simulation with cone-restricted
incremental propagation (PPSFP-style).

The full :class:`~repro.simulation.faultsim.FaultSimulator` walks the
entire gate schedule once per fault set, so the greedy loop's candidate
ranking -- many *single* faults, one shared vector batch -- costs
O(candidates x gates x words) even though each single fault only
perturbs its fanout cone.  :class:`BatchFaultSimulator` removes that
waste:

* the fault-free baseline is simulated **once per vector batch**;
* each candidate fault replays only the precomputed *cone schedule* of
  its line (the gates in the line's transitive fanout, in topological
  order, from :func:`repro.circuit.structure.fanout_cone_gates`),
  reading undisturbed signals straight from the baseline; the cone is
  lowered into level groups -- same-level gates sharing a bitwise core
  evaluate in a single padded, vectorized pass;
* only the primary outputs inside the cone are compared against the
  reference machine -- every other output is known to still match the
  baseline -- and only cone value-outputs enter the weighted-deviation
  update;
* each cone replays **once over the full batch width**; detection and
  the weighted deviation then come from a few whole-batch array passes;
* a fault can be **dropped**: with ``rs_drop_threshold`` set, the words
  form ``chunk_words``-sized chunks, and the fault is dropped at the
  first chunk boundary where the prefix detection count and deviation
  maximum already prove ``ER * ES > threshold`` (the fault is
  disqualified for ranking purposes no matter how the rest of the batch
  turns out).  The rule is replayed on per-chunk totals after the
  pass; as both prefixes only grow, a fault whose full-batch ``ER * ES``
  is within the threshold is never dropped and needs no replay.

The reference machine defaults to the simulated circuit's own baseline
(classical single-fault differential simulation).  The greedy loop
instead passes the *original* circuit's output words, so the per-fault
stats measure the cumulative deviation of (current simplified netlist +
candidate fault) against the original -- exactly what
:meth:`repro.metrics.estimate.MetricsEstimator.simulate` measures, at a
fraction of the cost.

Results are bit-identical to the full simulator (cross-validated in
``tests/simulation/test_batchfaultsim.py``).  Multi-fault *sets* are
deliberately out of scope: ER does not compose across interacting
faults (Section III.C), so overlay/commit decisions keep using the full
:class:`FaultSimulator` / :class:`MetricsEstimator` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..circuit.gates import ALL_ONES
from ..circuit.netlist import CircuitError
from ..circuit.structure import fanout_cone_gates
from ..faults.model import Line, StuckAtFault
from ..obs.core import Instrumentation, get_active
from .compiled import CompiledSimulator, eval_core_group, lower_entry, pack_group
from .logicsim import SimResult, _eval_into
from .vectors import pack_vectors, tail_mask, unpack_vectors, word_popcounts

__all__ = ["FaultBatchStats", "BatchFaultSimulator"]

_ALL_WORDS = slice(None)


@dataclass
class FaultBatchStats:
    """Per-fault outcome of one batch evaluation.

    Exposes the same ranking statistics as
    :class:`~repro.simulation.faultsim.DifferentialResult`
    (``error_rate`` / ``max_abs_deviation`` / ``mean_abs_deviation``).
    ``words_simulated`` is the number of leading vector words the
    statistics cover: the whole batch, or for a dropped fault the prefix
    at whose end the drop fired.  A dropped fault's statistics are
    therefore lower bounds -- already sufficient to disqualify it
    against the drop threshold.
    """

    fault: StuckAtFault
    num_vectors: int
    detected_count: int
    max_abs_deviation: int
    sum_abs_deviation: int
    dropped: bool = False
    words_simulated: int = 0
    detected: Optional[np.ndarray] = None
    deviations: Optional[List[int]] = None

    @property
    def error_rate(self) -> float:
        """Fraction of batch vectors with any output mismatch.

        A zero-vector batch has no estimate to give: the rate defaults
        to 0.0 and the ``quality.zero_pattern_estimates`` counter
        records that a caller consumed a vacuous estimate.
        """
        if self.num_vectors == 0:
            get_active().incr("quality.zero_pattern_estimates")
            return 0.0
        return self.detected_count / self.num_vectors

    def er_confidence(
        self, z: float = 1.96, exact: bool = False
    ) -> Tuple[float, float]:
        """Wilson-score confidence interval for :attr:`error_rate`.

        For a dropped fault the detection count covers only the
        ``words_simulated`` prefix, so the interval (like the rate) is
        a lower-bound view -- already enough to disqualify the fault.
        ``exact=True`` marks an exhaustive batch: zero-width interval.
        """
        from ..obs.quality import wilson_interval

        if self.num_vectors == 0:
            return (0.0, 1.0)
        if exact:
            return (self.error_rate, self.error_rate)
        return wilson_interval(self.detected_count, self.num_vectors, z=z)

    @property
    def mean_abs_deviation(self) -> float:
        """Average absolute weighted deviation across the batch."""
        if self.num_vectors == 0:
            return 0.0
        return self.sum_abs_deviation / self.num_vectors

    @property
    def rs(self) -> float:
        """Simulated RS estimate: ER times observed max deviation."""
        return self.error_rate * self.max_abs_deviation


class _ConePlan:
    """Precomputed replay schedule for one fault site.

    ``first`` is the faulted gate itself for branch faults (its pin
    override makes it the one gate that needs scalar evaluation);
    ``groups`` is the rest of the cone, level-grouped: gates on the same
    topological level never feed each other, so all gates of a level
    lowering to one bitwise core evaluate in a single padded pass.
    """

    __slots__ = (
        "first",
        "groups",
        "rows",
        "obs",
        "obs_set",
        "obs_pos",
        "obs_rows",
        "val_idx",
        "val_rows",
    )

    def __init__(
        self,
        first: Optional[Tuple],
        groups: Tuple[Tuple, ...],
        rows: np.ndarray,
        obs: Tuple[Tuple[int, int], ...],
        val_idx: np.ndarray,
        val_rows: np.ndarray,
    ) -> None:
        self.first = first
        self.groups = groups
        self.rows = rows
        self.obs = obs
        self.obs_set = frozenset(p for p, _r in obs)
        self.obs_pos = np.asarray([p for p, _r in obs], dtype=np.intp)
        self.obs_rows = np.asarray([r for _p, r in obs], dtype=np.intp)
        self.val_idx = val_idx
        self.val_rows = val_rows


class BatchFaultSimulator:
    """Cone-restricted single-fault batch simulator bound to one circuit.

    Parameters mirror :class:`FaultSimulator`: ``observe_outputs`` feed
    detection (default: all primary outputs), ``value_outputs`` define
    the weighted deviation (default: the data outputs, falling back to
    all outputs).  ``weights`` overrides the per-value-output weights
    (defaults to the circuit's own ``output_weights``); passing them
    explicitly lets :class:`~repro.metrics.estimate.MetricsEstimator`
    pair a simplified netlist's outputs positionally with the original's
    weights.

    The baseline runs through the whole-netlist compiled program, and
    cones replay as level-sliced core groups -- same-level gates of
    *any* type merge into at most three padded bitwise passes on the
    shared value matrix.
    """

    def __init__(
        self,
        circuit: Circuit,
        observe_outputs: Optional[Sequence[str]] = None,
        value_outputs: Optional[Sequence[str]] = None,
        weights: Optional[Sequence[int]] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.sim = CompiledSimulator(circuit, obs=self.obs)
        self.observe_outputs = tuple(observe_outputs or circuit.outputs)
        if value_outputs is not None:
            self.value_outputs = tuple(value_outputs)
        elif circuit.data_outputs:
            self.value_outputs = tuple(circuit.data_outputs)
        else:
            self.value_outputs = tuple(circuit.outputs)
        if weights is not None:
            if len(weights) != len(self.value_outputs):
                raise ValueError("weights must match value_outputs")
            self.weights = [int(w) for w in weights]
        else:
            self.weights = [
                int(circuit.output_weights.get(o, 1)) for o in self.value_outputs
            ]
        self._obs_rows = [self.sim.index_of(o) for o in self.observe_outputs]
        self._val_rows = np.asarray(
            [self.sim.index_of(o) for o in self.value_outputs], dtype=np.intp
        )
        self._plan_cache: Dict[Tuple[str, str], _ConePlan] = {}

        wmax = max((abs(w) for w in self.weights), default=1)
        self._float_ok = wmax * max(1, len(self.weights)) < (1 << 53)
        self._wvec = np.asarray(self.weights, dtype=np.float64)

        # batch state (populated by load_batch)
        self._base: Optional[np.ndarray] = None
        self._work: Optional[np.ndarray] = None
        self._good: Optional[SimResult] = None
        self._n = 0
        self._w = 0
        self._tail: Optional[np.ndarray] = None
        self._ref_out: Optional[np.ndarray] = None
        self._base_diff: Optional[np.ndarray] = None
        self._dirty: Tuple[int, ...] = ()
        self._ref_val_bits: Optional[np.ndarray] = None
        self._base_delta: Optional[np.ndarray] = None
        self._base_dev: Optional[np.ndarray] = None
        self._base_abs: Optional[np.ndarray] = None
        self._outside_detect: Dict[frozenset, np.ndarray] = {}

    # ------------------------------------------------------------------
    # batch binding
    # ------------------------------------------------------------------
    def load_batch(
        self,
        vectors: Optional[np.ndarray] = None,
        *,
        packed: Optional[np.ndarray] = None,
        num_vectors: Optional[int] = None,
        reference_outputs: Optional[np.ndarray] = None,
        reference_value_bits: Optional[np.ndarray] = None,
    ) -> SimResult:
        """Bind a vector batch: simulate the baseline once, precompute
        the reference comparison state.

        ``reference_outputs`` (packed words, one row per observe-output
        position) and ``reference_value_bits`` (bool matrix, vectors x
        value outputs) name the *good machine* the per-fault stats are
        measured against; both default to this circuit's own baseline.
        Returns the baseline :class:`SimResult`.
        """
        if packed is None:
            if vectors is None:
                raise ValueError("give either vectors or packed+num_vectors")
            vecs = np.asarray(vectors, dtype=bool)
            packed = pack_vectors(vecs)
            num_vectors = vecs.shape[0]
        elif num_vectors is None:
            raise ValueError("packed input needs an explicit num_vectors")

        good = self.sim.run_packed(packed, num_vectors, ())
        self._good = good
        self._base = good._words
        self._work = self._base.copy()
        self._n = int(num_vectors)
        self._w = self._base.shape[1]
        self._tail = tail_mask(self._n)

        host_out = self._base[np.asarray(self._obs_rows, dtype=np.intp)]
        if reference_outputs is None:
            ref = host_out
        else:
            ref = np.ascontiguousarray(reference_outputs, dtype=np.uint64)
            if ref.shape != host_out.shape:
                raise ValueError(
                    f"reference_outputs shape {ref.shape} does not match "
                    f"({len(self._obs_rows)}, {self._w})"
                )
        self._ref_out = ref
        self._base_diff = (host_out ^ ref) & self._tail[None, :]
        self._dirty = tuple(
            int(p) for p in np.nonzero(self._base_diff.any(axis=1))[0]
        )
        self._outside_detect = {}

        m = len(self.value_outputs)
        if m:
            host_bits = unpack_vectors(self._base[self._val_rows], self._n).astype(
                np.int8
            )
        else:
            host_bits = np.zeros((self._n, 0), dtype=np.int8)
        if reference_value_bits is None:
            ref_bits = host_bits
        else:
            ref_bits = np.asarray(reference_value_bits).astype(np.int8)
            if ref_bits.shape != host_bits.shape:
                raise ValueError("reference_value_bits shape mismatch")
        self._ref_val_bits = ref_bits
        self._base_delta = host_bits - ref_bits
        if self._float_ok:
            self._base_dev = self._base_delta.astype(np.float64) @ self._wvec
            self._base_abs = np.abs(self._base_dev)
        else:
            self._base_dev = None
            self._base_abs = None
        return good

    # ------------------------------------------------------------------
    # cone plans
    # ------------------------------------------------------------------
    def _plan_for_line(self, line: Line) -> _ConePlan:
        key = ("stem", line.signal) if line.is_stem else ("branch", line.gate)
        plan = self._plan_cache.get(key)
        if plan is not None:
            self.obs.incr("batchsim.plan_cache_hits")
            return plan
        self.obs.incr("batchsim.plan_cache_misses")
        # program rows follow topological order, so they sort the cone
        topo_pos = self.sim.program.row_of
        if line.is_stem:
            gates = fanout_cone_gates(self.circuit, line.signal, topo_pos)
            rows = [self.sim.index_of(line.signal)]
            first = None
            grouped = gates
        else:
            gates = (line.gate,) + fanout_cone_gates(self.circuit, line.gate, topo_pos)
            rows = []
            first = self._group_entries(gates[:1])[0]
            grouped = gates[1:]
        rows.extend(self.sim.index_of(g) for g in gates)
        rowset = set(rows)
        obs = tuple(
            (pos, row) for pos, row in enumerate(self._obs_rows) if row in rowset
        )
        val_idx = np.asarray(
            [j for j, row in enumerate(self._val_rows) if int(row) in rowset],
            dtype=np.intp,
        )
        val_rows = self._val_rows[val_idx]
        plan = _ConePlan(
            first=first,
            groups=self._group_entries(grouped),
            rows=np.asarray(rows, dtype=np.intp),
            obs=obs,
            val_idx=val_idx,
            val_rows=val_rows,
        )
        self._plan_cache[key] = plan
        self.obs.incr("batchsim.cone_gates_compiled", len(gates))
        self.obs.gauge_max("batchsim.cone_gates_max", len(gates))
        return plan

    def _group_entries(self, gates: Sequence[str]) -> Tuple[Tuple, ...]:
        """Bucket cone gates into the program's ``(level, core)`` groups.

        All same-level gates lowering to the same bitwise core merge
        into one group packed by
        :func:`repro.simulation.compiled.pack_group`, a 4-tuple
        ``(core, out_rows, in_rows, inv)`` for
        :func:`repro.simulation.compiled.eval_core_group`.  A singleton
        bucket stays a scalar 3-tuple ``(gtype, out_row, in_rows)``
        (basic row slicing beats the gather/scatter machinery for one
        gate); ``_evaluate_one`` dispatches on tuple length.
        """
        p = self.sim.program
        buckets: Dict[Tuple[int, int], List[Tuple]] = {}
        for g in gates:
            # gate rows follow the input rows in schedule order
            entry = p.schedule[p.row_of[g] - 2 - p.num_inputs]
            core, invert, ins = lower_entry(entry[0], entry[2])
            buckets.setdefault((p.level_of_row[entry[1]], core), []).append(
                (entry, (entry[1], ins, invert))
            )
        groups: List[Tuple] = []
        for (_lvl, core), ents in sorted(buckets.items()):
            if len(ents) == 1:
                groups.append(ents[0][0])
            else:
                groups.append(pack_group(core, [lowered for _e, lowered in ents]))
        return tuple(groups)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        faults: Sequence[StuckAtFault],
        *,
        rs_drop_threshold: Optional[float] = None,
        chunk_words: Optional[int] = None,
        detailed: bool = False,
    ) -> List[FaultBatchStats]:
        """Evaluate many single-fault candidates against the loaded batch.

        Each fault is simulated independently (single-fault semantics).
        With ``rs_drop_threshold`` set, a fault is dropped at the first
        ``chunk_words`` boundary where its prefix lower bound on
        ``ER * max|deviation|`` exceeds the threshold, and its stats
        cover only that prefix.  ``detailed``
        additionally materializes the per-vector ``detected`` array and
        ``deviations`` list (as :class:`DifferentialResult` holds them);
        it is intended for cross-validation tests, not for the hot path.
        """
        if self._base is None:
            raise RuntimeError("call load_batch() before evaluate()")
        if chunk_words is None:
            if rs_drop_threshold is None:
                chunk_words = self._w
            else:
                chunk_words = max(8, -(-self._w // 8))
        chunk_words = max(1, int(chunk_words))
        with self.obs.span("batchsim.evaluate"):
            stats = [
                self._evaluate_one(f, rs_drop_threshold, chunk_words, detailed)
                for f in faults
            ]
        self.obs.incr("batchsim.faults_evaluated", len(stats))
        return stats

    def _evaluate_one(
        self,
        fault: StuckAtFault,
        rs_drop_threshold: Optional[float],
        chunk_words: int,
        detailed: bool,
    ) -> FaultBatchStats:
        line = fault.line
        if not self.circuit.has_signal(line.signal):
            raise CircuitError(f"fault site {line} not in circuit")
        override: Optional[Tuple[int, int]] = None
        forced_row: Optional[int] = None
        if line.is_stem:
            forced_row = self.sim.index_of(line.signal)
        else:
            gate = self.circuit.gates.get(line.gate)
            if gate is None:
                raise CircuitError(f"fault {fault}: gate {line.gate!r} not in circuit")
            if line.pin >= len(gate.inputs) or gate.inputs[line.pin] != line.signal:
                raise CircuitError(f"fault {fault}: pin does not match netlist")
            override = (self.sim.index_of(line.gate), line.pin)
        plan = self._plan_for_line(line)
        word = ALL_ONES if fault.value else np.uint64(0)
        work, n, w = self._work, self._n, self._w

        # one full-width pass over the cone
        if forced_row is not None:
            work[forced_row] = word
        if plan.first is not None:
            gtype, out_idx, in_idx = plan.first
            operands = [
                np.full(w, word, dtype=np.uint64) if pin == override[1] else work[idx]
                for pin, idx in enumerate(in_idx)
            ]
            _eval_into(gtype, operands, work[out_idx], w)
        for entry in plan.groups:
            if len(entry) == 4:  # padded core group
                eval_core_group(entry[0], entry[1], entry[2], entry[3], work, _ALL_WORDS)
                continue
            gtype, out_idx, in_idx = entry
            _eval_into(gtype, [work[idx] for idx in in_idx], work[out_idx], w)

        detect = self._outside_cone_detect(plan)
        if plan.obs_pos.size:
            d = self._ref_out[plan.obs_pos] ^ work[plan.obs_rows]
            detect = (np.bitwise_or.reduce(d, axis=0) & self._tail) | detect
        counts = word_popcounts(detect)

        # The drop rule reads prefix sums: detection counts and deviation
        # maxima only grow with more words, so a fault whose full-batch
        # ER * max|deviation| is within the threshold was never dropped
        # and needs no replay.  Otherwise the chunk totals are walked in
        # order up to the chunk boundary where the drop fires.
        dev: Sequence = []
        replay = rs_drop_threshold is not None and n > 0
        if self._float_ok:
            dev, abs_dev = self._float_deviation(plan)
            detected_count = int(counts.sum())
            max_dev = int(abs_dev.max()) if n else 0
            replay = replay and (detected_count / n) * max_dev > rs_drop_threshold
        if self._float_ok and not replay:
            sum_dev, words_done = int(abs_dev.sum()), w
        else:
            step = chunk_words if replay else max(1, w)
            detected_count = max_dev = sum_dev = words_done = 0
            for lo in range(0, w, step):
                hi = min(w, lo + step)
                r0, r1 = lo * 64, min(n, hi * 64)
                if self._float_ok:
                    chunk = abs_dev[r0:r1]
                    chunk_max, chunk_sum = int(chunk.max()), int(chunk.sum())
                else:
                    # big weights: exact deviations, computed chunk by
                    # chunk so a dropped fault pays only for its prefix
                    vals = self._exact_deviations(plan, r0, r1)
                    dev.extend(vals)
                    mags = [abs(v) for v in vals]
                    chunk_max, chunk_sum = max(mags), sum(mags)
                detected_count += int(counts[lo:hi].sum())
                if chunk_max > max_dev:
                    max_dev = chunk_max
                sum_dev += chunk_sum
                words_done = hi
                if replay and (detected_count / n) * max_dev > rs_drop_threshold:
                    break

        # restore the disturbed rows so the work array equals the
        # baseline again for the next fault
        work[plan.rows] = self._base[plan.rows]

        # words_simulated counts the words the statistics cover
        self.obs.incr("batchsim.words_simulated", words_done)
        if words_done < w:
            self.obs.incr("batchsim.faults_dropped")
            self.obs.incr("batchsim.words_skipped", w - words_done)

        rows_done = min(n, words_done * 64)
        return FaultBatchStats(
            fault=fault,
            num_vectors=n,
            detected_count=detected_count,
            max_abs_deviation=max_dev,
            sum_abs_deviation=sum_dev,
            dropped=words_done < w,
            words_simulated=words_done,
            detected=(
                unpack_vectors(detect[None, :words_done], rows_done)[:, 0]
                if detailed
                else None
            ),
            deviations=[int(v) for v in dev[:rows_done]] if detailed else None,
        )

    def _outside_cone_detect(self, plan: _ConePlan) -> np.ndarray:
        """Detection words from the observe outputs outside the cone.

        Those outputs keep their baseline values, so they contribute the
        OR of their baseline-vs-reference diffs -- the same words for
        every plan reaching the same cone outputs, cached per batch.
        """
        other = self._outside_detect.get(plan.obs_set)
        if other is None:
            rows = [p for p in self._dirty if p not in plan.obs_set]
            other = np.bitwise_or.reduce(self._base_diff[rows], axis=0)
            self._outside_detect[plan.obs_set] = other
        return other

    def _float_deviation(self, plan: _ConePlan) -> Tuple[np.ndarray, np.ndarray]:
        """Signed and absolute weighted deviation of every batch vector:
        the baseline's deviation against the reference, corrected by the
        cone value-outputs' change from their baseline values."""
        if plan.val_rows.size == 0:
            return self._base_dev, self._base_abs
        new, old = self._work[plan.val_rows], self._base[plan.val_rows]
        if not (new != old).any():
            return self._base_dev, self._base_abs
        # one row per cone value-output: +1 / -1 where its bit rose / fell
        change = unpack_vectors(new, self._n).T.view(np.int8)
        change -= unpack_vectors(old, self._n).T.view(np.int8)
        dev = self._wvec[plan.val_idx] @ change.astype(np.float64)
        dev += self._base_dev
        return dev, np.abs(dev)

    def _exact_deviations(self, plan: _ConePlan, r0: int, r1: int) -> List[int]:
        """Arbitrary-precision deviations of vectors ``r0:r1``, for
        weights beyond float64's exact-integer range."""
        delta = self._base_delta[r0:r1].copy()
        if plan.val_idx.size:
            sl = slice(r0 // 64, -(-r1 // 64))
            new_bits = unpack_vectors(self._work[plan.val_rows, sl], r1 - r0).astype(
                np.int8
            )
            delta[:, plan.val_idx] = (
                new_bits - self._ref_val_bits[r0:r1][:, plan.val_idx]
            )
        return [
            int(sum(w * int(d) for w, d in zip(self.weights, row) if d))
            for row in delta
        ]
