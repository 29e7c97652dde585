"""Error-significance (ES) threshold ATPG with multiple-fault support.

Rebuilds the tool the paper adapts from its refs [6] (threshold
testing) and [16] (multiple-fault ATPG): a PODEM-style branch-&-bound
that decides, for a pair of (good, faulty) circuits and a threshold T,
whether some input vector makes the weighted numeric output value of
the faulty machine deviate from the good machine by at least T.

The faulty machine can be specified two ways, matching the paper's two
usages:

* the *same* netlist plus a set of stuck-at faults (Section IV.A: the
  ATPG runs on the original circuit with the accumulated multiple-fault
  set injected), or
* a *different* netlist -- e.g. a simplified circuit version -- whose
  outputs are compared positionally against the good circuit's.

Both machines are simulated side by side in three-valued logic (0/1/X)
under a partial primary-input assignment, and interval bounds on the
weighted difference D = value(faulty) - value(good) drive the pruning
exactly as the paper describes -- *"branches until a lower-bound on ES
is greater than a threshold; it bounds when an upper-bound on ES is
lower than the threshold"*:

* every completion satisfies ``Dmin <= D <= Dmax``;
* if ``Dmin >= T`` or ``Dmax <= -T`` the subtree is accepted wholesale
  (the lower bound cleared the threshold);
* if ``max(|Dmin|, |Dmax|) < T`` the subtree is pruned (the upper bound
  cannot reach the threshold).

:meth:`EsAtpg.estimate_es` sweeps thresholds over powers of two
(2^0 ... 2^(m+1)) to produce the paper's conservative ES value: the
smallest refuted power of two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit import Circuit, GateType
from ..circuit.structure import transitive_fanin, transitive_fanout
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active

__all__ = ["EsStatus", "EsResult", "EsAtpg"]

_X = 2  # three-valued unknown
_CONST = (GateType.CONST0, GateType.CONST1)  # indexed by stuck value


class EsStatus(enum.Enum):
    """Outcome of one threshold query."""

    SAT = "sat"  # a vector with |deviation| >= T exists (vector returned)
    UNSAT = "unsat"  # proven: no vector reaches the threshold
    ABORTED = "aborted"  # search budget exhausted; treat as SAT conservatively


@dataclass
class EsResult:
    """Result of :meth:`EsAtpg.test_exists`."""

    status: EsStatus
    vector: Optional[Dict[str, int]]
    deviation: Optional[int]
    nodes: int

    @property
    def is_sat(self) -> bool:
        return self.status is EsStatus.SAT


class EsAtpg:
    """Threshold ES ATPG comparing a good machine against a faulty one.

    Parameters
    ----------
    good:
        The reference (original) circuit.  ES is always measured
        against this circuit's function, per Section IV.A.
    faulty:
        The approximate circuit version; defaults to ``good`` itself
        (use ``faults`` for the classic mode).  Must have the same
        primary inputs; outputs are paired with ``good``'s outputs by
        position.
    faults:
        Stuck-at faults injected into the faulty machine's simulation.
    value_outputs:
        Outputs of ``good`` whose weighted value defines ES; defaults
        to its data outputs.
    node_limit:
        Search-node budget per threshold query.
    """

    def __init__(
        self,
        good: Circuit,
        faulty: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
        value_outputs: Optional[Sequence[str]] = None,
        node_limit: int = 20_000,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        good.validate()
        self.good = good
        self.obs = obs if obs is not None else get_active()
        self.faulty = faulty if faulty is not None else good
        self.same_netlist = self.faulty is good
        if not self.same_netlist:
            self.faulty.validate()
            if tuple(self.faulty.inputs) != tuple(good.inputs):
                raise ValueError("good and faulty circuits must share primary inputs")
            if len(self.faulty.outputs) != len(good.outputs):
                raise ValueError("good and faulty circuits must have matching outputs")
        self.faults = tuple(faults)
        self.node_limit = node_limit
        if value_outputs is not None:
            self.value_outputs = tuple(value_outputs)
        elif good.data_outputs:
            self.value_outputs = tuple(good.data_outputs)
        else:
            self.value_outputs = tuple(good.outputs)
        self.weights = {o: int(good.output_weights.get(o, 1)) for o in self.value_outputs}
        # positional pairing good output -> faulty output
        self._pair = dict(zip(good.outputs, self.faulty.outputs))

        self.affected_outputs = self._find_affected_outputs()
        self.max_weight_sum: int = sum(self.weights[o] for o in self.affected_outputs)

        # Restrict simulation and decisions to the relevant cones; rank
        # the support PIs by the weight of the affected outputs they reach.
        inputs = set(good.inputs)
        relevant_good: Set[str] = set()
        relevant_faulty: Set[str] = set()
        score: Dict[str, int] = {}
        for o in self.affected_outputs:
            cone_good = transitive_fanin(good, o, include_self=True)
            cone_faulty = transitive_fanin(self.faulty, self._pair[o], include_self=True)
            relevant_good |= cone_good
            relevant_faulty |= cone_faulty
            for pi in (inputs & cone_good) | (inputs & cone_faulty):
                score[pi] = score.get(pi, 0) + self.weights[o]
        for f in self.faults:
            relevant_faulty |= transitive_fanin(
                self.faulty, f.line.signal, include_self=True
            )
        self._good_schedule: List[str] = [
            n for n in good.topological_order() if n in relevant_good
        ]
        self._faulty_schedule: List[str] = [
            n for n in self.faulty.topological_order() if n in relevant_faulty
        ]
        self.support: Tuple[str, ...] = tuple(
            pi for pi in good.inputs if pi in relevant_good or pi in relevant_faulty
        )
        self._pi_rank: Tuple[str, ...] = tuple(
            sorted(self.support, key=lambda p: -score.get(p, 0))
        )
        self._stem_faults: Dict[str, int] = {}
        self._branch_faults: Dict[Tuple[str, int], int] = {}
        for f in self.faults:
            if f.line.is_stem:
                self._stem_faults[f.line.signal] = f.value
            else:
                self._branch_faults[(f.line.gate, f.line.pin)] = f.value
        self._lowered = False

    # ------------------------------------------------------------------
    # affected-output analysis
    # ------------------------------------------------------------------
    def _find_affected_outputs(self) -> Tuple[str, ...]:
        """Value outputs that can possibly deviate.

        For the same-netlist mode these are the value outputs in the
        transitive fanout of some fault site.  For the two-circuit mode
        a memoized structural cone comparison is used: an output whose
        cone is gate-for-gate identical in both circuits (and fault
        free) can never differ.
        """
        fault_tfo: Set[str] = set()
        for f in self.faults:
            fault_tfo |= transitive_fanout(self.faulty, f.line.signal, include_self=True)
            if f.line.is_branch:
                fault_tfo |= transitive_fanout(self.faulty, f.line.gate, include_self=True)
        if self.same_netlist:
            return tuple(o for o in self.value_outputs if o in fault_tfo)

        same_cache: Dict[str, bool] = {}

        def cone_identical(signal: str) -> bool:
            stack = [signal]
            while stack:
                s = stack[-1]
                if s in same_cache:
                    stack.pop()
                    continue
                gin = self.good.is_input(s)
                fin = self.faulty.is_input(s) if self.faulty.has_signal(s) else None
                if not self.faulty.has_signal(s):
                    same_cache[s] = False
                    stack.pop()
                    continue
                if gin or fin:
                    same_cache[s] = bool(gin and fin)
                    stack.pop()
                    continue
                ga = self.good.gates[s]
                gb = self.faulty.gates[s]
                if ga.gtype != gb.gtype or ga.inputs != gb.inputs:
                    same_cache[s] = False
                    stack.pop()
                    continue
                pending = [src for src in ga.inputs if src not in same_cache]
                if pending:
                    stack.extend(pending)
                    continue
                same_cache[s] = all(same_cache[src] for src in ga.inputs)
                stack.pop()
            return same_cache[signal]

        affected = []
        for o in self.value_outputs:
            fo = self._pair[o]
            if o != fo or not cone_identical(o) or fo in fault_tfo:
                affected.append(o)
        return tuple(affected)

    # ------------------------------------------------------------------
    # incremental dual three-valued simulation
    # ------------------------------------------------------------------
    def _lower(self) -> None:
        """Lower both machines to one integer-indexed node array.

        Nodes 0 and 1 are the constants 0 and 1.  The good machine's PIs
        and relevant gates follow in schedule order, then the faulty
        machine's, so node indices are a topological order of both.
        Faults are baked in: a stem-faulted PI or gate becomes a
        constant node, and a faulted branch pin reads node 0 or 1
        instead of its driver.  ``_vals`` holds every node's value under
        the empty assignment; the search refines it in place and restores
        it from a trail.
        """
        types: List[Optional[GateType]] = [GateType.CONST0, GateType.CONST1]
        fanins: List[Tuple[int, ...]] = [(), ()]

        def add_machine(
            circuit: Circuit,
            schedule: List[str],
            stem: Dict[str, int],
            branch: Dict[Tuple[str, int], int],
        ) -> Dict[str, int]:
            index: Dict[str, int] = {}
            for name in list(circuit.inputs) + schedule:
                index[name] = len(types)
                sv = stem.get(name)
                if sv is not None:
                    types.append(_CONST[sv])
                    fanins.append(())
                elif name in circuit.gates:
                    g = circuit.gates[name]
                    types.append(g.gtype)
                    fanins.append(tuple(
                        branch.get((name, pin), index[src]) for pin, src in enumerate(g.inputs)
                    ))
                else:
                    types.append(None)  # a free PI
                    fanins.append(())
            return index

        good_ix = add_machine(self.good, self._good_schedule, {}, {})
        faulty_ix = add_machine(
            self.faulty, self._faulty_schedule, self._stem_faults, self._branch_faults
        )
        fanouts: List[List[int]] = [[] for _ in types]
        vals: List[int] = []
        for i, (gtype, ins) in enumerate(zip(types, fanins)):
            for j in set(ins):
                fanouts[j].append(i)
            vals.append(_X if gtype is None else _eval3(gtype, [vals[j] for j in ins]))
        self._types, self._fanins, self._fanouts, self._vals = types, fanins, fanouts, vals
        self._pi_slots: Dict[str, Tuple[int, ...]] = {
            pi: (good_ix[pi],) if pi in self._stem_faults else (good_ix[pi], faulty_ix[pi])
            for pi in self.support
        }
        self._out_slots: List[Tuple[int, int, int]] = [
            (self.weights[o], good_ix[o], faulty_ix[self._pair[o]])
            for o in self.affected_outputs
        ]
        self._lowered = True

    def _bounds(self) -> Tuple[int, int]:
        """Interval [Dmin, Dmax] of the weighted faulty-minus-good value."""
        vals = self._vals
        dmin = 0
        dmax = 0
        for w, gi, fi in self._out_slots:
            g, f = vals[gi], vals[fi]
            if g != _X and f != _X:
                d = w * (f - g)
                dmin += d
                dmax += d
            elif g != _X:  # f unknown
                dmin += w * (0 - g)
                dmax += w * (1 - g)
            elif f != _X:  # g unknown
                dmin += w * (f - 1)
                dmax += w * f
            else:
                dmin -= w
                dmax += w
        return dmin, dmax

    # ------------------------------------------------------------------
    # threshold query
    # ------------------------------------------------------------------
    def test_exists(self, threshold: int) -> EsResult:
        """Decide whether some vector yields ``|deviation| >= threshold``."""
        with self.obs.span("atpg.es_search"):
            res, gate_evals = self._test_exists(threshold)
        obs = self.obs
        obs.incr("es_atpg.queries")
        obs.incr("es_atpg.nodes", res.nodes)
        obs.incr("es_atpg.gate_evals", gate_evals)
        if res.status is EsStatus.ABORTED:
            obs.incr("es_atpg.aborts")
        return res

    def _test_exists(self, threshold: int) -> Tuple[EsResult, int]:
        """The branch-&-bound search; also returns its gate evaluations."""
        from heapq import heappop, heappush

        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not self.affected_outputs or self.max_weight_sum < threshold:
            # Structural refutation: not enough affected output weight.
            return EsResult(EsStatus.UNSAT, None, None, 0), 0
        if not self._lowered:
            self._lower()
        types, fanins, fanouts, vals = self._types, self._fanins, self._fanouts, self._vals
        pi_slots = self._pi_slots
        pi_rank = self._pi_rank
        trail: List[Tuple[int, int]] = []  # (node, overwritten value)
        assign: Dict[str, int] = {}
        nodes = 0
        gate_evals = 0

        def put(i: int, value: int, heap: List[int], queued: Set[int]) -> None:
            """Overwrite node ``i`` on the trail and queue its fanout."""
            trail.append((i, vals[i]))
            vals[i] = value
            for j in fanouts[i]:
                if j not in queued:
                    queued.add(j)
                    heappush(heap, j)

        def imply(pi: str, value: int) -> None:
            """Assign ``pi`` and re-evaluate its fanout in node order,
            going no further where a value does not change."""
            nonlocal gate_evals
            heap: List[int] = []
            queued: Set[int] = set()
            for i in pi_slots[pi]:
                put(i, value, heap, queued)
            while heap:
                i = heappop(heap)
                gate_evals += 1
                v = _eval3(types[i], [vals[j] for j in fanins[i]])
                if v != vals[i]:
                    put(i, v, heap, queued)

        def undo(mark: int) -> None:
            while len(trail) > mark:
                i, old = trail.pop()
                vals[i] = old

        def complete_vector() -> Dict[str, int]:
            return {pi: assign.get(pi, 0) for pi in self.good.inputs}

        def search(depth: int) -> Optional[EsResult]:
            # PIs are assigned in rank order, so pi_rank[:depth] is assigned.
            nonlocal nodes
            nodes += 1
            if nodes > self.node_limit:
                return EsResult(EsStatus.ABORTED, None, None, nodes)
            dmin, dmax = self._bounds()
            if max(abs(dmin), abs(dmax)) < threshold:
                return None  # bound: upper bound below threshold
            if dmin >= threshold or dmax <= -threshold:
                # lower bound above threshold: any completion is a test
                vec = complete_vector()
                dev = dmin if dmin >= threshold else dmax
                return EsResult(EsStatus.SAT, vec, dev, nodes)
            if depth == len(pi_rank):
                # fully assigned: interval is a point
                if abs(dmin) >= threshold:
                    return EsResult(EsStatus.SAT, complete_vector(), dmin, nodes)
                return None
            pi = pi_rank[depth]
            for value in (1, 0):
                mark = len(trail)
                assign[pi] = value
                imply(pi, value)
                res = search(depth + 1)
                undo(mark)
                del assign[pi]
                if res is not None:
                    return res
            return None

        try:
            res = search(0)
        finally:
            undo(0)
        if res is None:
            res = EsResult(EsStatus.UNSAT, None, None, nodes)
        return res, gate_evals

    # ------------------------------------------------------------------
    # exact small-support path
    # ------------------------------------------------------------------
    def exact_max_deviation(self, chunk_vectors: int = 1 << 16) -> int:
        """Exact maximum |deviation| by exhausting the support PIs.

        The weighted deviation is a function of the support PIs only
        (non-support inputs cannot reach any affected output), so
        enumerating 2**|support| vectors on the compiled kernel
        yields the *exact* ES.  Only the relevant cones are
        simulated (extracted with :func:`~repro.circuit.structure.subcircuit`)
        and memory is bounded by chunking the batch.  Intended for
        supports of ~22 PIs or fewer.
        """
        import numpy as np

        from ..circuit.gates import ALL_ONES
        from ..circuit.structure import subcircuit
        from ..simulation.compiled import CompiledSimulator
        from ..simulation.vectors import num_words

        s = len(self.support)
        if not self.affected_outputs:
            return 0
        faulty_names = [self._pair[o] for o in self.affected_outputs]
        fault_signals = [f.line.signal for f in self.faults]
        good_cone = subcircuit(self.good, self.affected_outputs)
        faulty_cone = subcircuit(self.faulty, list(faulty_names) + fault_signals)
        good_sim = CompiledSimulator(good_cone, obs=self.obs)
        faulty_sim = CompiledSimulator(faulty_cone, obs=self.obs)
        pi_index = {pi: k for k, pi in enumerate(self.good.inputs)}
        support_idx = [pi_index[pi] for pi in self.support]
        weights = [self.weights[o] for o in self.affected_outputs]
        # Exact integer dot products: int64 while sums stay below 2**53,
        # Python integers beyond.
        wide = max(weights) * len(weights) >= (1 << 53)
        w_vec = np.asarray(weights, dtype=object if wide else np.int64)
        total = 1 << s
        best = 0
        self.obs.incr("es_atpg.exact_vectors", total)

        def bit_rows(result, names: Sequence[str], count: int):
            """0/1 int8 matrix (outputs x vectors) of one simulation run."""
            words = np.stack([result.words_for(n) for n in names]).astype("<u8", copy=False)
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
            return bits[:, :count].view(np.int8)

        # Chunks start on word boundaries, so bit k of every word holds a
        # vector 64*w + k: support bit b < 6 packs to the same word
        # everywhere, and every higher one to all-ones or all-zero words.
        chunk = max(64, chunk_vectors - chunk_vectors % 64)
        packed = np.zeros((len(self.good.inputs), num_words(min(chunk, total))), dtype=np.uint64)
        for bit, idx in enumerate(support_idx[:6]):
            packed[idx] = sum(1 << k for k in range(64) if k >> bit & 1)
        for start in range(0, total, chunk):
            count = min(chunk, total - start)
            words = num_words(count)
            word_ids = np.arange(start >> 6, (start >> 6) + words, dtype=np.uint64)
            for bit, idx in enumerate(support_idx[6:]):
                packed[idx, :words] = ((word_ids >> np.uint64(bit)) & np.uint64(1)) * ALL_ONES
            block = packed[:, :words]
            g = good_sim.run_packed(block, count)
            f = faulty_sim.run_packed(block, count, self.faults)
            delta = bit_rows(f, faulty_names, count) - bit_rows(g, self.affected_outputs, count)
            best = max(best, int(np.abs(w_vec @ delta).max()))
        return best

    def decide(self, threshold: int, exhaustive_limit: int = 22) -> EsResult:
        """Threshold query via the cheapest sound strategy.

        Structural refutation first; exact support exhaustion when the
        support is small (returns an exact verdict); otherwise the
        branch-&-bound search of :meth:`test_exists` (which may abort
        at the node limit -- callers treat aborts as SAT, i.e. reject).
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not self.affected_outputs or self.max_weight_sum < threshold:
            self.obs.incr("es_atpg.structural_refutations")
            return EsResult(EsStatus.UNSAT, None, None, 0)
        if len(self.support) <= exhaustive_limit:
            with self.obs.span("atpg.es_exact"):
                exact = self.exact_max_deviation()
            self.obs.incr("es_atpg.exact_queries")
            if exact >= threshold:
                return EsResult(EsStatus.SAT, None, exact, 0)
            return EsResult(EsStatus.UNSAT, None, exact, 0)
        return self.test_exists(threshold)

    # ------------------------------------------------------------------
    # conservative ES estimation (paper Section IV.A)
    # ------------------------------------------------------------------
    def estimate_es(self, observed_lower_bound: int = 0) -> int:
        """Conservative ES via a power-of-two threshold sweep.

        Returns the smallest ``2**k`` for which the ATPG *refutes*
        ``|deviation| >= 2**k`` (the paper's rule: if a test exists for
        ``2**j`` but not for ``2**k``, take ES = ``2**k``), clipped to
        the structural maximum (the summed weight of affected outputs).
        ``observed_lower_bound`` -- e.g. the largest deviation seen
        during fault simulation -- lets the sweep skip thresholds that
        are already known to be achievable.  Aborted queries count as
        achievable (conservative).  Returns 0 when even a deviation of 1
        is refuted (the change is redundant w.r.t. the data outputs).
        """
        if not self.affected_outputs:
            return 0
        if len(self.support) <= 20:
            # Small support: the exhaustive path gives the exact ES.
            return self.exact_max_deviation()
        w_max = self.max_weight_sum
        k = 0
        if observed_lower_bound > 0:
            while (1 << k) <= observed_lower_bound:
                k += 1
        while (1 << k) <= w_max:
            res = self.test_exists(1 << k)
            if res.status is EsStatus.UNSAT:
                # No deviation >= 2**k exists; for k == 0 that means no
                # deviation at all (redundant w.r.t. the data outputs).
                return (1 << k) if k > 0 else 0
            k += 1
        # every threshold up to the structural maximum is achievable
        return w_max


def _eval3(gtype: GateType, values: List[int]) -> int:
    """Three-valued (0/1/X) gate evaluation with controlling-value
    short-circuits.  The most common gate types are tested first."""
    if gtype is GateType.AND or gtype is GateType.NAND:
        acc = 1
        for v in values:
            if v == 0:
                acc = 0
                break
            if v == _X:
                acc = _X
        if gtype is GateType.NAND:
            return _X if acc == _X else acc ^ 1
        return acc
    if gtype is GateType.OR or gtype is GateType.NOR:
        acc = 0
        for v in values:
            if v == 1:
                acc = 1
                break
            if v == _X:
                acc = _X
        if gtype is GateType.NOR:
            return _X if acc == _X else acc ^ 1
        return acc
    if gtype is GateType.NOT:
        v = values[0]
        return _X if v == _X else v ^ 1
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        acc = 0
        for v in values:
            if v == _X:
                return _X
            acc ^= v
        if gtype is GateType.XNOR:
            return acc ^ 1
        return acc
    if gtype is GateType.BUF:
        return values[0]
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    raise ValueError(f"unknown gate type {gtype!r}")
