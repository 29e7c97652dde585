"""ER/ES/RS estimation for circuit versions (Section IV.A).

:class:`MetricsEstimator` is bound to an original circuit and a fixed
vector batch (10,000 random vectors by default, exhaustive on request).
It measures any *approximate version* of that circuit -- either the
same netlist with stuck-at faults injected, or a different (e.g.
simplified) netlist -- by differential bit-parallel simulation:

* **ER** is the fraction of batch vectors with any output mismatch;
* **observed ES** is the largest weighted deviation in the batch -- a
  lower bound on the true ES;
* **ES** is, depending on ``es_mode``:

  - ``"simulated"`` -- the observed value (fast, optimistic),
  - ``"atpg"``      -- the conservative power-of-two value from the
    threshold ES ATPG seeded with the observed lower bound (the
    paper's method),
  - ``"exact"``     -- the observed value on an exhaustive batch
    (small circuits only; the estimator must have been built with
    ``exhaustive=True``).

Outputs of an approximate netlist are paired with the original's
positionally, so renamed constant-tied outputs keep contributing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..atpg.es_atpg import EsAtpg, EsStatus
from ..circuit import Circuit
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from ..simulation.batchfaultsim import BatchFaultSimulator, FaultBatchStats
from ..simulation.compiled import CompiledSimulator
from ..simulation.logicsim import SimResult
from ..simulation.vectors import exhaustive_vectors, pack_vectors, random_vectors
from .errors import ErrorMetrics, rs_max

__all__ = ["MetricsEstimator"]


class MetricsEstimator:
    """Differential ER/ES/RS measurement against one original circuit."""

    def __init__(
        self,
        circuit: Circuit,
        num_vectors: int = 10_000,
        seed: int = 0,
        value_outputs: Optional[Sequence[str]] = None,
        exhaustive: bool = False,
        atpg_node_limit: int = 20_000,
        obs: Optional[Instrumentation] = None,
        vectors: Optional[np.ndarray] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.exhaustive = exhaustive
        if vectors is not None:
            # A pre-built batch (vectors x inputs, bool).  The parallel
            # scoring workers use this to measure against the *same*
            # batch the coordinating process holds -- fork-shared or
            # shipped once per worker -- instead of regenerating it.
            self.vectors = np.asarray(vectors, dtype=bool)
            if self.vectors.ndim != 2 or self.vectors.shape[1] != len(circuit.inputs):
                raise ValueError(
                    f"vectors shape {self.vectors.shape} does not match "
                    f"{len(circuit.inputs)} circuit inputs"
                )
        elif exhaustive:
            self.vectors = exhaustive_vectors(len(circuit.inputs))
        else:
            rng = np.random.default_rng(seed)
            self.vectors = random_vectors(len(circuit.inputs), num_vectors, rng)
        self.num_vectors = self.vectors.shape[0]
        self.packed = pack_vectors(self.vectors)
        self.atpg_node_limit = atpg_node_limit

        if value_outputs is not None:
            self.value_outputs = tuple(value_outputs)
        elif circuit.data_outputs:
            self.value_outputs = tuple(circuit.data_outputs)
        else:
            self.value_outputs = tuple(circuit.outputs)
        self.weights = [int(circuit.output_weights.get(o, 1)) for o in self.value_outputs]
        self.rs_maximum = rs_max(circuit, self.value_outputs)
        # positions of value outputs within the output list (for pairing)
        self._value_pos = [circuit.outputs.index(o) for o in self.value_outputs]

        self._good_sim = CompiledSimulator(circuit, obs=self.obs)
        self._good = self._good_sim.run_packed(self.packed, self.num_vectors)
        self._good_words = [self._good.words_for(o) for o in circuit.outputs]
        self._good_value_bits = self._good.output_bits(self.value_outputs)
        self._good_words_arr = (
            np.stack(self._good_words)
            if self._good_words
            else np.zeros((0, self.packed.shape[1]), dtype=np.uint64)
        )
        self._sim_cache: Dict[int, CompiledSimulator] = {}
        self._batch_cache: Dict[int, BatchFaultSimulator] = {}

    # ------------------------------------------------------------------
    def measure(
        self,
        approx: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
        es_mode: str = "atpg",
    ) -> ErrorMetrics:
        """Measure an approximate version of the original circuit.

        ``approx`` is a different netlist (defaults to the original);
        ``faults`` are injected into its simulation.  The combination
        (approx netlist + fault set) defines the faulty machine, exactly
        as the greedy loop needs when ranking candidate faults on the
        current simplified circuit.
        """
        er, observed = self.simulate(approx=approx, faults=faults)
        if es_mode == "simulated":
            es = observed
        elif es_mode == "exact":
            if not self.exhaustive:
                raise ValueError('es_mode="exact" requires an exhaustive estimator')
            es = observed
        elif es_mode == "atpg":
            atpg = EsAtpg(
                self.circuit,
                faulty=approx,
                faults=faults,
                value_outputs=self.value_outputs,
                node_limit=self.atpg_node_limit,
                obs=self.obs,
            )
            with self.obs.span("atpg.es_estimate"):
                es = atpg.estimate_es(observed_lower_bound=observed)
        else:
            raise ValueError(f"unknown es_mode {es_mode!r}")
        return ErrorMetrics(
            er=er,
            es=es,
            observed_es=observed,
            rs_maximum=self.rs_maximum,
            num_vectors=self.num_vectors,
            es_mode=es_mode,
        )

    # ------------------------------------------------------------------
    def check_rs(
        self,
        rs_threshold: float,
        approx: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
        use_atpg: bool = True,
        node_limit: Optional[int] = None,
        pow2_es: bool = False,
        structural_reference: Optional[Circuit] = None,
    ) -> Tuple[bool, ErrorMetrics]:
        """Decide whether an approximate version satisfies an RS budget.

        Much cheaper than a full ES sweep: after the differential
        simulation, a *single* ATPG threshold query at
        ``T* = floor(rs_threshold / ER) + 1`` settles the question --
        UNSAT proves ``ES <= T*-1`` hence ``RS <= rs_threshold``, while
        SAT proves ``RS > rs_threshold``.  Aborted queries reject
        conservatively.  With ``use_atpg=False`` the decision uses the
        simulated (observed) ES only.

        ``pow2_es`` reproduces the paper's conservatism: ES is rounded
        up to the next power of two before the comparison (the paper's
        sweep only resolves ES to powers of two), which rejects more
        faults and yields smaller-but-safer simplifications.

        ``structural_reference`` optionally names a circuit *proven*
        functionally identical to the original (e.g. the result of a
        redundancy-removal prepass).  The ATPG's good machine and its
        affected-output cone analysis then use this netlist, so
        function-preserving restructurings do not spuriously widen the
        search; ER/observed-ES are still measured against the original.

        Returns ``(accepted, metrics)``; ``metrics.es`` carries the
        observed ES and ``metrics.es_bound`` the proven ceiling when
        the ATPG refuted the threshold.
        """

        def make(es_bound: Optional[int]) -> ErrorMetrics:
            return ErrorMetrics(
                er=er,
                es=observed,
                observed_es=observed,
                rs_maximum=self.rs_maximum,
                num_vectors=self.num_vectors,
                es_mode="hybrid" if use_atpg else "simulated",
                es_bound=es_bound,
            )

        def accept(metrics: ErrorMetrics) -> Tuple[bool, ErrorMetrics]:
            # Budget-risk accounting: accepted on the point estimate,
            # but the ER confidence interval's upper bound would have
            # pushed RS over the threshold.
            _lo, hi = self.er_confidence(metrics.er)
            if metrics.rs <= rs_threshold < hi * metrics.es:
                self.obs.incr("quality.budget_risk_accepts")
            return True, metrics

        def pow2ceil(v: int) -> int:
            return 1 << (v - 1).bit_length() if v > 1 else v

        er, observed = self.simulate(approx=approx, faults=faults)
        es_obs_eff = pow2ceil(observed) if pow2_es else observed
        if er <= 0.0:
            # No deviation on the batch: RS estimate is 0 (the paper's
            # ER is likewise a sampled estimate).
            return True, make(observed)
        if er * es_obs_eff > rs_threshold:
            return False, make(None)
        if not use_atpg:
            return accept(make(None))
        t_star = int(rs_threshold / er) + 1
        if t_star <= observed:
            return False, make(None)
        good_ckt = structural_reference if structural_reference is not None else self.circuit
        good_value_outputs = [good_ckt.outputs[p] for p in self._value_pos]
        atpg = EsAtpg(
            good_ckt,
            faulty=approx,
            faults=faults,
            value_outputs=good_value_outputs,
            node_limit=node_limit or self.atpg_node_limit,
            obs=self.obs,
        )
        with self.obs.span("atpg.es_decide"):
            res = atpg.decide(t_star)
        self.obs.incr("estimator.check_rs_atpg_queries")
        if res.status is EsStatus.UNSAT:
            # An exact-path refutation also pins down the true ES.
            bound = res.deviation if res.deviation is not None else t_star - 1
            if pow2_es and er * pow2ceil(max(bound, observed, 1)) > rs_threshold:
                return False, make(bound)
            return accept(make(bound))
        return False, make(None)

    # ------------------------------------------------------------------
    def er_confidence(self, er: float, z: float = 1.96) -> Tuple[float, float]:
        """Confidence interval for an ER measured on this estimator's batch.

        Wilson-score at level ``z`` for sampled batches; exhaustive
        estimators have no sampling error, so the interval collapses to
        the point estimate.
        """
        from ..obs.quality import er_interval

        return er_interval(er, self.num_vectors, z=z, exact=self.exhaustive)

    # ------------------------------------------------------------------
    def exact_error_rate(
        self,
        approx: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
        node_limit: int = 500_000,
    ) -> float:
        """Exact ER via BDD model counting (no sampling error).

        Tractable when the circuit's BDD stays within ``node_limit``
        nodes; raises :class:`repro.bdd.BddLimitExceeded` otherwise so
        callers can fall back to :meth:`simulate`.
        """
        from ..bdd import exact_error_rate

        return exact_error_rate(
            self.circuit, approx=approx, faults=faults, node_limit=node_limit
        )

    # ------------------------------------------------------------------
    def simulate(
        self,
        approx: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
    ) -> Tuple[float, int]:
        """Differential simulation only: returns (ER, observed ES)."""
        target = approx if approx is not None else self.circuit
        sim = self._simulator_for(target)
        with self.obs.span("estimator.simulate"):
            res = sim.run_packed(self.packed, self.num_vectors, faults)
            pair = self._compare(target, res)
        self.obs.incr("estimator.simulate_calls")
        self.obs.incr("estimator.vectors_simulated", self.num_vectors)
        return pair

    def simulate_faults(
        self,
        faults: Sequence[StuckAtFault],
        approx: Optional[Circuit] = None,
        rs_drop_threshold: Optional[float] = None,
    ) -> List[FaultBatchStats]:
        """Per-fault differential stats via cone-restricted batch simulation.

        The fault-parallel counterpart of calling :meth:`simulate` once
        per single fault: every fault is measured against the *original*
        circuit's good outputs, but its propagation replays only the
        fault's fanout cone on top of the (cached) fault-free baseline
        of ``approx``.  Results are bit-identical to :meth:`simulate`;
        with ``rs_drop_threshold`` set, faults whose prefix
        ``ER * max|deviation|`` lower bound already exceeds the
        threshold are dropped (``stats.dropped``), which is sound for
        candidate *rejection*; their stats are lower bounds over the
        ``stats.words_simulated`` words the statistics cover.  Only
        single-fault candidates are supported -- ER does not compose
        across interacting faults, so multi-fault sets must go through
        :meth:`simulate`.
        """
        target = approx if approx is not None else self.circuit
        bsim = self._batch_simulator_for(target)
        return bsim.evaluate(faults, rs_drop_threshold=rs_drop_threshold)

    def _batch_simulator_for(self, target: Circuit) -> BatchFaultSimulator:
        key = id(target)
        bsim = self._batch_cache.get(key)
        if bsim is not None and bsim.circuit is target:
            self.obs.incr("estimator.batchsim_cache_hits")
            return bsim
        self.obs.incr("estimator.batchsim_cache_misses")
        if len(target.outputs) != len(self.circuit.outputs):
            raise ValueError("approximate circuit must preserve the output count")
        value_names = [target.outputs[p] for p in self._value_pos]
        with self.obs.span("estimator.batchsim_build"):
            bsim = BatchFaultSimulator(
                target,
                observe_outputs=target.outputs,
                value_outputs=value_names,
                weights=self.weights,
                obs=self.obs,
            )
            bsim.load_batch(
                packed=self.packed,
                num_vectors=self.num_vectors,
                reference_outputs=self._good_words_arr,
                reference_value_bits=self._good_value_bits,
            )
        self._batch_cache = {key: bsim}  # keep only the latest netlist
        return bsim

    def _simulator_for(self, target: Circuit) -> CompiledSimulator:
        key = id(target)
        sim = self._sim_cache.get(key)
        if sim is None or sim.circuit is not target:
            self.obs.incr("estimator.sim_cache_misses")
            sim = CompiledSimulator(target, obs=self.obs)
            self._sim_cache = {key: sim}  # keep only the latest netlist
        else:
            self.obs.incr("estimator.sim_cache_hits")
        return sim

    def _compare(self, target: Circuit, res: SimResult) -> Tuple[float, int]:
        if len(target.outputs) != len(self.circuit.outputs):
            raise ValueError("approximate circuit must preserve the output count")
        # detection over all (positionally paired) outputs
        detect: Optional[np.ndarray] = None
        for pos, o in enumerate(target.outputs):
            diff = np.bitwise_xor(self._good_words[pos], res.words_for(o))
            detect = diff if detect is None else np.bitwise_or(detect, diff)
        if detect is None:
            return 0.0, 0
        from ..simulation.vectors import unpack_vectors

        detected = unpack_vectors(detect[None, :], self.num_vectors)[:, 0]
        er = float(np.count_nonzero(detected)) / self.num_vectors

        value_names = [target.outputs[p] for p in self._value_pos]
        fbits = res.output_bits(value_names)
        delta = fbits.astype(np.int8) - self._good_value_bits.astype(np.int8)
        observed = _max_abs_weighted(delta, self.weights)
        return er, observed


def _max_abs_weighted(delta: np.ndarray, weights: List[int]) -> int:
    """Largest |delta . weights| over rows, exact for arbitrary weights."""
    if delta.size == 0:
        return 0
    max_weight = max(weights) if weights else 1
    if max_weight * max(1, len(weights)) < (1 << 53):
        wvec = np.asarray(weights, dtype=np.float64)
        vals = np.abs(delta @ wvec)
        return int(vals.max())
    best = 0
    for row in delta:
        v = abs(sum(w * int(d) for w, d in zip(weights, row) if d))
        if v > best:
            best = v
    return best
