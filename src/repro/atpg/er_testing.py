"""Error-rate test generation (rebuilds the paper's ref [5], ERTG).

Error-tolerant test flows do not target every fault: a fault whose
error rate is below the application threshold leaves the chip
acceptable, so manufacturing test only needs vectors for the faults
with ER *above* the threshold.  This module provides that flow:

* :func:`estimate_fault_er` -- per-fault ER estimates over a shared
  random batch, computed with the batch fault simulator;
* :func:`generate_er_tests` -- a compact test set detecting every
  fault whose estimated ER exceeds the threshold, built by greedy
  set-cover over a candidate vector pool (the classic random-pattern +
  covering construction).

Faults below the threshold are deliberately left untested -- that is
the yield benefit of error-rate testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..faults.collapse import collapse_faults
from ..faults.model import StuckAtFault, enumerate_faults
from ..simulation.batchfaultsim import BatchFaultSimulator
from ..simulation.vectors import random_vectors

__all__ = ["ErTestSet", "estimate_fault_er", "generate_er_tests"]


def estimate_fault_er(
    circuit: Circuit,
    faults: Optional[Sequence[StuckAtFault]] = None,
    num_vectors: int = 4_096,
    seed: int = 0,
) -> Dict[StuckAtFault, float]:
    """Estimate each fault's error rate over one shared random batch."""
    if faults is None:
        faults = enumerate_faults(circuit)
    vecs = random_vectors(len(circuit.inputs), num_vectors, np.random.default_rng(seed))
    batch = BatchFaultSimulator(circuit)
    batch.load_batch(vecs)
    return {st.fault: st.error_rate for st in batch.evaluate(faults)}


@dataclass
class ErTestSet:
    """Result of error-rate test generation."""

    vectors: np.ndarray  # (num_tests, num_inputs) bool
    er_threshold: float
    targets: List[StuckAtFault] = field(default_factory=list)
    covered: int = 0
    fault_er: Dict[StuckAtFault, float] = field(default_factory=dict)
    #: Size of the shared candidate batch behind every ER estimate (the
    #: sample size of the binomial proportion; 0 when unknown).
    num_vectors: int = 0

    @property
    def num_tests(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def coverage(self) -> float:
        return self.covered / len(self.targets) if self.targets else 1.0

    @property
    def skipped_faults(self) -> int:
        """Faults whose ER is tolerable and therefore left untested."""
        return sum(1 for er in self.fault_er.values() if er <= self.er_threshold)

    def er_confidence(
        self, fault: StuckAtFault, z: float = 1.96
    ) -> Tuple[float, float]:
        """Wilson-score confidence interval for one fault's sampled ER.

        The skip decision (``fault_er[f] <= er_threshold``) rides on a
        point estimate; the interval says how sure that decision is --
        a fault whose interval straddles the threshold was a close
        call.  ``(0.0, 1.0)`` when the batch size is unknown.
        """
        from ..obs.quality import er_interval

        return er_interval(self.fault_er[fault], self.num_vectors, z=z)


def generate_er_tests(
    circuit: Circuit,
    er_threshold: float,
    num_candidates: int = 2_048,
    seed: int = 0,
    collapse: bool = True,
    max_tests: Optional[int] = None,
) -> ErTestSet:
    """Build a test set for the faults whose ER exceeds the threshold.

    The candidate pool is simulated once per (collapsed) fault with the
    batch fault simulator; ER estimates fall out of the same detection
    masks; vectors are then chosen greedily until every above-threshold
    fault is covered (or the pool/`max_tests` is exhausted).
    """
    if not 0.0 <= er_threshold < 1.0:
        raise ValueError("er_threshold must be in [0, 1)")
    rng = np.random.default_rng(seed)
    vecs = random_vectors(len(circuit.inputs), num_candidates, rng)

    if collapse:
        fault_list = collapse_faults(circuit).representatives
    else:
        fault_list = enumerate_faults(circuit)

    batch = BatchFaultSimulator(circuit)
    batch.load_batch(vecs)
    stats = batch.evaluate(fault_list, detailed=True)
    fault_er = {st.fault: st.error_rate for st in stats}
    hits = [st for st in stats if st.error_rate > er_threshold]
    targets = [st.fault for st in hits]
    # detects[k, v]: candidate vector v detects target k
    detects = np.array([st.detected for st in hits], dtype=bool).reshape(
        len(hits), num_candidates
    )
    chosen: List[int] = []
    uncovered = np.ones(len(targets), dtype=bool)
    # greedy cover: repeatedly take the vector detecting the most
    # still-uncovered targets
    while uncovered.any() and (max_tests is None or len(chosen) < max_tests):
        tally = detects[uncovered].sum(axis=0)
        best = int(tally.argmax())
        if tally[best] == 0:
            break
        chosen.append(best)
        uncovered &= ~detects[:, best]
    covered = len(targets) - int(uncovered.sum())
    return ErTestSet(
        vectors=vecs[chosen] if chosen else np.zeros((0, len(circuit.inputs)), dtype=bool),
        er_threshold=er_threshold,
        targets=targets,
        covered=covered,
        fault_er=fault_er,
        num_vectors=num_candidates,
    )
