"""Theoretical ER/ES bounds for double faults (Section III.C).

The paper analyzes when single-fault metrics compose:

* **Lemma 1** (disjoint transitive fanouts): no gate can see faulty
  values from both faults, so

  - ``abs(ES_ij) <= abs(ES_i) + abs(ES_j)``       (eq. 3)
  - ``ER_ij = |T_i  U  T_j| / 2**n``              (eq. 4)

* **Lemma 2** (general case):

  - ``abs(ES_jk) <= abs(ES_j) + abs(ES_k) + 3 W`` (eq. 5)

  where W sums the weights of outputs at which the two faults'
  parities differ or either parity is *both* -- the outputs where an
  interacting gate can flip a D into a D-bar.

* For ER with interacting faults the paper concludes **no efficient
  upper bound exists** in terms of single-fault ERs; the library
  therefore always measures ER differentially on the full fault set
  (see :mod:`repro.metrics.estimate`), and this module exposes the
  bound-checking machinery used to validate the lemmas experimentally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..circuit.structure import fanout_disjoint, transitive_fanout
from ..faults.model import StuckAtFault
from ..simulation.faultsim import FaultSimulator
from ..simulation.compiled import CompiledSimulator
from .parity import Parity, parity_profile

__all__ = [
    "DoubleFaultAnalysis",
    "analyze_double_fault",
    "lemma1_es_bound",
    "lemma1_er",
    "lemma2_w",
    "lemma2_es_bound",
]


def lemma1_es_bound(es_i: int, es_j: int) -> int:
    """Equation (3): ES bound for fanout-disjoint double faults."""
    return abs(es_i) + abs(es_j)


def lemma1_er(tests_i: np.ndarray, tests_j: np.ndarray) -> float:
    """Equation (4): exact ER of a fanout-disjoint double fault.

    Arguments are boolean per-vector detection masks over the *same*
    (ideally exhaustive) vector batch.
    """
    union = np.logical_or(tests_i, tests_j)
    n = union.shape[0]
    return float(np.count_nonzero(union)) / n if n else 0.0


def lemma2_w(
    circuit: Circuit,
    fault_i: StuckAtFault,
    fault_j: StuckAtFault,
    vectors: np.ndarray,
    simulator: Optional[CompiledSimulator] = None,
) -> int:
    """The W term of Lemma 2.

    Sums the weights of value outputs structurally reached by *both*
    faults, except those certified to be in Case (a) of Section
    III.C.2: both faults observably single-polarity there with the
    *same* polarity.  A fault whose individual effect never reaches an
    output (parity undefined/NONE) cannot certify Case (a) -- two
    individually-redundant faults can jointly flip an output either way
    -- so such outputs are counted conservatively, as if the parity
    were *both*.  (The paper leaves this corner implicit; the
    property-based tests exhibit double faults that violate the bound
    under the laxer reading.)
    """
    sim = simulator or CompiledSimulator(circuit)
    prof_i = parity_profile(circuit, fault_i, vectors, sim)
    prof_j = parity_profile(circuit, fault_j, vectors, sim)
    tfo_i = transitive_fanout(circuit, fault_i.line.signal, include_self=True)
    tfo_j = transitive_fanout(circuit, fault_j.line.signal, include_self=True)
    value_outputs = circuit.data_outputs or list(circuit.outputs)
    w = 0
    for o in value_outputs:
        if o not in tfo_i or o not in tfo_j:
            continue
        pi, pj = prof_i[o], prof_j[o]
        case_a = pi is pj and pi in (Parity.ODD, Parity.EVEN)
        if not case_a:
            w += int(circuit.output_weights.get(o, 1))
    return w


def lemma2_es_bound(es_i: int, es_j: int, w: int) -> int:
    """Equation (5): ES bound for the general double fault."""
    return abs(es_i) + abs(es_j) + 3 * w


@dataclass
class DoubleFaultAnalysis:
    """Measured metrics and bounds for one double fault."""

    fault_i: StuckAtFault
    fault_j: StuckAtFault
    disjoint: bool
    es_i: int
    es_j: int
    es_ij: int
    er_i: float
    er_j: float
    er_ij: float
    w: int

    @property
    def lemma1_holds(self) -> bool:
        """Equation (3) (only meaningful when ``disjoint``)."""
        return abs(self.es_ij) <= lemma1_es_bound(self.es_i, self.es_j)

    @property
    def lemma2_holds(self) -> bool:
        """Equation (5) -- valid for any double fault."""
        return abs(self.es_ij) <= lemma2_es_bound(self.es_i, self.es_j, self.w)


def analyze_double_fault(
    circuit: Circuit,
    fault_i: StuckAtFault,
    fault_j: StuckAtFault,
    vectors: np.ndarray,
) -> DoubleFaultAnalysis:
    """Measure ES/ER for two faults singly and jointly over one batch.

    With an exhaustive batch every quantity is exact, which is how the
    lemma property-tests use this helper.
    """
    fsim = FaultSimulator(circuit)
    d_i = fsim.differential(vectors, [fault_i])
    d_j = fsim.differential(vectors, [fault_j])
    d_ij = fsim.differential(vectors, [fault_i, fault_j])
    return DoubleFaultAnalysis(
        fault_i=fault_i,
        fault_j=fault_j,
        disjoint=fanout_disjoint(circuit, fault_i.line.signal, fault_j.line.signal),
        es_i=d_i.max_abs_deviation,
        es_j=d_j.max_abs_deviation,
        es_ij=d_ij.max_abs_deviation,
        er_i=d_i.error_rate,
        er_j=d_j.error_rate,
        er_ij=d_ij.error_rate,
        w=lemma2_w(circuit, fault_i, fault_j, vectors),
    )
