"""Fault parity at primary outputs (Definition 7 of the paper).

For a primary output, the parity of a fault is **odd** when the fault
can only ever produce the faulty value D there (good 1 / faulty 0),
**even** when it can only produce D-bar (good 0 / faulty 1), and
**both** when different test vectors produce each.  Parity is what
determines whether two faults can interact destructively at an output
(Case a vs. Case b of Section III.C.2).

Exact parity requires examining every vector; :func:`fault_parity`
accepts any vector batch and is exact when given an exhaustive one
(which is how the lemma property-tests use it).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuit import Circuit
from ..faults.model import StuckAtFault
from ..simulation.compiled import CompiledSimulator

__all__ = ["Parity", "fault_parity", "parity_profile"]


class Parity(enum.Enum):
    """Observable polarity of a fault's effect at one output."""

    ODD = "odd"  # only D  (good 1 -> faulty 0)
    EVEN = "even"  # only D-bar (good 0 -> faulty 1)
    BOTH = "both"
    NONE = "none"  # the fault never changes this output (on the batch)


def fault_parity(
    circuit: Circuit,
    fault: StuckAtFault,
    output: str,
    vectors: np.ndarray,
    simulator: Optional[CompiledSimulator] = None,
) -> Parity:
    """Parity of ``fault`` at ``output`` over a vector batch."""
    return parity_profile(circuit, fault, vectors, simulator)[output]


def parity_profile(
    circuit: Circuit,
    fault: StuckAtFault,
    vectors: np.ndarray,
    simulator: Optional[CompiledSimulator] = None,
) -> Dict[str, Parity]:
    """Parity of ``fault`` at every primary output over a vector batch."""
    sim = simulator or CompiledSimulator(circuit)
    good = sim.run(vectors)
    faulty = sim.run(vectors, [fault])
    profile: Dict[str, Parity] = {}
    for o in circuit.outputs:
        g = good.values_for(o)
        f = faulty.values_for(o)
        has_d = bool(np.any(g & ~f))  # good 1, faulty 0
        has_dbar = bool(np.any(~g & f))  # good 0, faulty 1
        if has_d and has_dbar:
            profile[o] = Parity.BOTH
        elif has_d:
            profile[o] = Parity.ODD
        elif has_dbar:
            profile[o] = Parity.EVEN
        else:
            profile[o] = Parity.NONE
    return profile
