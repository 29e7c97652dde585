"""Switching-activity estimation (a dynamic-power proxy).

The paper uses area as its cost metric "which can be a good basis for
subsequent reductions for minimizing power and delay"; this module
quantifies that: toggle rates per signal are estimated by bit-parallel
simulation of consecutive random vector pairs, and the weighted sum
over fanout (the capacitance proxy) gives a relative dynamic-power
figure.  Comparing original vs. simplified circuits shows the power
side-effect of the area optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..circuit import Circuit
from ..simulation.compiled import CompiledSimulator
from ..simulation.vectors import popcount_words, random_vectors

__all__ = ["PowerEstimate", "estimate_switching"]


@dataclass
class PowerEstimate:
    """Switching-activity report for one circuit."""

    activity: Dict[str, float]  # per-signal toggle probability
    weighted_activity: float  # sum of activity x (fanout + 1)
    num_transitions: int  # vector pairs evaluated

    @property
    def mean_activity(self) -> float:
        if not self.activity:
            return 0.0
        return sum(self.activity.values()) / len(self.activity)


def estimate_switching(
    circuit: Circuit,
    num_pairs: int = 5_000,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> PowerEstimate:
    """Estimate per-signal toggle rates under random vector pairs.

    Consecutive vectors are independent uniform draws (zero-delay
    model, no glitching); the toggle probability of a signal is the
    fraction of pairs on which its value changes.  The weighted total
    uses (fanout + 1) as the load proxy.
    """
    rng = rng or np.random.default_rng(seed)
    sim = CompiledSimulator(circuit)
    a = sim.run(random_vectors(len(circuit.inputs), num_pairs, rng))
    b = sim.run(random_vectors(len(circuit.inputs), num_pairs, rng))
    fan = circuit.fanout_map()
    activity: Dict[str, float] = {}
    weighted = 0.0
    for s in circuit.signals():
        toggles = popcount_words(np.bitwise_xor(a.words_for(s), b.words_for(s)))
        rate = toggles / num_pairs
        activity[s] = rate
        load = len(fan.get(s, ())) + 1
        weighted += rate * load
    return PowerEstimate(
        activity=activity,
        weighted_activity=weighted,
        num_transitions=num_pairs,
    )
