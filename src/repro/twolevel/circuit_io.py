"""Bridges between two-level covers and gate-level circuits.

``sop_to_circuit`` synthesizes an AND-OR netlist from a cover so the
multi-level machinery (simulation, metrics, further simplification)
can run on two-level results; ``truth_table_of`` extracts a
single-output truth table from a small circuit so the two-level flow
can consume multi-level functions.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..circuit import Circuit, CircuitBuilder
from ..simulation.compiled import CompiledSimulator
from ..simulation.vectors import exhaustive_vectors
from .quine import Cube, SopCover

__all__ = ["sop_to_circuit", "truth_table_of"]


def sop_to_circuit(
    cover: SopCover,
    name: str = "sop",
    input_names: Optional[List[str]] = None,
) -> Circuit:
    """AND-OR netlist of a cover (inverters shared per variable)."""
    b = CircuitBuilder(name)
    n = cover.n
    ins = [b.input(input_names[i] if input_names else f"x{i}") for i in range(n)]
    inverted: dict = {}

    def lit(i: int, positive: bool) -> str:
        if positive:
            return ins[i]
        if i not in inverted:
            inverted[i] = b.NOT(ins[i])
        return inverted[i]

    terms: List[str] = []
    for cube in cover.cubes:
        lits = [
            lit(i, bool((cube.value >> i) & 1))
            for i in range(n)
            if not (cube.mask >> i) & 1
        ]
        if not lits:  # tautological cube
            terms = [b.const(1)]
            break
        terms.append(b.AND(*lits) if len(lits) > 1 else lits[0])
    if not terms:
        out = b.const(0)
    elif len(terms) == 1:
        out = b.BUF(terms[0], name=f"{name}_out")
    else:
        out = b.OR(*terms, name=f"{name}_out")
    b.output(out)
    return b.build()


def truth_table_of(circuit: Circuit, output: Optional[str] = None) -> Tuple[int, Set[int]]:
    """(num_inputs, ON-set) of one output of a small circuit."""
    out = output or circuit.outputs[0]
    n = len(circuit.inputs)
    vecs = exhaustive_vectors(n)
    values = CompiledSimulator(circuit).run(vecs).values_for(out)
    on = {m for m in range(1 << n) if values[m]}
    return n, on
