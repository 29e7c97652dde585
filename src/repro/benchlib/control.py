"""Deterministic control-logic generator (PLA-style).

The ISCAS85 circuits embed their arithmetic cores in large blobs of
random-looking control logic (opcode decode, condition matrices,
interrupt logic).  :func:`control_pla` synthesizes such a blob:
``terms`` AND-terms over a literal pool drawn deterministically from
the given input signals, OR-folded into ``outputs`` control outputs.
A linear-congruential sequence (not :mod:`random`) keeps the structure
reproducible across runs and platforms.
"""

from __future__ import annotations

from typing import List, Sequence

from ..circuit import CircuitBuilder

__all__ = ["control_pla"]


def control_pla(
    b: CircuitBuilder,
    inputs: Sequence[str],
    terms: int,
    outputs: int,
    term_width: int = 4,
    seed: int = 1,
    prefix: str = "ctl",
) -> List[str]:
    """Build a PLA-like control block; returns the output signals.

    Each AND-term picks ``term_width`` literals (signals or their
    negations) from ``inputs``; terms are distributed round-robin into
    ``outputs`` OR-planes.  The caller declares the returned signals as
    control outputs.
    """
    if not inputs:
        raise ValueError("control_pla needs at least one input signal")
    state = seed & 0x7FFFFFFF or 1

    def nxt(bound: int) -> int:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return state % bound

    inverted = {s: b.NOT(s, name=b.fresh(f"{prefix}_n")) for s in dict.fromkeys(inputs)}
    planes: List[List[str]] = [[] for _ in range(outputs)]
    for t in range(terms):
        lits: List[str] = []
        for _ in range(term_width):
            s = inputs[nxt(len(inputs))]
            lits.append(inverted[s] if nxt(2) else s)
        term = b.AND(*lits, name=b.fresh(f"{prefix}_t"))
        planes[t % outputs].append(term)
    outs: List[str] = []
    for k, plane in enumerate(planes):
        if not plane:
            plane = [inputs[k % len(inputs)]]
        outs.append(
            b.OR(*plane, name=b.fresh(f"{prefix}_o")) if len(plane) > 1 else plane[0]
        )
    return outs
