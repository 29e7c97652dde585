"""64-way bit-parallel logic simulation with stuck-at fault injection.

:class:`LogicSimulator` compiles a circuit once (index assignment +
topological gate schedule) and then evaluates arbitrary packed vector
batches, optionally with a set of stuck-at faults injected.  Fault
injection follows the line semantics of :mod:`repro.faults.model`:

* a **stem** fault forces the whole signal after (or instead of) its
  driver's evaluation, so every consumer sees the stuck value;
* a **branch** fault substitutes the stuck value only on the one gate
  pin it names.

This per-gate simulator is the reference oracle: production code runs
the compiled kernel (:mod:`repro.simulation.compiled`), and the tests
check that kernel and the exhaustive ground truth against this one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, GateType
from ..circuit.gates import ALL_ONES
from ..faults.model import StuckAtFault
from .vectors import num_words, pack_vectors, unpack_vectors

__all__ = ["LogicSimulator", "SimResult"]


class SimResult:
    """Packed signal values produced by one simulation run."""

    def __init__(
        self,
        simulator: "LogicSimulator",
        words: np.ndarray,
        num_vectors: int,
    ) -> None:
        self._sim = simulator
        self._words = words
        self.num_vectors = num_vectors

    def words_for(self, signal: str) -> np.ndarray:
        """Packed uint64 words of one signal."""
        return self._words[self._sim.index_of(signal)]

    def values_for(self, signal: str) -> np.ndarray:
        """Boolean value of one signal under each vector, shape (N,)."""
        return unpack_vectors(self._words[None, self._sim.index_of(signal)], self.num_vectors)[
            :, 0
        ]

    def output_bits(self, outputs: Optional[Sequence[str]] = None) -> np.ndarray:
        """Boolean matrix (N vectors x outputs) for the given signals."""
        outs = tuple(outputs) if outputs is not None else self._sim.circuit.outputs
        rows = np.stack([self._words[self._sim.index_of(o)] for o in outs])
        return unpack_vectors(rows, self.num_vectors)

    def output_values(
        self,
        outputs: Optional[Sequence[str]] = None,
        weights: Optional[Mapping[str, int]] = None,
    ) -> List[int]:
        """Weighted numeric output value per vector (exact Python ints)."""
        outs = tuple(outputs) if outputs is not None else self._sim.circuit.outputs
        weights = weights or self._sim.circuit.output_weights
        bits = self.output_bits(outs)
        wvec = [int(weights.get(o, 1)) for o in outs]
        return [int(sum(w for w, b in zip(wvec, row) if b)) for row in bits]


class LogicSimulator:
    """Compiled bit-parallel simulator for one circuit.

    The compilation assigns a dense index to every signal and schedules
    gates topologically; :meth:`run` then walks the schedule with numpy
    bitwise kernels.  The simulator holds no per-run state and can be
    reused across many vector batches and fault sets.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self._index: Dict[str, int] = {}
        for s in circuit.inputs:
            self._index[s] = len(self._index)
        self._schedule: List[Tuple[GateType, int, Tuple[int, ...]]] = []
        order = circuit.topological_order()
        for name in order:
            self._index[name] = len(self._index)
        for name in order:
            g = circuit.gates[name]
            self._schedule.append(
                (g.gtype, self._index[name], tuple(self._index[s] for s in g.inputs))
            )
        self.num_signals = len(self._index)

    def index_of(self, signal: str) -> int:
        """Dense index assigned to a signal."""
        return self._index[signal]

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: np.ndarray,
        faults: Iterable[StuckAtFault] = (),
    ) -> SimResult:
        """Simulate a batch of input vectors.

        ``vectors`` is a boolean matrix (N, num_inputs) in the circuit's
        input order.  ``faults`` is any iterable of stuck-at faults to
        inject simultaneously (empty for fault-free simulation).
        """
        vecs = np.asarray(vectors, dtype=bool)
        if vecs.ndim != 2 or vecs.shape[1] != len(self.circuit.inputs):
            raise ValueError(
                f"expected (N, {len(self.circuit.inputs)}) vector matrix, got {vecs.shape}"
            )
        packed = pack_vectors(vecs)
        return self.run_packed(packed, vecs.shape[0], faults)

    def run_packed(
        self,
        input_words: np.ndarray,
        num_vectors: int,
        faults: Iterable[StuckAtFault] = (),
    ) -> SimResult:
        """Simulate from already-packed input words (num_inputs, W)."""
        w = input_words.shape[1]
        if w != num_words(num_vectors):
            raise ValueError("packed input word count does not match num_vectors")
        values = np.zeros((self.num_signals, w), dtype=np.uint64)
        values[: len(self.circuit.inputs)] = input_words

        stem_over: Dict[int, np.uint64] = {}
        branch_over: Dict[Tuple[int, int], np.uint64] = {}
        for f in faults:
            word = ALL_ONES if f.value else np.uint64(0)
            if f.line.is_stem:
                stem_over[self._index[f.line.signal]] = word
            else:
                gate_idx = self._index[f.line.gate]
                branch_over[(gate_idx, f.line.pin)] = word

        # Apply PI stem faults before any gate evaluates.
        for idx, word in stem_over.items():
            if idx < len(self.circuit.inputs):
                values[idx] = word

        for gtype, out_idx, in_idx in self._schedule:
            operands: List[np.ndarray] = []
            for pin, idx in enumerate(in_idx):
                ov = branch_over.get((out_idx, pin))
                if ov is not None:
                    operands.append(np.full(w, ov, dtype=np.uint64))
                else:
                    operands.append(values[idx])
            _eval_into(gtype, operands, values[out_idx], w)
            so = stem_over.get(out_idx)
            if so is not None:
                values[out_idx] = so
        return SimResult(self, values, num_vectors)


def _eval_into(
    gtype: GateType, operands: List[np.ndarray], out: np.ndarray, w: int
) -> None:
    """Evaluate one gate into a preallocated row."""
    if gtype is GateType.CONST0:
        out[:] = 0
        return
    if gtype is GateType.CONST1:
        out[:] = ALL_ONES
        return
    if gtype is GateType.BUF:
        out[:] = operands[0]
        return
    if gtype is GateType.NOT:
        np.bitwise_not(operands[0], out=out)
        return
    np.copyto(out, operands[0])
    if gtype in (GateType.AND, GateType.NAND):
        for arr in operands[1:]:
            np.bitwise_and(out, arr, out=out)
        if gtype is GateType.NAND:
            np.bitwise_not(out, out=out)
    elif gtype in (GateType.OR, GateType.NOR):
        for arr in operands[1:]:
            np.bitwise_or(out, arr, out=out)
        if gtype is GateType.NOR:
            np.bitwise_not(out, out=out)
    elif gtype in (GateType.XOR, GateType.XNOR):
        for arr in operands[1:]:
            np.bitwise_xor(out, arr, out=out)
        if gtype is GateType.XNOR:
            np.bitwise_not(out, out=out)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown gate type {gtype!r}")
