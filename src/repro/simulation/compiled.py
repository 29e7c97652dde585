"""Compiled whole-netlist simulation kernel.

:class:`LogicSimulator` walks the gate schedule one gate at a time, so
every simulated batch pays one Python dispatch (plus a handful of numpy
calls) *per gate*.  This module lowers a circuit once into a flat
struct-of-arrays **program** executed as a few vectorized numpy passes
per topological level, with no per-gate Python in the inner loop:

* every gate type maps onto one of three bitwise **cores** (AND, OR,
  XOR) plus a per-gate inversion word -- NAND/NOR/XNOR/NOT are their
  base core followed by ``xor ALL_ONES``, BUF is a 1-input OR, and the
  constant gates read the dedicated constant rows;
* the value matrix is one contiguous ``(rows x words)`` uint64 array:
  row 0 is constant zero, row 1 constant one, then the primary inputs,
  then the gates in topological order.  The word axis carries the
  packed vector batch, so bit-parallelism widens past 64 ways simply by
  adding words (``ceil(N/64)`` per batch of N vectors);
* gates of one level are grouped per core and padded to the group's
  maximum fan-in with the core's identity row (the constant-one row for
  AND, constant-zero for OR/XOR), so each level executes as at most
  three gather/fold/scatter passes;
* fault injection needs no recompilation: a **stem** fault overwrites
  the signal's row right after its level executes (before any level for
  primary inputs), and a **branch** fault patches the one
  ``(slot, column)`` entry of its group's input-index array to point at
  a constant row -- the pin reads the stuck value while the stem keeps
  its true value, exactly the line semantics of
  :mod:`repro.faults.model`.

Programs are cached content-keyed by a netlist fingerprint
(:func:`circuit_fingerprint`), so re-materialized but structurally
identical netlists (e.g. the two FOM runs of ``fom="best"``) compile
once.  :class:`CompiledSimulator` is a drop-in for
:class:`LogicSimulator` (same ``run`` / ``run_packed`` / ``index_of``
surface, same :class:`SimResult`), and is bit-identical to it -- pinned
by the golden equivalence suite in
``tests/simulation/test_engine_equivalence.py`` and the property tests
in ``tests/simulation/test_compiled.py``.  The program is the one
lowered form production code evaluates: every 2-valued simulation runs
on it, and :class:`~repro.simulation.batchfaultsim.BatchFaultSimulator`
builds its cone replays from its rows, schedule and levels.
:class:`LogicSimulator` remains the reference oracle.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, GateType
from ..circuit.gates import ALL_ONES
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from .logicsim import SimResult
from .vectors import num_words, pack_vectors

__all__ = [
    "CompiledProgram",
    "CompiledSimulator",
    "circuit_fingerprint",
    "compile_program",
]

#: Core names indexed by opcode, for the per-core pass counters.
_CORE_NAMES = ("and", "or", "xor")

#: Reserved value-matrix rows: constant zero and constant one.  They
#: double as the padding identity rows (one for the AND core, zero for
#: OR/XOR) and as the stuck-value sources for branch-fault patches.
ROW_ZERO = 0
ROW_ONE = 1

#: Core opcodes.  NAND/NOR/XNOR/NOT are the base core + inversion.
CORE_AND = 0
CORE_OR = 1
CORE_XOR = 2

_CORE_OPS = (np.bitwise_and, np.bitwise_or, np.bitwise_xor)

#: Identity row per core, used to pad a group to its maximum fan-in.
CORE_PAD = (ROW_ONE, ROW_ZERO, ROW_ZERO)

_LOWER: Dict[GateType, Tuple[int, bool]] = {
    GateType.AND: (CORE_AND, False),
    GateType.NAND: (CORE_AND, True),
    GateType.OR: (CORE_OR, False),
    GateType.NOR: (CORE_OR, True),
    GateType.XOR: (CORE_XOR, False),
    GateType.XNOR: (CORE_XOR, True),
    GateType.BUF: (CORE_OR, False),
    GateType.NOT: (CORE_OR, True),
}


def lower_entry(
    gtype: GateType, in_rows: Tuple[int, ...]
) -> Tuple[int, bool, List[int]]:
    """Lower one gate to ``(core, invert, input_rows)``.

    Constant gates become a 1-input OR of the matching constant row, so
    every lowered gate reads at least one row and the grouped execution
    needs no zero-arity special case.
    """
    if gtype is GateType.CONST0:
        return CORE_OR, False, [ROW_ZERO]
    if gtype is GateType.CONST1:
        return CORE_OR, False, [ROW_ONE]
    core, invert = _LOWER[gtype]
    return core, invert, list(in_rows)


def pack_group(
    core: int, ents: Sequence[Tuple[int, Sequence[int], bool]]
) -> Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Pack one level's gates of one core into an executable group.

    ``ents`` holds ``(out_row, lowered_input_rows, invert)`` per gate;
    the result is the ``(core, out_rows, in_rows, inv)`` tuple
    :func:`eval_core_group` runs, with every gate padded to the group's
    maximum fan-in by the core's identity row and ``inv`` ``None`` when
    no gate inverts.
    """
    arity = max(len(ins) for _o, ins, _v in ents)
    pad = CORE_PAD[core]
    out_rows = np.asarray([o for o, _ins, _v in ents], dtype=np.intp)
    in_rows = np.empty((arity, len(ents)), dtype=np.intp)
    for col, (_o, ins, _v) in enumerate(ents):
        for j in range(arity):
            in_rows[j, col] = ins[j] if j < len(ins) else pad
    if any(v for _o, _ins, v in ents):
        inv = np.asarray(
            [[ALL_ONES if v else 0] for _o, _ins, v in ents], dtype=np.uint64
        )
    else:
        inv = None
    return core, out_rows, in_rows, inv


def eval_core_group(
    core: int,
    out_rows: np.ndarray,
    in_rows: np.ndarray,
    inv: Optional[np.ndarray],
    work: np.ndarray,
    sl: slice,
) -> None:
    """Evaluate one padded core group on a word slice of the matrix.

    ``in_rows`` has shape ``(arity, k)``: operand *j* of all *k* gates
    at once.  The fancy gather ``work[in_rows[0], sl]`` copies, so the
    in-place fold never aliases the work array, and gates of one level
    never feed each other, so the final scatter is order-free.
    """
    op = _CORE_OPS[core]
    acc = work[in_rows[0], sl]
    for j in range(1, in_rows.shape[0]):
        op(acc, work[in_rows[j], sl], out=acc)
    if inv is not None:
        np.bitwise_xor(acc, inv, out=acc)
    work[out_rows, sl] = acc


class CompiledProgram:
    """The flat struct-of-arrays form of one circuit.

    Pure data, shared freely between simulators (and between the
    whole-netlist and cone-restricted execution paths); per-run state
    lives entirely in the caller's value matrix.
    """

    __slots__ = (
        "fingerprint",
        "num_inputs",
        "num_rows",
        "row_of",
        "schedule",
        "levels",
        "loc",
        "level_of_row",
        "pass_counters",
    )

    def __init__(
        self,
        fingerprint: str,
        num_inputs: int,
        num_rows: int,
        row_of: Dict[str, int],
        schedule: List[Tuple[GateType, int, Tuple[int, ...]]],
        levels: Tuple[Tuple[Tuple, ...], ...],
        loc: Dict[int, Tuple[int, int, int]],
        level_of_row: Dict[int, int],
        pass_counters: Tuple[Tuple[str, int, bool], ...] = (),
    ) -> None:
        self.fingerprint = fingerprint
        self.num_inputs = num_inputs
        self.num_rows = num_rows
        self.row_of = row_of
        self.schedule = schedule
        self.levels = levels
        self.loc = loc
        self.level_of_row = level_of_row
        #: Pass-attribution amounts, precomputed at compile time so
        #: ``run_packed`` pays a handful of ``incr`` calls per *run*
        #: (not per gate): ``(counter name, amount, scale_by_words)``.
        #: Word-scaled amounts count uint64 slots gathered + scattered
        #: per batch word; the rest are per-run pass/row counts.
        self.pass_counters = pass_counters

    def pass_table(self) -> List[Dict]:
        """Per-(level, core) execution-pass breakdown.

        One row per vectorized pass the kernel executes per run:
        topological level, core name, gates evaluated by the pass, the
        padded fan-in, and the uint64 slots it moves per batch word
        (``(arity + 1) * gates``: the operand gathers plus the output
        scatter).
        """
        rows: List[Dict] = []
        for li, groups in enumerate(self.levels):
            for core, out_rows, in_rows, _inv in groups:
                k = int(out_rows.shape[0])
                arity = int(in_rows.shape[0])
                rows.append(
                    {
                        "level": li,
                        "core": _CORE_NAMES[core],
                        "gates": k,
                        "arity": arity,
                        "words_per_batch_word": (arity + 1) * k,
                    }
                )
        return rows


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content digest of the simulated structure (inputs + gates).

    Outputs, weights and data-flags do not change the compiled program
    (they only select rows from the finished matrix), so two netlists
    differing only in output annotations share one cache entry.
    """
    h = hashlib.sha1()
    for s in circuit.inputs:
        h.update(b"i\x00")
        h.update(s.encode())
        h.update(b"\x00")
    for name in circuit.topological_order():
        g = circuit.gates[name]
        h.update(b"g\x00")
        h.update(name.encode())
        h.update(b"\x00")
        h.update(g.gtype.name.encode())
        for s in g.inputs:
            h.update(b"\x00")
            h.update(s.encode())
        h.update(b"\x01")
    return h.hexdigest()


def _build_program(circuit: Circuit) -> CompiledProgram:
    order = circuit.topological_order()
    row_of: Dict[str, int] = {}
    for s in circuit.inputs:
        row_of[s] = 2 + len(row_of)
    for name in order:
        row_of[name] = 2 + len(row_of)

    level: Dict[str, int] = {s: 0 for s in circuit.inputs}
    schedule: List[Tuple[GateType, int, Tuple[int, ...]]] = []
    # (level, core) -> [(out_row, lowered_input_rows, invert)]
    buckets: Dict[Tuple[int, int], List[Tuple[int, List[int], bool]]] = {}
    for name in order:
        g = circuit.gates[name]
        level[name] = 1 + max((level[s] for s in g.inputs), default=0)
        in_rows = tuple(row_of[s] for s in g.inputs)
        schedule.append((g.gtype, row_of[name], in_rows))
        core, invert, ins = lower_entry(g.gtype, in_rows)
        buckets.setdefault((level[name], core), []).append(
            (row_of[name], ins, invert)
        )

    # Every level 1..depth holds a gate (a gate sits one level above
    # its deepest input), so level L executes as index L - 1.
    depth = max(level.values(), default=0)
    level_groups: List[List[Tuple]] = [[] for _ in range(depth)]
    loc: Dict[int, Tuple[int, int, int]] = {}
    level_of_row: Dict[int, int] = {}
    for (lvl, core), ents in sorted(buckets.items()):
        li = lvl - 1
        grp_idx = len(level_groups[li])
        level_groups[li].append(pack_group(core, ents))
        for col, (out_row, _ins, _v) in enumerate(ents):
            loc[out_row] = (li, grp_idx, col)
            level_of_row[out_row] = li
    levels = tuple(tuple(groups) for groups in level_groups)
    return CompiledProgram(
        fingerprint="",  # filled by compile_program
        num_inputs=len(circuit.inputs),
        num_rows=2 + len(row_of),
        row_of=row_of,
        schedule=schedule,
        levels=levels,
        loc=loc,
        level_of_row=level_of_row,
        pass_counters=_build_pass_counters(levels),
    )


def _build_pass_counters(
    levels: Tuple[Tuple[Tuple, ...], ...]
) -> Tuple[Tuple[str, int, bool], ...]:
    """Precompute the per-run pass-attribution counter amounts.

    Aggregate totals plus a per-core split, all derived from the group
    shapes: ``passes`` is vectorized passes executed, ``rows_touched``
    is output rows scattered, and ``words_moved`` is uint64 slots
    gathered + scattered -- the word-scaled entries multiply by the
    batch word count at run time.
    """
    per_core = {c: [0, 0, 0] for c in range(len(_CORE_NAMES))}
    for groups in levels:
        for core, out_rows, in_rows, _inv in groups:
            k = int(out_rows.shape[0])
            arity = int(in_rows.shape[0])
            stats = per_core[core]
            stats[0] += 1
            stats[1] += k
            stats[2] += (arity + 1) * k
    entries: List[Tuple[str, int, bool]] = []
    totals = [0, 0, 0]
    for core, name in enumerate(_CORE_NAMES):
        passes, rows, slots = per_core[core]
        if not passes:
            continue
        totals[0] += passes
        totals[1] += rows
        totals[2] += slots
        entries.append((f"kernel.pass.{name}.passes", passes, False))
        entries.append((f"kernel.pass.{name}.rows_touched", rows, False))
        entries.append((f"kernel.pass.{name}.words_moved", slots, True))
    entries.append(("kernel.pass.executions", totals[0], False))
    entries.append(("kernel.pass.rows_touched", totals[1], False))
    entries.append(("kernel.pass.words_moved", totals[2], True))
    return tuple(entries)


#: Content-keyed program cache (per process).  Bounded: the greedy loop
#: touches at most a handful of distinct netlist structures at a time.
_PROGRAM_CACHE: "OrderedDict[str, CompiledProgram]" = OrderedDict()
_PROGRAM_CACHE_MAX = 64


def compile_program(
    circuit: Circuit, obs: Optional[Instrumentation] = None
) -> CompiledProgram:
    """Lower a circuit to its :class:`CompiledProgram` (content-cached)."""
    obs = obs if obs is not None else get_active()
    key = circuit_fingerprint(circuit)
    program = _PROGRAM_CACHE.get(key)
    if program is not None:
        _PROGRAM_CACHE.move_to_end(key)
        obs.incr("compile.cache_hits")
        return program
    obs.incr("compile.cache_misses")
    with obs.span("compile.lower"):
        program = _build_program(circuit)
        program.fingerprint = key
    obs.incr("compile.gates_lowered", len(program.schedule))
    obs.incr("compile.levels", len(program.levels))
    _PROGRAM_CACHE[key] = program
    while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAX:
        _PROGRAM_CACHE.popitem(last=False)
        obs.incr("compile.cache_evictions")
    return program


class CompiledSimulator:
    """Level-vectorized drop-in for :class:`LogicSimulator`.

    Same construction contract (validates the circuit), same run
    surface, same :class:`SimResult`; ``index_of`` maps signals to
    *matrix rows* (offset by the two constant rows), and every consumer
    of the result goes through ``index_of``, so the offset never leaks.
    """

    def __init__(
        self,
        circuit: Circuit,
        obs: Optional[Instrumentation] = None,
        program: Optional[CompiledProgram] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.program = (
            program if program is not None else compile_program(circuit, self.obs)
        )
        self.num_signals = len(self.program.row_of)

    def index_of(self, signal: str) -> int:
        """Value-matrix row assigned to a signal."""
        return self.program.row_of[signal]

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: np.ndarray,
        faults: Iterable[StuckAtFault] = (),
    ) -> SimResult:
        """Simulate a batch of input vectors (see :meth:`LogicSimulator.run`)."""
        vecs = np.asarray(vectors, dtype=bool)
        if vecs.ndim != 2 or vecs.shape[1] != len(self.circuit.inputs):
            raise ValueError(
                f"expected (N, {len(self.circuit.inputs)}) vector matrix, "
                f"got {vecs.shape}"
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
        p = self.program
        values = np.empty((p.num_rows, w), dtype=np.uint64)
        values[ROW_ZERO] = 0
        values[ROW_ONE] = ALL_ONES
        values[2 : 2 + p.num_inputs] = input_words

        # Fault overlays: stems become row overwrites keyed by the
        # driving level (-1 = primary input, applied before any gate),
        # branches become per-run copies of one group's input-index
        # array with the faulted (slot, column) repointed at a constant
        # row.
        stem_by_level: Dict[int, List[Tuple[int, np.uint64]]] = {}
        patches: Dict[Tuple[int, int], np.ndarray] = {}
        for f in faults:
            word = ALL_ONES if f.value else np.uint64(0)
            if f.line.is_stem:
                row = p.row_of[f.line.signal]
                lvl = p.level_of_row.get(row, -1)
                stem_by_level.setdefault(lvl, []).append((row, word))
            else:
                gate_row = p.row_of[f.line.gate]
                li, gi, col = p.loc[gate_row]
                key = (li, gi)
                patched = patches.get(key)
                if patched is None:
                    patched = p.levels[li][gi][2].copy()
                    patches[key] = patched
                patched[f.line.pin, col] = ROW_ONE if f.value else ROW_ZERO

        sl = slice(0, w)
        if not stem_by_level and not patches:
            for groups in p.levels:
                for core, out_rows, in_rows, inv in groups:
                    eval_core_group(core, out_rows, in_rows, inv, values, sl)
        else:
            for row, word in stem_by_level.get(-1, ()):
                values[row] = word
            for li, groups in enumerate(p.levels):
                for gi, (core, out_rows, in_rows, inv) in enumerate(groups):
                    if patches:
                        in_rows = patches.get((li, gi), in_rows)
                    eval_core_group(core, out_rows, in_rows, inv, values, sl)
                for row, word in stem_by_level.get(li, ()):
                    values[row] = word
            if patches:
                self.obs.incr("kernel.overlay_patches", len(patches))
            if stem_by_level:
                self.obs.incr(
                    "kernel.overlay_stems",
                    sum(len(v) for v in stem_by_level.values()),
                )
        self.obs.incr("kernel.runs")
        self.obs.incr("kernel.words_simulated", w)
        # Pass attribution, precomputed at compile time: a handful of
        # incr calls per run (no-ops under NullInstrumentation).
        for name, amount, by_words in p.pass_counters:
            self.obs.incr(name, amount * w if by_words else amount)
        return SimResult(self, values, num_vectors)
