"""Logic simulation: bit-parallel 2-valued, differential fault, 5-valued."""

from .vectors import (
    exhaustive_vectors,
    ints_from_vectors,
    num_words,
    pack_vectors,
    popcount_words,
    random_vectors,
    tail_mask,
    unpack_vectors,
    vectors_from_ints,
)
from .logicsim import LogicSimulator, SimResult
from .compiled import (
    CompiledProgram,
    CompiledSimulator,
    circuit_fingerprint,
    compile_program,
)
from .faultsim import DifferentialResult, FaultSimulator
from .batchfaultsim import BatchFaultSimulator, FaultBatchStats
from . import fivevalue

__all__ = [
    "LogicSimulator",
    "SimResult",
    "CompiledProgram",
    "CompiledSimulator",
    "circuit_fingerprint",
    "compile_program",
    "FaultSimulator",
    "DifferentialResult",
    "BatchFaultSimulator",
    "FaultBatchStats",
    "fivevalue",
    "pack_vectors",
    "unpack_vectors",
    "popcount_words",
    "random_vectors",
    "exhaustive_vectors",
    "vectors_from_ints",
    "ints_from_vectors",
    "num_words",
    "tail_mask",
]
