"""Test-vector generation and bit-packing utilities.

The simulators in this package are 64-way bit-parallel: a batch of N
input vectors is stored as, per signal, an array of ``ceil(N/64)``
``uint64`` words whose bit *k* of word *w* holds the signal value under
vector ``64*w + k``.  This module converts between that packed layout
and plain boolean/integer vector representations, and generates the
random and exhaustive vector sets used for ER estimation (the paper
simulates 10,000 random vectors; exhaustive 2**n enumeration is used
for small circuits in tests).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "pack_vectors",
    "unpack_vectors",
    "popcount_words",
    "word_popcounts",
    "random_vectors",
    "exhaustive_vectors",
    "vectors_from_ints",
    "ints_from_vectors",
    "num_words",
    "tail_mask",
]


def num_words(num_vectors: int) -> int:
    """Number of 64-bit words needed to hold ``num_vectors`` bit-slots."""
    return (num_vectors + 63) // 64


def tail_mask(num_vectors: int) -> np.ndarray:
    """Per-word mask selecting only the valid (first ``num_vectors``) bits."""
    w = num_words(num_vectors)
    mask = np.full(w, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = num_vectors % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def pack_vectors(vectors: np.ndarray) -> np.ndarray:
    """Pack a boolean matrix (N vectors x n signals) into words.

    Returns an array of shape ``(n, ceil(N/64))`` and dtype ``uint64``;
    row *i* holds the packed values of signal *i*.
    """
    vecs = np.asarray(vectors, dtype=bool)
    if vecs.ndim != 2:
        raise ValueError(f"expected 2-D (N, n) vector matrix, got shape {vecs.shape}")
    n_vec, n_sig = vecs.shape
    w = num_words(n_vec)
    padded = np.zeros((w * 64, n_sig), dtype=bool)
    padded[:n_vec] = vecs
    # bit k of word w = vector 64*w + k  -> little-endian within each word
    by_word = padded.reshape(w, 64, n_sig)
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :, None]
    packed = (by_word.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    return np.ascontiguousarray(packed.T)


def unpack_vectors(words: np.ndarray, num_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_vectors`: returns bool matrix (N, n)."""
    # read words as little-endian bytes: bit k of word w unpacks to vector 64*w + k
    words = np.ascontiguousarray(words, dtype="<u8")
    if words.ndim == 1:
        words = words[None, :]
    bits = np.unpackbits(
        words.view(np.uint8), axis=1, count=num_vectors, bitorder="little"
    )
    return bits.view(bool).T


_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint64)


def word_popcounts(words: np.ndarray) -> np.ndarray:
    """Number of set bits in each packed word (same shape as ``words``)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    # numpy < 2.0: sum the byte-table counts of each word's 8 bytes
    return _POPCOUNT8[words.view(np.uint8)].reshape(words.shape + (8,)).sum(axis=-1)


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of packed words."""
    return int(word_popcounts(words).sum())


def random_vectors(
    num_inputs: int, num_vectors: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Uniform random boolean vectors, shape ``(num_vectors, num_inputs)``."""
    rng = rng or np.random.default_rng()
    return rng.integers(0, 2, size=(num_vectors, num_inputs), dtype=np.uint8).astype(bool)


def exhaustive_vectors(num_inputs: int, limit: int = 1 << 22) -> np.ndarray:
    """All 2**n input vectors (LSB-first bit order per input index).

    Guarded by ``limit`` to avoid accidentally materializing huge sets.
    """
    total = 1 << num_inputs
    if total > limit:
        raise ValueError(
            f"exhaustive enumeration of {num_inputs} inputs needs {total} vectors "
            f"(> limit {limit}); use random_vectors instead"
        )
    ints = np.arange(total, dtype=np.uint64)
    shifts = np.arange(num_inputs, dtype=np.uint64)
    return ((ints[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)


def vectors_from_ints(values: Sequence[int], num_inputs: int) -> np.ndarray:
    """Build a vector matrix from integers (bit i -> input i)."""
    arr = np.asarray(list(values), dtype=np.uint64)
    shifts = np.arange(num_inputs, dtype=np.uint64)
    return ((arr[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)


def ints_from_vectors(vectors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectors_from_ints` (LSB-first)."""
    vecs = np.asarray(vectors, dtype=np.uint64)
    shifts = np.arange(vecs.shape[1], dtype=np.uint64)
    return (vecs << shifts[None, :]).sum(axis=1, dtype=np.uint64)
