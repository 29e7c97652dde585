"""Vector packing/unpacking and generation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simulation import (
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


def test_num_words():
    assert num_words(1) == 1
    assert num_words(64) == 1
    assert num_words(65) == 2
    assert num_words(128) == 2


def test_tail_mask():
    m = tail_mask(70)
    assert len(m) == 2
    assert int(m[0]) == 0xFFFFFFFFFFFFFFFF
    assert int(m[1]) == (1 << 6) - 1
    assert int(tail_mask(64)[0]) == 0xFFFFFFFFFFFFFFFF


@given(
    n_vec=st.integers(1, 200),
    n_sig=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_pack_unpack_roundtrip(n_vec, n_sig, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, 2, size=(n_vec, n_sig)).astype(bool)
    packed = pack_vectors(vecs)
    assert packed.shape == (n_sig, num_words(n_vec))
    back = unpack_vectors(packed, n_vec)
    assert back.dtype == bool
    assert (back == vecs).all()


def test_pack_bit_order():
    vecs = np.zeros((65, 1), dtype=bool)
    vecs[0, 0] = True
    vecs[64, 0] = True
    packed = pack_vectors(vecs)
    assert int(packed[0, 0]) == 1  # vector 0 -> bit 0 of word 0
    assert int(packed[0, 1]) == 1  # vector 64 -> bit 0 of word 1


@pytest.mark.parametrize("native", [True, False])
def test_word_popcounts_both_branches(monkeypatch, native):
    """The ``np.bitwise_count`` branch and the byte-table fallback (numpy
    < 2.0) count the same bits, word by word, in any array shape."""
    from repro.simulation.vectors import word_popcounts

    if not native:
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    elif not hasattr(np, "bitwise_count"):
        pytest.skip("this numpy has no bitwise_count")
    rng = np.random.default_rng(4)
    words = rng.integers(0, 2**63, size=(3, 5), dtype=np.uint64) * np.uint64(2)
    words[0, 0] = 0
    words[1, 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    words[2, 2] |= np.uint64(1)
    expected = [[bin(int(x)).count("1") for x in row] for row in words]
    counts = word_popcounts(words)
    assert counts.shape == words.shape
    assert counts.tolist() == expected
    assert word_popcounts(words[1]).tolist() == expected[1]
    assert popcount_words(words) == sum(map(sum, expected))


def test_pack_shape_validation():
    with pytest.raises(ValueError):
        pack_vectors(np.zeros(8, dtype=bool))


def test_exhaustive_vectors():
    vecs = exhaustive_vectors(3)
    assert vecs.shape == (8, 3)
    vals = sorted(int(v[0]) + 2 * int(v[1]) + 4 * int(v[2]) for v in vecs)
    assert vals == list(range(8))


def test_exhaustive_limit():
    with pytest.raises(ValueError):
        exhaustive_vectors(40)


def test_random_vectors_deterministic():
    a = random_vectors(5, 100, np.random.default_rng(1))
    b = random_vectors(5, 100, np.random.default_rng(1))
    assert (a == b).all()
    assert a.shape == (100, 5)


@given(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=50))
def test_ints_roundtrip(values):
    vecs = vectors_from_ints(values, 16)
    back = ints_from_vectors(vecs)
    assert [int(v) for v in back] == values
