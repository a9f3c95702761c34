import numpy as np
import pytest

from src_connector.bitpack import (
    PackedArray,
    bits_from_bool,
    build_rank_blocks,
    get_bits,
    popcount,
    rank1,
)


def test_popcount():
    arr = np.array([0, 1, 0xFF, (1 << 64) - 1], dtype=np.uint64)
    assert popcount(arr).tolist() == [0, 1, 8, 64]


def test_set_get_bits():
    pos = np.array([0, 1, 63, 64, 130, 199], dtype=np.int64)
    mask = np.zeros(200, dtype=bool)
    mask[pos] = True
    bits = bits_from_bool(mask)
    probe = np.arange(200, dtype=np.int64)
    got = get_bits(bits, probe)
    assert np.flatnonzero(got).tolist() == pos.tolist()


@pytest.mark.parametrize(
    "n,density",
    [
        (1, 1.0), (511, 0.5), (512, 0.5), (5000, 0.1), (5000, 0.9),
        (4096, 1.0),  # all ones: every 9-bit in-block field reaches its maximum, 448
        (300_001, 0.5),  # many blocks, more positions than one 2^17 pass
    ],
)
def test_rank_matches_naive(n, density):
    rng = np.random.default_rng(n)
    flags = rng.random(n) < density
    bits = bits_from_bool(flags)
    blocks = build_rank_blocks(bits)
    pos = np.arange(n, dtype=np.int64)
    # rank1(p) = number of set bits strictly before p
    naive = np.concatenate(([0], np.cumsum(flags)))[:-1]
    assert (rank1(bits, blocks, pos) == naive).all()


@pytest.mark.parametrize("width", [1, 7, 12, 31, 62])
def test_packed_array_roundtrip(width):
    rng = np.random.default_rng(width)
    n = 1000
    vals = rng.integers(0, 1 << width, n, dtype=np.uint64)
    arr = PackedArray(n, width)
    arr.set_many(np.arange(n, dtype=np.int64), vals)
    assert (arr.get_many(np.arange(n, dtype=np.int64)) == vals).all()
    some = np.array([0, 1, n // 2, n - 1], dtype=np.int64)
    assert (arr.get_many(some) == vals[some]).all()
    assert arr.payload_bits == n * width


def test_packed_array_empty():
    arr = PackedArray(0, 12)
    assert arr.payload_bits == 0
    assert len(arr.get_many(np.empty(0, dtype=np.int64))) == 0
