import numpy as np
import pytest

from src_connector.bitpack import PackedArray
from src_connector.mphf import (
    NOT_FOUND,
    Mphf,
    MphfError,
)
from src_connector.quasidict import IndexFormatError, QuasiDictionary, load_index


def _random_keys(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 62, 4 * max(n, 1), dtype=np.uint64)
    keys = np.unique(keys)
    assert len(keys) >= n
    return keys[:n]


def _save_in_index(m, path):
    """Save an MPHF as the index file stores it: wrapped in a k=31 dictionary."""
    qd = QuasiDictionary(31, 1, 12, m, PackedArray(m.n_keys, 12), bytes(16))
    qd.save(path)


def _disjoint(n_keys, n_aliens, seed=0):
    pool = _random_keys(n_keys + n_aliens, seed)
    return pool[:n_keys], pool[n_keys:]


def test_singleton():
    m = Mphf.build(np.array([42], dtype=np.uint64))
    assert m.query_batch(np.array([42], dtype=np.uint64)).tolist() == [0]


def test_empty():
    m = Mphf.build(np.empty(0, dtype=np.uint64))
    assert m.n_keys == 0
    assert m.query_batch(np.array([1, 2, 3], dtype=np.uint64)).tolist() == [-1, -1, -1]


def test_bijection_10k():
    keys = _random_keys(10_000, seed=1)
    m = Mphf.build(keys)
    res = m.query_batch(keys)
    assert sorted(res.tolist()) == list(range(10_000))


def test_duplicate_keys_rejected():
    with pytest.raises(MphfError):
        Mphf.build(np.array([7, 7, 8], dtype=np.uint64))


def test_alien_rejection_over_half_at_gamma2():
    keys, aliens = _disjoint(100_000, 100_000, seed=3)
    m = Mphf.build(keys, gamma=2.0)
    rejected = (m.query_batch(aliens) == NOT_FOUND).mean()
    assert rejected >= 0.5


def test_alien_rejection_monotone_in_gamma():
    keys, aliens = _disjoint(50_000, 50_000, seed=4)
    rates = []
    for gamma in (1.2, 1.5, 2.0):
        m = Mphf.build(keys, gamma=gamma)
        rates.append(float((m.query_batch(aliens) == NOT_FOUND).mean()))
    assert rates[0] < rates[1] < rates[2]


def test_size_budget():
    keys = _random_keys(1_000_000, seed=5)
    m = Mphf.build(keys, gamma=2.0)
    assert m.size_bits() / len(keys) <= 8.0


def test_build_deterministic():
    keys = _random_keys(20_000, seed=6)
    a, b = Mphf.build(keys), Mphf.build(keys)
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert (la.size, la.seed, la.index_offset) == (lb.size, lb.seed, lb.index_offset)
        assert (la.occupied == lb.occupied).all() and (la.collided == lb.collided).all()
    assert list(a.fallback.items()) == list(b.fallback.items())


def test_gamma_validation():
    with pytest.raises(ValueError):
        Mphf.build(np.array([1], dtype=np.uint64), gamma=1.0)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Mphf.build(np.array([1], dtype=np.uint64), gamma=gamma)


def test_serialize_roundtrip(tmp_path):
    keys, aliens = _disjoint(10_000, 10_000, seed=7)
    m = Mphf.build(keys)
    path, resaved = tmp_path / "index.bin", tmp_path / "resaved.bin"
    _save_in_index(m, path)
    m2 = load_index(path)[0].mphf
    probe = np.concatenate([keys, aliens])
    assert (m.query_batch(probe) == m2.query_batch(probe)).all()
    _save_in_index(m2, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_serialize_roundtrip_empty(tmp_path):
    path = tmp_path / "index.bin"
    _save_in_index(Mphf.build(np.empty(0, dtype=np.uint64)), path)
    assert load_index(path)[0].mphf.n_keys == 0


def test_deserialize_bad_magic(tmp_path):
    path = tmp_path / "index.bin"
    _save_in_index(Mphf.build(np.array([5], dtype=np.uint64)), path)
    path.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
    with pytest.raises(IndexFormatError):
        load_index(path)
