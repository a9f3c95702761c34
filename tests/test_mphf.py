import numpy as np
import pytest

from src_connector.mphf import (
    NOT_FOUND,
    Mphf,
    MphfError,
    MphfFormatError,
)


def _random_keys(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 62, 4 * max(n, 1), dtype=np.uint64)
    keys = np.unique(keys)
    assert len(keys) >= n
    return keys[:n]


def _disjoint(n_keys, n_aliens, seed=0):
    pool = _random_keys(n_keys + n_aliens, seed)
    return pool[:n_keys], pool[n_keys:]


def test_singleton():
    m = Mphf.build(np.array([42], dtype=np.uint64))
    assert m.query(42) == 0


def test_empty():
    m = Mphf.build(np.empty(0, dtype=np.uint64))
    assert m.n_keys == 0
    assert m.query(123) == NOT_FOUND
    assert m.query_batch(np.array([1, 2, 3], dtype=np.uint64)).tolist() == [-1, -1, -1]


def test_bijection_10k():
    keys = _random_keys(10_000, seed=1)
    m = Mphf.build(keys)
    res = m.query_batch(keys)
    assert sorted(res.tolist()) == list(range(10_000))


def test_scalar_matches_batch():
    keys, aliens = _disjoint(5000, 500, seed=2)
    m = Mphf.build(keys)
    probe = np.concatenate([keys[:200], aliens[:200]])
    batch = m.query_batch(probe)
    for key, want in zip(probe.tolist(), batch.tolist()):
        assert m.query(key) == want


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
    assert Mphf.build(keys).serialize() == Mphf.build(keys).serialize()


def test_gamma_validation():
    with pytest.raises(ValueError):
        Mphf.build(np.array([1], dtype=np.uint64), gamma=1.0)


def test_serialize_roundtrip():
    keys, aliens = _disjoint(10_000, 10_000, seed=7)
    m = Mphf.build(keys)
    m2 = Mphf.deserialize(m.serialize())
    probe = np.concatenate([keys, aliens])
    assert (m.query_batch(probe) == m2.query_batch(probe)).all()
    assert m2.serialize() == m.serialize()


def test_serialize_roundtrip_empty():
    m = Mphf.deserialize(Mphf.build(np.empty(0, dtype=np.uint64)).serialize())
    assert m.n_keys == 0


def test_deserialize_bad_magic():
    blob = Mphf.build(np.array([5], dtype=np.uint64)).serialize()
    with pytest.raises(MphfFormatError):
        Mphf.deserialize(b"NOTMAGIC" + blob[8:])


def test_deserialize_truncated():
    blob = Mphf.build(_random_keys(100, seed=8)).serialize()
    with pytest.raises(MphfFormatError):
        Mphf.deserialize(blob[: len(blob) // 2])
