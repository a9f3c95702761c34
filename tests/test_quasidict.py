import numpy as np
import pytest

from src_connector.kmers import SolidKmerSet, canonicalize_batch, encode_kmer
from src_connector.quasidict import (
    NOT_INDEXED,
    IndexFormatError,
    QuasiDictionary,
    fingerprint,
    fingerprint_batch,
    load_index,
)


def _solid_from_codes(codes, k, t=1):
    codes = np.sort(np.asarray(codes, dtype=np.uint64))
    return SolidKmerSet(k, t, codes, np.ones(len(codes), dtype=np.uint64), len(codes))


def _random_solid(n, k=31, seed=0):
    rng = np.random.default_rng(seed)
    codes = np.empty(0, dtype=np.uint64)
    while len(codes) < n:
        draw = rng.integers(0, 1 << (2 * k), 3 * n, dtype=np.uint64)
        codes = np.unique(np.concatenate([codes, canonicalize_batch(draw, k)]))
    return _solid_from_codes(codes[:n], k)


def test_fingerprint_of_zero_is_zero():
    assert fingerprint(0, 12) == 0


def test_fingerprint_of_one_hand_derived():
    # x=1: after x^=x<<13 -> 0x2001; x^=x>>7 -> 0x2041; x^=x<<17 -> 0x40822041
    assert fingerprint(1, 62) == 0x40822041


def test_fingerprint_truncation_consistency():
    for code in (3, 12345, (1 << 62) - 1):
        assert fingerprint(code, 8) == fingerprint(code, 12) & 0xFF


def test_fingerprint_batch_matches_scalar():
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 1 << 62, 1000, dtype=np.uint64)
    for f in (1, 8, 12, 62):
        batch = fingerprint_batch(codes, f)
        for code, val in zip(codes[:50].tolist(), batch[:50].tolist()):
            assert fingerprint(code, f) == val


def test_fingerprint_width_validation():
    with pytest.raises(ValueError):
        fingerprint(1, 0)
    with pytest.raises(ValueError):
        fingerprint(1, 63)


def test_create_small():
    k = 4
    codes = [encode_kmer(s) for s in ("AAAA", "AAAC", "AACA")]
    qd = QuasiDictionary.create(_solid_from_codes(codes, k), 8)
    idx = [qd.query(c).index for c in codes]
    assert sorted(idx) == [0, 1, 2]


def test_create_empty():
    qd = QuasiDictionary.create(_solid_from_codes([], 31), 12)
    assert qd.n_keys == 0
    assert qd.query(0).index == NOT_INDEXED
    assert (qd.query_batch(np.arange(100, dtype=np.uint64)) == NOT_INDEXED).all()


def test_f_range_validation():
    solid = _solid_from_codes([1, 2], 4)
    with pytest.raises(ValueError):
        QuasiDictionary.create(solid, 0)
    with pytest.raises(ValueError):
        QuasiDictionary.create(solid, 9)  # > 2k for k=4


def test_no_false_negatives_and_index_uniqueness():
    solid = _random_solid(20_000, seed=2)
    qd = QuasiDictionary.create(solid, 12)
    idx = qd.query_batch(solid.codes)
    assert sorted(idx.tolist()) == list(range(solid.n))
    # stable across repeated queries
    assert (qd.query_batch(solid.codes) == idx).all()


def test_scalar_query_matches_batch():
    solid = _random_solid(2000, seed=3)
    qd = QuasiDictionary.create(solid, 12)
    aliens = _random_solid(2000, seed=4).codes
    probe = np.concatenate([solid.codes[:300], aliens[:300]])
    batch = qd.query_batch(probe)
    for code, want in zip(probe.tolist(), batch.tolist()):
        assert qd.query(code).index == want


def test_fp_rate_monotone_in_f():
    k = 31
    pool = _random_solid(80_000, seed=5).codes
    solid = _solid_from_codes(pool[:40_000], k)
    aliens = pool[40_000:]
    rates = []
    for f in (4, 8, 12, 20):
        qd = QuasiDictionary.create(solid, f)
        fp = float((qd.query_batch(aliens) >= 0).mean())
        assert fp <= 2.0 ** -f  # fingerprint-only bound
        rates.append(fp)
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_exact_mode_exhaustive_small_k():
    k = 4
    all_codes = np.arange(4**k, dtype=np.uint64)
    canon = np.unique(canonicalize_batch(all_codes, k))
    indexed = canon[::2]
    aliens = canon[1::2]
    qd = QuasiDictionary.create(_solid_from_codes(indexed, k), 2 * k)
    assert qd.exact
    assert (qd.query_batch(indexed) >= 0).all()
    assert (qd.query_batch(aliens) == NOT_INDEXED).all()  # zero FP, exhaustive


def test_payload_bits_exact():
    solid = _random_solid(12_345, seed=6)
    qd = QuasiDictionary.create(solid, 12)
    assert qd.payload_bits == 12_345 * 12


def test_save_load_roundtrip(tmp_path):
    solid = _random_solid(5000, seed=7)
    qd = QuasiDictionary.create(solid, 12)
    path = tmp_path / "index.bin"
    counts = np.arange(solid.n, dtype=np.uint8)
    qd.save(path, counts)
    qd2, counts2 = load_index(path)
    assert (counts2 == counts).all()
    assert (qd2.k, qd2.f, qd2.n_keys) == (qd.k, qd.f, qd.n_keys)
    probe = np.concatenate([solid.codes, _random_solid(5000, seed=8).codes])
    assert (qd.query_batch(probe) == qd2.query_batch(probe)).all()


def test_save_load_without_counts(tmp_path):
    qd = QuasiDictionary.create(_random_solid(100, seed=9), 8)
    path = tmp_path / "index.bin"
    qd.save(path)
    qd2, counts = load_index(path)
    assert counts is None
    assert qd2.n_keys == 100


def test_save_load_empty(tmp_path):
    qd = QuasiDictionary.create(_solid_from_codes([], 31), 12)
    path = tmp_path / "index.bin"
    qd.save(path)
    qd2, _ = load_index(path)
    assert qd2.n_keys == 0


def test_load_bad_magic(tmp_path):
    path = tmp_path / "index.bin"
    qd = QuasiDictionary.create(_random_solid(10, seed=10), 8)
    blob = qd.to_bytes()
    path.write_bytes(b"BADMAGIC" + blob[8:])
    with pytest.raises(IndexFormatError):
        load_index(path)
