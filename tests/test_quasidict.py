import struct

import numpy as np
import pytest

from src_connector.bitpack import PackedArray
from src_connector.kmers import SolidKmerSet, canonicalize_batch, encode_kmer
from src_connector.mphf import Mphf
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
    return SolidKmerSet(
        k, t, codes, np.ones(len(codes), dtype=np.uint64), len(codes), bank_digest=bytes(16)
    )


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
    qd = QuasiDictionary.create(solid, 12, gamma=1.7, master_seed=99)
    path = tmp_path / "index.bin"
    counts = np.arange(solid.n, dtype=np.uint8)
    qd.save(path, counts)
    qd2, counts2 = load_index(path)
    assert (counts2 == counts).all()
    assert (qd2.k, qd2.t, qd2.f, qd2.n_keys, qd2.bank_digest) == (
        qd.k, qd.t, qd.f, qd.n_keys, qd.bank_digest
    )
    assert (qd2.mphf.gamma, qd2.mphf.master_seed) == (1.7, 99)
    probe = np.concatenate([solid.codes, _random_solid(5000, seed=8).codes])
    assert (qd.mphf.query_batch(probe) == qd2.mphf.query_batch(probe)).all()
    assert (qd.query_batch(probe) == qd2.query_batch(probe)).all()
    # a second build saves the same bytes, and so does the loaded copy
    rebuilt, resaved = tmp_path / "rebuilt.bin", tmp_path / "resaved.bin"
    QuasiDictionary.create(solid, 12, gamma=1.7, master_seed=99).save(rebuilt, counts)
    qd2.save(resaved, counts2)
    assert path.read_bytes() == rebuilt.read_bytes() == resaved.read_bytes()


def test_save_load_fallback_keys(tmp_path):
    # QuasiDictionary.create leaves keys to the fallback map only for far larger sets
    solid = _random_solid(3000, seed=11)
    mphf = Mphf.build(solid.codes, max_levels=2)
    assert len(mphf.fallback) > 0
    qd = QuasiDictionary(solid.k, solid.t, 12, mphf, PackedArray(solid.n, 12), solid.bank_digest)
    qd.fingerprints.set_many(mphf.query_batch(solid.codes), fingerprint_batch(solid.codes, 12))
    path = tmp_path / "index.bin"
    qd.save(path)
    qd2, _ = load_index(path)
    assert qd2.mphf.fallback == qd.mphf.fallback
    assert sorted(qd2.query_batch(solid.codes).tolist()) == list(range(solid.n))


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
    qd.save(path, np.zeros(0, dtype=np.uint8))
    qd2, counts = load_index(path)
    assert qd2.n_keys == 0 and len(counts) == 0
    assert (qd2.query_batch(np.arange(100, dtype=np.uint64)) == NOT_INDEXED).all()


def test_load_bad_magic(tmp_path):
    path = tmp_path / "index.bin"
    QuasiDictionary.create(_random_solid(10, seed=10), 8).save(path)
    path.write_bytes(b"BADMAGIC" + path.read_bytes()[8:])
    with pytest.raises(IndexFormatError):
        load_index(path)


# byte offsets of header fields (see quasidict._HEADER); MPHF level 0 follows them
_K, _T, _F, _GAMMA, _FLAGS, _LEVEL0 = 8, 16, 24, 40, 72, 112


def _put(fmt, at, value):
    return lambda blob, sections: struct.pack_into(fmt, blob, at, value)


def _cut(section, into):
    """Drop everything from `into` bytes past the start of a section."""
    return lambda blob, sections: blob.__delitem__(slice(sections[section] + into, None))


def _flip(section, at, mask=1):
    """XOR one byte `at` bytes past the start of a section."""

    def edit(blob, sections):
        blob[sections[section] + at] ^= mask

    return edit


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    """The bytes of a saved index with counts, and the start of each section."""
    solid = _random_solid(2000, seed=12)
    qd = QuasiDictionary.create(solid, 12)
    path = tmp_path_factory.mktemp("index") / "index.bin"
    qd.save(path, np.ones(solid.n, dtype=np.uint8))
    blob = path.read_bytes()
    counts_at = len(blob) - solid.n
    sections = {
        "header": 0,
        # level 0: 8-byte size, then its occupied words, then its collided words
        "level": _LEVEL0,
        "collided": _LEVEL0 + 8 + 8 * qd.mphf.levels[0].occupied.size,
        "fingerprints": counts_at - 8 * len(qd.fingerprints.words),
        "counts": counts_at,
    }
    return blob, sections


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_put("8s", 0, b"NOTMAGIC"), "bad index magic", id="bad-magic"),
        pytest.param(_put("8s", 0, b"QDIX0001"), "unsupported index version", id="version-1"),
        pytest.param(_put("8s", 0, b"QDIX0002"), "unsupported index version", id="version-2"),
        pytest.param(_cut("header", 50), "truncated", id="cut-header"),
        pytest.param(_cut("level", 8 + 20), "truncated", id="cut-level"),
        pytest.param(_cut("fingerprints", 12), "truncated", id="cut-fingerprints"),
        pytest.param(_cut("counts", 5), "truncated", id="cut-counts"),
        pytest.param(
            lambda blob, sections: blob.extend(b"\0"), "1 bytes after the last section",
            id="trailing-byte",
        ),
        pytest.param(_put("<Q", _K, 0), "k=0", id="k-0"),
        pytest.param(_put("<Q", _K, 32), "k=32", id="k-32"),
        pytest.param(_put("<Q", _F, 0), "f=0", id="f-0"),
        pytest.param(_put("<Q", _F, 63), "f=63", id="f-63"),
        pytest.param(_put("<Q", _T, 0), "t=0", id="t-0"),
        pytest.param(_put("<d", _GAMMA, 1.0), "gamma=1.0", id="gamma-1"),
        pytest.param(_put("<Q", _FLAGS, 3), "unknown flag bits", id="unknown-flag"),
        pytest.param(_flip("level", 8), "keys", id="flipped-occupied-bit"),
        pytest.param(_put("<Q", _LEVEL0, 0), "no slots", id="empty-level"),
        pytest.param(_flip("collided", 0), "checksum", id="flipped-collided-bit"),
        pytest.param(_flip("fingerprints", 3, 0x10), "checksum", id="flipped-fingerprint-bit"),
        pytest.param(_flip("counts", 7, 0xFF), "checksum", id="changed-count-byte"),
    ],
)
def test_load_rejects_corrupt_index(tmp_path, saved_index, edit, message):
    blob, sections = saved_index
    data = bytearray(blob)
    edit(data, sections)
    path = tmp_path / "index.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match=message):
        load_index(path)
