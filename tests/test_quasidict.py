import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from src_connector import cli
from src_connector import mphf as mphf_module
from src_connector import quasidict as quasidict_module
from src_connector.bitpack import PackedArray
from src_connector.kmers import SolidKmerSet, canonicalize_batch, count_solid_kmers, encode_reads
from src_connector.mphf import Mphf
from src_connector.quasidict import (
    NOT_INDEXED,
    IndexFormatError,
    QuasiDictionary,
    fingerprint_batch,
    load_index,
)
from src_connector.seqio import ReadBatch

from _datagen import random_reads
from _oracles import code_of, dictionary_slots, level_walk


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


def _fingerprint(code, f):
    return int(fingerprint_batch(np.array([code], dtype=np.uint64), f)[0])


def test_fingerprint_of_zero_is_zero():
    assert _fingerprint(0, 12) == 0


def test_fingerprint_of_one_hand_derived():
    # x=1: after x^=x<<13 -> 0x2001; x^=x>>7 -> 0x2041; x^=x<<17 -> 0x40822041
    assert _fingerprint(1, 62) == 0x40822041


def test_fingerprint_truncation_consistency():
    codes = np.array([3, 12345, (1 << 62) - 1], dtype=np.uint64)
    assert (fingerprint_batch(codes, 8) == fingerprint_batch(codes, 12) & np.uint64(0xFF)).all()


def test_create_small():
    k = 4
    codes = np.array([code_of(s) for s in ("AAAA", "AAAC", "AACA")], dtype=np.uint64)
    qd = QuasiDictionary.create(_solid_from_codes(codes, k), 8)
    assert sorted(qd.query_batch(codes).tolist()) == [0, 1, 2]


def test_create_empty():
    qd = QuasiDictionary.create(_solid_from_codes([], 31), 12)
    assert qd.n_keys == 0
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


def _reference_slots(qd, probe):
    """(MPHF index, dictionary slot) of each probe by the oracles' plain walk."""
    m = qd.mphf
    levels = [(lv.size, lv.seed, lv.occupied.tolist(), lv.collided.tolist()) for lv in m.levels]
    first = m.n_keys - len(m.fallback)  # fallback key j has index first + j
    fallback = {key: first + j for j, key in enumerate(m.fallback.tolist())}
    keys = probe.tolist()
    return (
        [level_walk(levels, fallback, key) for key in keys],
        dictionary_slots(levels, fallback, qd.fingerprints.words.tolist(), qd.f, qd.exact, keys),
    )


def _lookup_loop(qd, seqs):
    """(read, position, slot) rows of each indexed k-mer, one read at a time."""
    rows = []
    for read, seq in enumerate(seqs):
        one = ReadBatch.from_strings([seq])
        canon, positions, _ = encode_reads(one.seq, one.offsets, qd.k)
        slots = qd.query_batch(canon)
        rows += [(read, p, s) for p, s in zip(positions.tolist(), slots.tolist()) if s >= 0]
    return rows


@pytest.mark.parametrize("f", [4, 22])  # 22 = 2k: exact, so no alien hits
def test_lookup_matches_per_read_loop(f):
    k = 11
    rng = np.random.default_rng(5)
    bank = random_reads(rng, 20, 60) + ["A" * 30]
    qd = QuasiDictionary.create(count_solid_kmers(bank, k, 1), f)
    aliens = random_reads(rng, 4, 50)
    mixed = [
        bank[0], "ACGTACG", "", bank[1][:25] + "NNxN" + bank[1][25:].lower(), aliens[0],
        "A" * 40, bank[2] + bank[2], bank[3][:k],
    ]
    for seqs in (mixed, [], aliens, ["ACG", ""]):
        got = qd.lookup(ReadBatch.from_strings(seqs, first_id=7))
        assert [col.dtype for col in got] == [np.int64] * 3
        assert list(zip(*(col.tolist() for col in got))) == _lookup_loop(qd, seqs)
    read, position, slot = qd.lookup(ReadBatch.from_strings(mixed))
    assert np.all(np.diff(read) >= 0)
    assert set(read.tolist()) - {4} == {0, 3, 5, 6, 7}  # the short reads miss; the alien may not
    assert np.count_nonzero(read == 5) == 30 and len(set(slot[read == 5].tolist())) == 1
    if qd.exact:
        assert len(qd.lookup(ReadBatch.from_strings(aliens))[0]) == 0


def test_params_in_header_order():
    qd = QuasiDictionary.create(_random_solid(50, k=21), 9, gamma=3.0, master_seed=7)
    assert list(qd.params.items()) == [("k", 21), ("t", 1), ("f", 9), ("gamma", 3.0), ("seed", 7)]


# f=62 at k=31 and f=10 at k=5 are exact mode; at 12 and 61 fields straddle
# words, at 1 and 8 none does; each case reads the last field before the guard word
@pytest.mark.parametrize("k,f", [(31, 1), (31, 8), (31, 12), (31, 61), (31, 62), (5, 10)])
@pytest.mark.parametrize("max_levels", [mphf_module.MAX_LEVELS, 2])  # 2: fallback keys
@given(
    n_keys=st.integers(0, 250), n_aliens=st.integers(0, 250),
    chunk=st.sampled_from([1, 7, 64, quasidict_module.KEY_CHUNK]), seed=st.integers(0, 2**32),
)
@settings(max_examples=15, deadline=None)
def test_query_matches_level_walk(k, f, max_levels, n_keys, n_aliens, chunk, seed):
    pool = _random_solid(n_keys + n_aliens, k=k, seed=seed).codes
    rng = np.random.default_rng(seed)
    rng.shuffle(pool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mphf_module, "MAX_LEVELS", max_levels)
        mp.setattr(mphf_module, "KEY_CHUNK", chunk)
        mp.setattr(quasidict_module, "KEY_CHUNK", chunk)
        qd = QuasiDictionary.create(_solid_from_codes(pool[:n_keys], k), f)
        assert qd.exact == (f == 2 * k)
        probe = pool[rng.permutation(len(pool))]  # indexed keys mixed with aliens
        want_mphf, want = _reference_slots(qd, probe)
        assert qd.mphf.query_batch(probe).tolist() == want_mphf
        assert qd.query_batch(probe).tolist() == want
        indexed = np.isin(probe, pool[:n_keys])
        assert sorted(np.array(want, dtype=np.int64)[indexed].tolist()) == list(range(n_keys))
        for empty in (qd.mphf.query_batch, qd.query_batch):
            got = empty(np.empty(0, dtype=np.uint64))
            assert got.dtype == np.int64 and len(got) == 0


def test_query_level_walk_edge_cases(monkeypatch):
    """The inputs the property test may draw rarely: no levels, fallback
    keys past the last level, and many blocks."""
    monkeypatch.setattr(mphf_module, "KEY_CHUNK", 7)
    monkeypatch.setattr(quasidict_module, "KEY_CHUNK", 7)
    empty = QuasiDictionary.create(_solid_from_codes([], 31), 12)
    assert empty.mphf.levels == [] and empty.n_keys == 0
    assert (empty.query_batch(np.arange(20, dtype=np.uint64)) == NOT_INDEXED).all()

    monkeypatch.setattr(mphf_module, "MAX_LEVELS", 2)
    pool = _random_solid(3000, seed=12).codes
    qd = QuasiDictionary.create(_solid_from_codes(pool[:2000], 31), 12)
    assert len(qd.mphf.levels) == 2 and len(qd.mphf.fallback) > 0
    probe = np.random.default_rng(12).permutation(pool)
    want_mphf, want = _reference_slots(qd, probe)
    assert qd.mphf.query_batch(probe).tolist() == want_mphf
    assert qd.query_batch(probe).tolist() == want


# f=62 at k=31 and f=10 at k=5 are exact mode: the raw code is stored
@pytest.mark.parametrize("k,f,n", [(31, 12, 5000), (31, 62, 5000), (5, 10, 300)])
def test_create_fills_fingerprints_as_a_query_would(monkeypatch, k, f, n):
    # the words create fills as the MPHF settles each key, 777 keys a chunk,
    # are those of a fill that queries every key after the build, as
    # create did before; the fallback keys are filled too
    monkeypatch.setattr(mphf_module, "MAX_LEVELS", 2)
    monkeypatch.setattr(mphf_module, "KEY_CHUNK", 777)
    solid = _random_solid(n, k=k, seed=13)
    qd = QuasiDictionary.create(solid, f)
    assert len(qd.mphf.fallback) > 0
    want = PackedArray(solid.n, f)
    values = solid.codes if qd.exact else fingerprint_batch(solid.codes, f)
    want.set_many(qd.mphf.query_batch(solid.codes), values)
    assert np.array_equal(qd.fingerprints.words, want.words)


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


def test_save_load_fallback_keys(tmp_path, monkeypatch):
    # QuasiDictionary.create leaves keys to the fallback map only for far larger sets
    solid = _random_solid(3000, seed=11)
    monkeypatch.setattr(mphf_module, "MAX_LEVELS", 2)
    mphf = Mphf.build(solid.codes)
    assert len(mphf.fallback) > 0
    qd = QuasiDictionary(solid.k, solid.t, 12, mphf, PackedArray(solid.n, 12), solid.bank_digest)
    qd.fingerprints.set_many(mphf.query_batch(solid.codes), fingerprint_batch(solid.codes, 12))
    path = tmp_path / "index.bin"
    qd.save(path)
    qd2, _ = load_index(path)
    assert np.array_equal(qd2.mphf.fallback, qd.mphf.fallback)
    assert sorted(qd2.query_batch(solid.codes).tolist()) == list(range(solid.n))


def test_load_rejects_unsorted_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mphf_module, "MAX_LEVELS", 2)
    qd = QuasiDictionary.create(_random_solid(3000, seed=11), 12)
    fallback = qd.mphf.fallback
    assert len(fallback) >= 2
    path = tmp_path / "index.bin"
    qd.save(path, np.ones(qd.n_keys, dtype=np.uint8))
    data = bytearray(path.read_bytes())
    at = data.index(fallback.tobytes())  # the fallback section, written as is
    data[at : at + 16] = fallback[1::-1].tobytes()  # swap its first two words
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="ascending"):
        load_index(path)
    query = tmp_path / "q.fa"
    query.write_text(">r\nACGT\n")
    assert cli.main(["count", "--index", str(path), "-q", str(query), "-o", str(tmp_path / "o")]) == 2
    assert "ascending" in capsys.readouterr().err


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
        pytest.param(_put("<d", _GAMMA, float("inf")), "gamma=inf", id="gamma-inf"),
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
