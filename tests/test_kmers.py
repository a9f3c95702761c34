import mmap
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from src_connector import kmers, seqio
from src_connector.bench import run_isolated
from src_connector.kmers import (
    SolidKmerSet,
    _solid_runs,
    canonicalize_batch,
    count_solid_kmers,
    encode_reads,
    reverse_complement_batch,
    sorted_keys,
)
from src_connector.seqio import BankDigest, ReadBatch, SequenceFormatError

from _accept_workers import rss_around_counting_worker
from _datagen import random_reads, write_fasta
from _oracles import canon_str, code_of, count_kmers, kmer_of, kmer_windows, revcomp_str

U64 = np.uint64


@pytest.fixture
def spill_files(monkeypatch):
    """Every tempfile.TemporaryFile made while the test runs, in order."""
    made, make = [], tempfile.TemporaryFile

    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", record)
    return made


def _encode(seqs, k):
    batch = ReadBatch.from_strings(seqs)
    return encode_reads(batch.seq, batch.offsets, k)


def _windows(seq, k):
    """(position, canonical code) of every window encode_reads keeps in one read."""
    canon, positions, _ = _encode([seq], k)
    return list(zip(positions.tolist(), canon.tolist()))


def test_encode_examples():
    canon, _, ptr = _encode(["AC", "CA", "TT", "AN", "ac"], 2)
    # CA's reverse complement TG is larger; TT's is AA; lowercase is accepted
    assert canon.tolist() == [0b0001, 0b0100, 0b0000, 0b0001]
    assert ptr.tolist() == [0, 1, 2, 3, 3, 4]  # no window in AN


def test_decode_roundtrip():
    assert code_of("GATTACA") == 0b10_00_11_11_00_01_00
    assert kmer_of(int(_encode(["GATTACA"], 7)[0][0]), 7) == "GATTACA"  # < TGTAATC


def test_reverse_complement_examples():
    k = 4
    codes = np.array([code_of(s) for s in ("ACGT", "AAAA", "AACG")], dtype=U64)
    rc = reverse_complement_batch(codes, k)
    assert rc.tolist() == [code_of(s) for s in ("ACGT", "TTTT", "CGTT")]


def test_canonicalize_examples():
    codes = np.array([code_of(s) for s in ("TTTT", "ACGT", "AACG")], dtype=U64)
    assert canonicalize_batch(codes, 4).tolist() == [code_of(s) for s in ("AAAA", "ACGT", "AACG")]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_revcomp_involution_exhaustive(k):
    codes = np.arange(4**k, dtype=np.uint64)
    rc = reverse_complement_batch(codes, k)
    assert (reverse_complement_batch(rc, k) == codes).all()
    canon = canonicalize_batch(codes, k)
    assert (canonicalize_batch(canon, k) == canon).all()  # idempotent
    # batch matches the string oracle
    for code in codes[: min(len(codes), 256)].tolist():
        assert kmer_of(int(rc[code]), k) == revcomp_str(kmer_of(code, k))


@given(st.integers(min_value=7, max_value=31), st.data())
@settings(max_examples=50, deadline=None)
def test_revcomp_involution_random(k, data):
    code = data.draw(st.integers(min_value=0, max_value=4**k - 1))
    codes = np.array([code], dtype=U64)
    rc = reverse_complement_batch(codes, k)
    assert reverse_complement_batch(rc, k).tolist() == [code]
    canon = canonicalize_batch(codes, k)
    assert (canonicalize_batch(canon, k) == canon).all()
    assert kmer_of(int(rc[0]), k) == revcomp_str(kmer_of(code, k))


def test_enumerate_examples():
    aaa = code_of("AAA")
    assert _windows("AAAAA", 3) == [(0, aaa), (1, aaa), (2, aaa)]
    aa = code_of("AA")
    assert _windows("AANAA", 2) == [(0, aa), (3, aa)]
    assert _windows("AC", 3) == []


def test_enumerate_matches_string_oracle():
    rng = np.random.default_rng(3)
    for seq in random_reads(rng, 20, 80):
        # poke some invalid characters in
        seq = seq[:10] + "N" + seq[11:40] + "x" + seq[41:]
        for k in (2, 5, 31):
            got = [(pos, kmer_of(code, k)) for pos, code in _windows(seq, k)]
            assert got == kmer_windows(seq, k)


def _solid_as_dict(solid: SolidKmerSet) -> dict[str, int]:
    return {kmer_of(c, solid.k): int(n) for c, n in zip(solid.codes.tolist(), solid.counts.tolist())}


def test_count_solid_worked_example():
    bank = ["AAAAC", "AAACA"]
    solid = count_solid_kmers(bank, 4, 1)
    assert _solid_as_dict(solid) == {"AAAA": 1, "AAAC": 2, "AACA": 1}
    assert solid.n == 3 and solid.n_distinct_total == 3

    solid2 = count_solid_kmers(bank, 4, 2)
    assert _solid_as_dict(solid2) == {"AAAC": 2}
    assert solid2.n_distinct_total == 3


def test_count_solid_empty(tmp_path):
    path = tmp_path / "empty.fa"
    path.write_text("")
    solid = count_solid_kmers(path, 31, 1)
    assert solid.n == 0 and solid.n_distinct_total == 0


def test_count_total_equals_window_count():
    rng = np.random.default_rng(11)
    seqs = random_reads(rng, 50, 120)
    k = 9
    solid = count_solid_kmers(seqs, k, 1)
    n_windows = sum(len(kmer_windows(s, k)) for s in seqs)
    assert int(solid.counts.sum()) == n_windows


def test_count_matches_naive_oracle():
    rng = np.random.default_rng(5)
    seqs = random_reads(rng, 100, 90)
    seqs += seqs[:30]  # repeats
    seqs[0] = seqs[0][:20] + "N" + seqs[0][21:]
    seqs[1] = seqs[1].lower()
    for k, t in [(7, 1), (7, 2), (31, 1)]:
        solid = count_solid_kmers(seqs, k, t)
        expect = {km: c for km, c in count_kmers(seqs, k).items() if c >= t}
        assert _solid_as_dict(solid) == expect
        # ascending code order
        assert (np.diff(solid.codes.astype(np.int64)) > 0).all() if solid.n > 1 else True


def test_spill_path_matches_in_memory(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    seqs = random_reads(rng, 300, 100) * 2
    in_mem = count_solid_kmers(seqs, 15, 2)  # a list is one batch
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 4096)  # about 36 reads a batch
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    spilled = count_solid_kmers(bank, 15, 2, memory_budget=4096, tmp_dir=str(spill_dir))
    assert (in_mem.codes == spilled.codes).all()
    assert (in_mem.counts == spilled.counts).all()
    assert in_mem.n_distinct_total == spilled.n_distinct_total
    assert in_mem.bank_digest == spilled.bank_digest
    assert list(spill_dir.iterdir()) == []


@given(
    seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), t=st.integers(1, 6),
    n_pool=st.integers(1, 6), n_reads=st.integers(1, 60),
    chunk=st.sampled_from([1, 2, 3, 5]), spilled=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_count_solid_matches_unique_oracle(seed, k, t, n_pool, n_reads, chunk, spilled):
    # heavy repeats: the reads are drawn from a pool of a few short reads,
    # with an N now and then; KEY_CHUNK of a few codes makes runs cross slice
    # edges, and spilled parts are often shorter than t
    rng = np.random.default_rng(seed)
    pool = [
        "".join(rng.choice(list("ACGTN"), size=rng.integers(1, 16), p=[0.24] * 4 + [0.04]))
        for _ in range(n_pool)
    ]
    seqs = [pool[i] for i in rng.integers(0, n_pool, n_reads)]
    uniq, counts = np.unique(_encode(seqs, k)[0], return_counts=True)
    keep = counts >= t
    digest = BankDigest()
    digest.update(ReadBatch.from_strings(seqs).seq)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmers, "KEY_CHUNK", chunk)
        if spilled:
            bank, spill_dir = Path(tmp) / "bank.fa", Path(tmp) / "spill"
            write_fasta(bank, seqs)
            spill_dir.mkdir()
            mp.setattr(seqio, "BLOCK_BYTES", 64)
            solid = count_solid_kmers(bank, k, t, memory_budget=16, tmp_dir=str(spill_dir))
            assert list(spill_dir.iterdir()) == []
        else:
            solid = count_solid_kmers(seqs, k, t)
    assert solid.codes.dtype == solid.counts.dtype == U64
    assert solid.codes.tolist() == uniq[keep].tolist()
    assert solid.counts.tolist() == counts[keep].tolist()
    assert solid.n_distinct_total == len(uniq)
    assert solid.bank_digest == digest.digest()


@pytest.mark.parametrize("t", [1, 2, 256, 257])
def test_solid_runs_memory_is_per_slice(t):
    # 2^22 sorted codes, 2^14 distinct values of 256 copies each: a pass over
    # the whole part needs a 1-byte flag per code alone, the slices far less
    part = np.repeat(np.arange(1 << 14, dtype=U64) * U64(3), 256)
    tracemalloc.start()
    try:
        codes, counts, n_distinct = _solid_runs(part, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(part)
    assert n_distinct == 1 << 14
    assert codes.tolist() == ([] if t > 256 else (np.arange(1 << 14) * 3).tolist())
    assert (counts == 256).all()


def _runs_part(rng, n_runs, max_len):
    """An ascending uint64 part of n_runs distinct codes, each repeated 1 to max_len times."""
    codes = np.cumsum(rng.integers(1, 1 << 40, n_runs, dtype=np.int64)).astype(U64)
    return np.repeat(codes, rng.integers(1, max_len + 1, n_runs))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_solid_runs_overwrite_part_in_place(monkeypatch, chunk, t):
    # the solid codes are written over the front of part while it is read:
    # runs of up to 9 codes cross slice edges, and a part of distinct codes
    # at t = 1 puts each slice's writes right behind the read position
    monkeypatch.setattr(kmers, "KEY_CHUNK", chunk)
    rng = np.random.default_rng(chunk * 10 + t)
    for part in (_runs_part(rng, 300, 9), _runs_part(rng, 300, 1), np.repeat(U64(5), 20), np.empty(0, U64)):
        uniq, counts = np.unique(part, return_counts=True)
        keep = counts >= t
        codes, solid_counts, n_distinct = _solid_runs(part.copy(), t)
        assert codes.tolist() == uniq[keep].tolist()
        assert solid_counts.tolist() == counts[keep].tolist()
        assert n_distinct == len(uniq)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="released pages read as zeros on Linux")
def test_release_past_keeps_the_front():
    buf = kmers._mapping(5 * mmap.PAGESIZE)
    keys = np.frombuffer(buf, U64)
    keys[:] = np.arange(1, len(keys) + 1, dtype=U64)
    n = mmap.PAGESIZE // 8 + 3  # the front ends inside the second page
    kmers._release_past(keys, n)
    assert keys[: 2 * mmap.PAGESIZE // 8].tolist() == list(range(1, 2 * mmap.PAGESIZE // 8 + 1))
    assert not keys[2 * mmap.PAGESIZE // 8 :].any()  # released pages read as zeros


def test_spill_removed_when_selection_fails(tmp_path, monkeypatch, spill_files):
    # the solid selection raises on the second spilled partition
    bank = tmp_path / "bank.fa"
    write_fasta(bank, random_reads(np.random.default_rng(12), 60, 50))
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    parts = []

    def failing(part, t):
        parts.append(part)
        if len(parts) == 2:
            raise RuntimeError("selection failed")
        return _solid_runs(part, t)

    monkeypatch.setattr(kmers, "_solid_runs", failing)
    with pytest.raises(RuntimeError, match="selection failed"):
        count_solid_kmers(bank, 15, 1, memory_budget=100, tmp_dir=str(spill_dir))
    assert list(spill_dir.iterdir()) == []
    assert len(spill_files) == 64 and all(f.closed for f in spill_files)


def test_spill_removed_when_bank_fails(tmp_path, monkeypatch, spill_files):
    # the bad record comes after spilling has begun; nothing may wait for gc
    bank = tmp_path / "bank.fq"
    seqs = random_reads(np.random.default_rng(9), 60, 50)
    records = "".join(f"@r{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(seqs))
    bank.write_text(records + "@cut\nACGT\n")  # no '+' line
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 256)  # parse the file a few records at a time
    with pytest.raises(SequenceFormatError):
        count_solid_kmers(bank, 15, 1, memory_budget=100, tmp_dir=str(spill_dir))
    assert list(spill_dir.iterdir()) == []
    assert len(spill_files) == 64 and all(f.closed for f in spill_files)


@pytest.mark.parametrize("budget", [0, 1000, 1 << 40])
def test_sorted_keys_ascending(tmp_path, budget):
    rng = np.random.default_rng(10)
    batches = [rng.integers(0, 1 << 40, n, dtype=U64) for n in (300, 0, 500, 1)]
    got = list(sorted_keys(iter(batches), 40, budget, str(tmp_path)))
    assert len(got) == (1 if budget == 1 << 40 else 64)
    assert np.array_equal(np.concatenate(got), np.sort(np.concatenate(batches)))
    assert list(tmp_path.iterdir()) == []


def test_sorted_keys_removes_spill_when_caller_stops(tmp_path, spill_files):
    keys = sorted_keys(iter([np.arange(100, dtype=U64)]), 7, 0, str(tmp_path))
    assert next(keys).tolist() == [0, 1]  # partitions of 2 keys
    assert len(spill_files) == 64 and sum(f.closed for f in spill_files) == 1
    keys.close()
    assert all(f.closed for f in spill_files)
    assert list(tmp_path.iterdir()) == []  # the files never had names


def test_sorted_keys_closes_each_partition_once_yielded(tmp_path, spill_files):
    keys = sorted_keys(iter([np.arange(128, dtype=U64)[::-1]]), 7, 0, str(tmp_path))
    for i, part in enumerate(keys):  # partition i holds 2i and 2i + 1
        assert part.tolist() == [2 * i, 2 * i + 1]
        assert [f.closed for f in spill_files] == [j <= i for j in range(64)]
    assert i == 63


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 1300), max_size=6),  # the buffer starts at a page, 512 keys, and doubles
    key_bits=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sorted_keys_is_sort_of_all_batches(sizes, key_bits, seed, data):
    rng = np.random.default_rng(seed)
    batches = [rng.integers(0, 2**key_bits, n, dtype=U64) for n in sizes]
    # budgets that spill before, at and after each batch, spill at once, or never
    ends = 8 * np.cumsum([0, *sizes])
    budget = data.draw(st.sampled_from(sorted({0, 1 << 62, *ends.tolist(), *(ends - 1).clip(0).tolist()})))
    with tempfile.TemporaryDirectory() as tmp_dir:
        got = [part.copy() for part in sorted_keys(iter(batches), key_bits, budget, tmp_dir)]
        assert os.listdir(tmp_dir) == []
    assert len(got) == (64 if ends[-1] > budget else 1)
    want = np.sort(np.concatenate([np.empty(0, dtype=U64), *batches]))
    assert np.array_equal(np.concatenate(got), want)
    if len(got) == 64:  # partition i holds the keys whose top 6 of key_bits are i
        shift = U64(max(0, key_bits - 6))
        assert all(((part >> shift) == i).all() for i, part in enumerate(got))


def test_buffer_grows_by_copy_without_mremap():
    class NoMremap(mmap.mmap):  # as on macOS, where resize cannot move the pages
        def resize(self, size):
            raise SystemError("mmap: resizing not available--no mremap()")

    buf = NoMremap(-1, mmap.PAGESIZE, **kmers._ANONYMOUS)
    buf[:5] = b"keys!"
    grown = kmers._grown(buf, 3 * mmap.PAGESIZE)
    assert len(grown) == 3 * mmap.PAGESIZE and grown[:5] == b"keys!"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
def test_counting_returns_its_memory(tmp_path):
    """Once the result is dropped, the process holds no more than before:
    the occurrence codes were buffered on a mapping, and the solid codes and
    counts kept on mappings, which go back to the system, not in malloc's
    heap, which may keep the pages."""
    rng = np.random.default_rng(12)
    acgt = np.frombuffer(b"ACGT", dtype=np.uint8)
    # 40 000 distinct 150 bp reads: 4.8 M 31-mers (37 MiB), none solid
    distinct = acgt[rng.integers(0, 4, (40_000, 151))]
    # 60 000 80 bp reads of a 2 Mbp genome: 0.9 M solid 31-mers, 14 MB of
    # codes and counts, counted with glibc's mmap threshold risen to 16 MiB,
    # as a library caller's may be, so that smaller arrays go to the heap
    genome = acgt[rng.integers(0, 4, 2_000_000)]
    shotgun = genome[rng.integers(0, len(genome) - 80, 60_000)[:, None] + np.arange(81)]
    for name, reads, threshold in (("distinct", distinct, 0), ("shotgun", shotgun, 16 << 20)):
        reads[:, -1] = ord("\n")
        bank = tmp_path / f"{name}.fa"
        bank.write_bytes(b"".join(b">r\n" + row.tobytes() for row in reads))
        before, after = run_isolated(rss_around_counting_worker, str(bank), 31, threshold)
        assert after - before < 4 << 20, (name, before, after)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        count_solid_kmers([], 32, 1)
    with pytest.raises(ValueError):
        count_solid_kmers([], 31, 0)


def test_encode_reads_boundaries():
    canon, pos, ptr = _encode(["AAAAA", "AC", "GGG"], 3)
    # read 0: 3 windows, read 1: too short, read 2: one window
    assert ptr.tolist() == [0, 3, 3, 4]
    assert pos.tolist() == [0, 1, 2, 0]
    assert kmer_of(int(canon[3]), 3) == canon_str("GGG")


def _random_seq(rng, n):
    return "".join("ACGTacgt"[i] for i in rng.integers(0, 8, n))


@pytest.mark.parametrize("k", range(1, 32))
def test_encode_batch_matches_oracle(k):
    """One batch puts every window at all four byte phases of the packed
    kernel and ends reads on its zero-padded tail."""
    rng = np.random.default_rng(k)
    seqs = [_random_seq(rng, n) for n in range(k - 1, k + 5)]
    seqs += ["", "acgtACGT" * 4, "ACGTNACGTTGCA" * 4, "GGRTTY-CA*Cx" * 5, "n" * 40]
    long = list(_random_seq(rng, 72_000))
    for i in rng.integers(0, len(long), 30).tolist():
        long[i] = "N"
    seqs.append("".join(long))
    canon, positions, ptr = _encode(seqs, k)
    assert ptr[0] == 0 and ptr[-1] == len(canon) == len(positions)
    for r, seq in enumerate(seqs):
        lo, hi = ptr[r], ptr[r + 1]
        got = list(zip(positions[lo:hi].tolist(), canon[lo:hi].tolist()))
        assert got == [(i, code_of(kmer)) for i, kmer in kmer_windows(seq, k)], (k, r)


@pytest.mark.parametrize("k", [1, 5, 21, 31])
def test_encode_block_is_lean(k):
    """One parse block of 100 bp reads, some with non-ACGT bases and some
    shorter than k, encodes to the oracle's windows, and at k = 31 the
    encoder's temporaries peak under 24 bytes per base (tracemalloc)."""
    rng = np.random.default_rng(k)
    seqs = random_reads(rng, seqio.BLOCK_BYTES // 101, 100)
    for r in rng.integers(0, len(seqs), 40).tolist():
        i = int(rng.integers(0, 100))
        seqs[r] = seqs[r][:i] + "NRx-"[r % 4] + seqs[r][i + 1 :]
    for r in rng.integers(0, len(seqs), 20).tolist():
        seqs[r] = seqs[r][: max(0, k - 1 - r % 3)]
    batch = ReadBatch.from_strings(seqs)
    tracemalloc.start()
    try:
        canon, positions, ptr = encode_reads(batch.seq, batch.offsets, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if k == 31:
        assert peak < 24 * sum(map(len, seqs)), peak
    assert ptr[0] == 0 and ptr[-1] == len(canon) == len(positions)
    for r, seq in enumerate(seqs):
        lo, hi = ptr[r], ptr[r + 1]
        got = list(zip(positions[lo:hi].tolist(), canon[lo:hi].tolist()))
        assert got == [(i, code_of(kmer)) for i, kmer in kmer_windows(seq, k)], (k, r)
