import os
import re
import sys
import threading

import numpy as np
import pytest

from src_connector import linker
from src_connector.kmers import encode_reads
from src_connector.linker import (
    ReadIdTable,
    _build_disk_table,
    link_batch,
    run_src_linker,
)
from src_connector.quasidict import build_bank_index
from src_connector.seqio import ReadRecord

from _datagen import planted_family_reads, random_reads, write_fasta
from _oracles import linker_records, parse_linker_output


def _records(seqs):
    return [ReadRecord(i, s) for i, s in enumerate(seqs)]


def _ram_index(bank, k, t, f):
    qd = build_bank_index(bank, k, t, f)[0]
    return qd, ReadIdTable.build(qd, bank)


def _disk_index(bank, k, t, f, tmp_dir=None):
    qd = build_bank_index(bank, k, t, f)[0]
    return qd, _build_disk_table(qd, bank, tmp_dir)


def _link(bank, query, k, t, f, out, **kwargs):
    run_src_linker(build_bank_index(bank, k, t, f)[0], bank, query, out, **kwargs)


def test_single_read_hand_trace():
    bank = _records(["AAAAAA"])
    qd, ids = _ram_index(bank, k=3, t=1, f=6)
    assert qd.n_keys == 1  # only AAA
    slot = qd.query_batch(np.array([0], dtype=np.uint64))[0]
    assert ids.get(np.array([slot])).tolist() == [0]  # 4 occurrences dedup to one id
    rec = link_batch(qd, ids, [ReadRecord(0, "AAAAAA")], 1, False)[0]
    # positions 0 and 3 count; 1, 2 blocked by the k-wide exclusion window
    assert rec.matches == [(0, 2)]


def test_disjoint_alphabet_reads():
    bank = _records(["AAAAAA", "CCCCCC"])
    qd, ids = _ram_index(bank, k=3, t=1, f=6)
    for code_str, want in (("AAAAAA", 0), ("CCCCCC", 1)):
        rec = link_batch(qd, ids, [ReadRecord(9, code_str)], 1, False)[0]
        assert rec.matches == [(want, 2)]
    for slot in range(qd.n_keys):
        assert len(ids.get(np.array([slot]))) == 1


def test_solidity_filter_drops_unique_kmers():
    bank = _records(["ACGTACGTACGT", "ACGTACGTACGT", "AACCGGTTACGA"])
    qd, ids = _ram_index(bank, k=9, t=2, f=18)
    rec = link_batch(qd, ids, [ReadRecord(2, "AACCGGTTACGA")], 1, False)[0]
    assert rec.matches == []


def test_query_with_no_indexed_kmer():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=3, t=1, f=6)
    rec = link_batch(qd, ids, [ReadRecord(0, "CCCCCCCC")], 1, False)[0]
    assert rec.matches == []
    assert rec.format() == "0:*"


def test_query_shorter_than_k():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=5, t=1, f=10)
    assert link_batch(qd, ids, [ReadRecord(0, "AAA")], 1, False)[0].matches == []


def test_similarity_cap():
    rng = np.random.default_rng(0)
    seqs = random_reads(rng, 40, 100)
    k = 31
    qd, ids = _ram_index(_records(seqs), k=k, t=1, f=62)
    cap = (100 - k) // k + 1
    for i, seq in enumerate(seqs):
        rec = link_batch(qd, ids, [ReadRecord(i, seq)], 1, False)[0]
        assert all(cnt <= cap for _, cnt in rec.matches)
        assert (i, cap) in rec.matches  # self-match at the cap


def test_huge_threshold_matches_nothing():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=3, t=1, f=6)
    rec = link_batch(qd, ids, [ReadRecord(0, "AAAAAAAA")], 10**9, False)[0]
    assert rec.matches == []


def test_exclude_self():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=3, t=1, f=6)
    rec = link_batch(qd, ids, [ReadRecord(0, "AAAAAAAA")], 1, True)[0]
    assert rec.matches == []


def test_exact_mode_matches_oracle():
    rng = np.random.default_rng(1)
    seqs = planted_family_reads(rng, n_families=10, family_size=3, n_background=60)
    k = 31
    qd, ids = _ram_index(_records(seqs), k=k, t=1, f=62)
    expect = linker_records(seqs, seqs, k, t=1, min_shared=1)
    for i, seq in enumerate(seqs):
        rec = link_batch(qd, ids, [ReadRecord(i, seq)], 1, False)[0]
        assert rec.matches == expect[i]


def test_fp_only_adds_matches():
    rng = np.random.default_rng(2)
    seqs = planted_family_reads(rng, n_families=8, family_size=3, n_background=80)
    k = 31
    exact_qd, exact_ids = _ram_index(_records(seqs), k=k, t=1, f=62)
    fuzzy_qd, fuzzy_ids = _ram_index(_records(seqs), k=k, t=1, f=4)
    for i, seq in enumerate(seqs):
        read = ReadRecord(i, seq)
        exact = dict(link_batch(exact_qd, exact_ids, [read], 1, False)[0].matches)
        fuzzy = dict(link_batch(fuzzy_qd, fuzzy_ids, [read], 1, False)[0].matches)
        for tid, cnt in exact.items():
            assert fuzzy.get(tid, 0) >= cnt


def test_link_batch_matches_oracle():
    # one batch holds every read: empty, shorter than k and N-broken ones included
    rng = np.random.default_rng(9)
    seqs = planted_family_reads(rng, n_families=6, family_size=3, n_background=40)
    qd, ids = _ram_index(_records(seqs), k=31, t=1, f=62)
    queries = seqs[:20] + ["", "ACGT", seqs[3][:40] + "N" + seqs[3][41:]] + seqs[20:30]
    batch = [ReadRecord(i + 100, s) for i, s in enumerate(queries)]
    got = link_batch(qd, ids, batch, 1, False)
    assert [rec.query_read_id for rec in got] == [read.id for read in batch]
    expect = linker_records(seqs, queries, 31, t=1, min_shared=1)
    assert [rec.matches for rec in got] == [expect[i] for i in range(len(queries))]
    assert got[22].matches and all(rec.matches for rec in got[:20])


def test_disk_block_hand_trace(tmp_path):
    qd, disk = _disk_index(_records(["AAAAAA"]), k=3, t=1, f=6, tmp_dir=str(tmp_path))
    try:
        raw = np.fromfile(disk.path, dtype=np.uint32)
        # one block: read 0 once (4 occurrences) stored +1, then the 0 terminator
        assert raw.tolist() == [1, 0]
        assert disk.get(np.array([0])).tolist() == [0]
    finally:
        disk.close()


def test_disk_empty_bank(tmp_path):
    qd, disk = _disk_index(_records([]), k=3, t=1, f=6, tmp_dir=str(tmp_path))
    try:
        assert qd.n_keys == 0
        assert np.fromfile(disk.path, dtype=np.uint32).size == 0
    finally:
        disk.close()


def test_disk_matches_ram():
    rng = np.random.default_rng(3)
    seqs = planted_family_reads(rng, n_families=10, family_size=3, n_background=100)
    k = 31
    bank = _records(seqs)
    qd, ids = _ram_index(bank, k=k, t=1, f=62)
    qd2, disk = _disk_index(bank, k=k, t=1, f=62)
    try:
        for i, seq in enumerate(seqs):
            read = ReadRecord(i, seq)
            ram = link_batch(qd, ids, [read], 1, False)[0]
            dsk = link_batch(qd2, disk, [read], 1, False)[0]
            assert ram.matches == dsk.matches
    finally:
        disk.close()


def test_disk_get_is_thread_safe(tmp_path):
    # batch lookups from several threads must not share a file position
    rng = np.random.default_rng(7)
    bank = _records(random_reads(rng, 2000, 100))
    qd, disk = _disk_index(bank, k=31, t=1, f=12, tmp_dir=str(tmp_path))
    batches = np.array_split(rng.integers(0, qd.n_keys, 20_000), 40)
    results = [None] * 4

    def lookup_all(i):
        results[i] = [disk.get(slots).tolist() for slots in batches]

    try:
        expect = [disk.get(slots).tolist() for slots in batches]
        workers = [threading.Thread(target=lookup_all, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for got in results:
            assert got == expect
    finally:
        disk.close()


@pytest.mark.parametrize("damage", ["terminator", "truncated"])
def test_disk_get_checks_blocks(tmp_path, damage):
    rng = np.random.default_rng(10)
    bank = _records(random_reads(rng, 300, 100))
    qd, disk = _disk_index(bank, k=31, t=1, f=12, tmp_dir=str(tmp_path))
    try:
        slots = np.arange(qd.n_keys)
        disk.get(slots)  # intact
        if damage == "terminator":
            with open(disk.path, "r+b") as fh:
                fh.seek(4 * (int(disk.offsets[qd.n_keys // 2 + 1]) - 1))
                fh.write(np.uint32(7).tobytes())
        else:
            os.truncate(disk.path, 4 * int(disk.offsets[qd.n_keys // 2]))
        with pytest.raises(IOError, match=re.escape(disk.path)):
            disk.get(slots)
    finally:
        disk.close()


def _write_disk_table(path, blocks):
    """A DiskIdTable over the given per-slot id lists, in the table's file layout."""
    words = [np.append(np.asarray(ids, dtype=np.int64) + 1, 0) for ids in blocks]
    np.concatenate(words).astype(np.uint32).tofile(path)
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in words], out=offsets[1:])
    return linker.DiskIdTable(offsets, str(path))


def _greedy_reference(k, blocks, read_ids, reads, positions, slots, min_shared, exclude_self):
    records = []
    for r, rid in enumerate(read_ids):
        targets = {}  # tid -> [next free position, count]
        for i, slot in zip(positions[reads == r].tolist(), slots[reads == r].tolist()):
            for tid in blocks[slot]:
                state = targets.get(tid)
                if state is None:
                    targets[tid] = [i + k, 1]
                elif i >= state[0]:
                    state[0] = i + k
                    state[1] += 1
        records.append(sorted(
            (tid, c) for tid, (_, c) in targets.items()
            if c >= min_shared and not (exclude_self and tid == rid)
        ))
    return records


@pytest.mark.parametrize("kind", ["ram", "disk"])
def test_similarity_wide_fields(tmp_path, kind):
    # target ids up to 2^32 - 2 and positions past 2^25: 26 position bits
    # leave room for 32 reads per packed key range, so the 70 reads take three
    rng = np.random.default_rng(11)
    k, top = 5, 2**32 - 2
    pool = np.array([0, 1, 2, 77, 2**31, top - 2, top - 1, top], dtype=np.int64)
    blocks = [
        sorted(rng.choice(pool, rng.integers(0, 4), replace=False).tolist()) for _ in range(30)
    ]
    read_ids = rng.permutation(np.arange(top - 69, top + 1))  # some equal a target id
    reads, positions = [], []
    for r in range(len(read_ids)):
        n = int(rng.integers(0, 12))
        start = 2**25 if r % 3 == 0 else 0
        reads += [r] * n
        positions += (start + np.cumsum(rng.integers(0, 2 * k, n))).tolist()
    reads, positions = np.array(reads, dtype=np.int64), np.array(positions, dtype=np.int64)
    slots = rng.integers(0, len(blocks), len(reads))
    if kind == "ram":
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in blocks], out=offsets[1:])
        table = ReadIdTable(offsets, np.array(sum(blocks, []), dtype=np.uint32))
    else:
        table = _write_disk_table(tmp_path / "ids.bin", blocks)
    try:
        for min_shared, exclude_self in ((1, False), (2, True)):
            got = linker._similarity(
                k, table, read_ids, reads, positions, slots, min_shared, exclude_self
            )
            assert [rec.query_read_id for rec in got] == read_ids.tolist()
            assert [rec.matches for rec in got] == _greedy_reference(
                k, blocks, read_ids, reads, positions, slots, min_shared, exclude_self
            )
    finally:
        if kind == "disk":
            table.close()


def test_long_query_read_matches_oracle(tmp_path):
    # bank reads strewn through a 72 kbp query with random filler, so shared
    # k-mers sit at positions past 2^16
    rng = np.random.default_rng(12)
    seqs = random_reads(rng, 60, 200)
    filler = random_reads(rng, 60, 1000)
    long_read = "".join(f + s for f, s in zip(filler, seqs[::-1]))
    assert len(long_read) >= 70_000
    queries = [seqs[0], long_read, seqs[1]]
    expect = linker_records(seqs, queries, 31, t=1, min_shared=1)
    batch = [ReadRecord(i, s) for i, s in enumerate(queries)]
    qd, ram = _ram_index(_records(seqs), k=31, t=1, f=62)
    disk = _build_disk_table(qd, _records(seqs), str(tmp_path))
    try:
        for table in (ram, disk):
            got = link_batch(qd, table, batch, 1, False)
            assert [rec.matches for rec in got] == [expect[i] for i in range(len(queries))]
    finally:
        disk.close()
    assert len(expect[1]) == len(seqs)


def test_run_linker_ram_vs_disk_files(tmp_path):
    rng = np.random.default_rng(4)
    seqs = planted_family_reads(rng, n_families=6, family_size=3, n_background=60)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    out_ram = tmp_path / "ram.txt"
    out_disk = tmp_path / "disk.txt"
    _link(bank, bank, 31, 1, 62, out_ram, min_shared=1, mode="ram")
    _link(bank, bank, 31, 1, 62, out_disk, min_shared=1, mode="disk")
    assert parse_linker_output(out_ram) == parse_linker_output(out_disk)
    assert parse_linker_output(out_ram) == linker_records(seqs, seqs, 31, 1, 1)


def test_run_linker_no_self(tmp_path):
    rng = np.random.default_rng(5)
    seqs = random_reads(rng, 30, 80)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    out = tmp_path / "out.txt"
    _link(bank, bank, 31, 1, 62, out, min_shared=1, no_self=True)
    for qid, matches in parse_linker_output(out).items():
        assert qid not in {tid for tid, _ in matches}


def test_run_linker_thread_determinism(tmp_path):
    rng = np.random.default_rng(6)
    seqs = planted_family_reads(rng, n_families=5, family_size=3, n_background=50)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    out1 = tmp_path / "t1.txt"
    out8 = tmp_path / "t8.txt"
    _link(bank, bank, 31, 1, 12, out1, min_shared=1, threads=1)
    _link(bank, bank, 31, 1, 12, out8, min_shared=1, threads=8)
    assert out1.read_bytes() == out8.read_bytes()


def test_run_linker_bad_mode(tmp_path):
    with pytest.raises(ValueError):
        _link(_records(["AAAAAA"]), "y", 3, 1, 6, tmp_path / "o", mode="tape")


def test_avg_ids_per_entry():
    qd, ids = _ram_index(_records(["AAAAAA", "AAAAAA"]), k=3, t=1, f=6)
    for slot in range(qd.n_keys):
        assert ids.get(np.array([slot])).tolist() == [0, 1]  # two identical reads each keep their id


@pytest.mark.parametrize("batch_reads", [3, 4096])
def test_ids_across_batches(tmp_path, monkeypatch, batch_reads):
    # a family's reads fall into different batches at batch_reads=3
    rng = np.random.default_rng(8)
    bank = _records(planted_family_reads(rng, n_families=20, family_size=4, n_background=120))
    qd = build_bank_index(bank, 31, 1, 12)[0]
    monkeypatch.setattr(linker, "BANK_BATCH_READS", batch_reads)
    ram = ReadIdTable.build(qd, bank)
    disk = _build_disk_table(qd, bank, str(tmp_path))
    expect = [set() for _ in range(qd.n_keys)]
    for read in bank:
        for slot in qd.query_batch(encode_reads([read.sequence], 31)[0]).tolist():
            if slot >= 0:
                expect[slot].add(read.id)
    try:
        for slot in range(qd.n_keys):
            got, want = disk.get(np.array([slot])), ram.get(np.array([slot]))
            assert got.dtype == want.dtype == np.uint32
            assert np.array_equal(got, want)
            assert (np.diff(want.astype(np.int64)) > 0).all()
            assert set(want.tolist()) == expect[slot]
    finally:
        disk.close()
    assert any(len(ids) > 1 for ids in expect)


@pytest.mark.parametrize("gap_bytes, read_bytes", [(0, 64), (4096, 64), (8, 1 << 20)])
def test_batch_get_matches_per_slot(tmp_path, monkeypatch, gap_bytes, read_bytes):
    # every slot, repeated and shuffled, plus an empty batch; small windows
    # and gaps split the disk gather into many preads, some past one buffer
    rng = np.random.default_rng(13)
    bank = _records(planted_family_reads(rng, n_families=20, family_size=4, n_background=120))
    qd = build_bank_index(bank, 31, 1, 12)[0]
    monkeypatch.setattr(linker, "_GAP_BYTES", gap_bytes)
    monkeypatch.setattr(linker, "_READ_BYTES", read_bytes)
    ram = ReadIdTable.build(qd, bank)
    disk = _build_disk_table(qd, bank, str(tmp_path))
    try:
        slots = rng.permutation(np.concatenate([np.arange(qd.n_keys)] * 2))[: 3 * qd.n_keys // 2]
        want = np.concatenate([ram.ids[ram.offsets[s] : ram.offsets[s + 1]] for s in slots])
        for table in (ram, disk):
            got = table.get(slots)
            assert got.dtype == np.uint32
            assert np.array_equal(got, want)
            assert table.get(np.empty(0, dtype=np.int64)).size == 0
    finally:
        disk.close()
