import sys
import threading

import numpy as np
import pytest

from src_connector.kmers import encode_reads
from src_connector.linker import (
    ReadIdTable,
    _build_disk_table,
    _similarity,
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
    assert ids.get(slot).tolist() == [0]  # 4 occurrences dedup to one id
    rec = _similarity(qd, ids, ReadRecord(0, "AAAAAA"), 1, False)
    # positions 0 and 3 count; 1, 2 blocked by the k-wide exclusion window
    assert rec.matches == [(0, 2)]


def test_disjoint_alphabet_reads():
    bank = _records(["AAAAAA", "CCCCCC"])
    qd, ids = _ram_index(bank, k=3, t=1, f=6)
    for code_str, want in (("AAAAAA", 0), ("CCCCCC", 1)):
        rec = _similarity(qd, ids, ReadRecord(9, code_str), 1, False)
        assert rec.matches == [(want, 2)]
    for slot in range(qd.n_keys):
        assert len(ids.get(slot)) == 1


def test_solidity_filter_drops_unique_kmers():
    bank = _records(["ACGTACGTACGT", "ACGTACGTACGT", "AACCGGTTACGA"])
    qd, ids = _ram_index(bank, k=9, t=2, f=18)
    rec = _similarity(qd, ids, ReadRecord(2, "AACCGGTTACGA"), 1, False)
    assert rec.matches == []


def test_query_with_no_indexed_kmer():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=3, t=1, f=6)
    rec = _similarity(qd, ids, ReadRecord(0, "CCCCCCCC"), 1, False)
    assert rec.matches == []
    assert rec.format() == "0:*"


def test_query_shorter_than_k():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=5, t=1, f=10)
    assert _similarity(qd, ids, ReadRecord(0, "AAA"), 1, False).matches == []


def test_similarity_cap():
    rng = np.random.default_rng(0)
    seqs = random_reads(rng, 40, 100)
    k = 31
    qd, ids = _ram_index(_records(seqs), k=k, t=1, f=62)
    cap = (100 - k) // k + 1
    for i, seq in enumerate(seqs):
        rec = _similarity(qd, ids, ReadRecord(i, seq), 1, False)
        assert all(cnt <= cap for _, cnt in rec.matches)
        assert (i, cap) in rec.matches  # self-match at the cap


def test_huge_threshold_matches_nothing():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=3, t=1, f=6)
    rec = _similarity(qd, ids, ReadRecord(0, "AAAAAAAA"), 10**9, False)
    assert rec.matches == []


def test_exclude_self():
    qd, ids = _ram_index(_records(["AAAAAAAA"]), k=3, t=1, f=6)
    rec = _similarity(qd, ids, ReadRecord(0, "AAAAAAAA"), 1, True)
    assert rec.matches == []


def test_exact_mode_matches_oracle():
    rng = np.random.default_rng(1)
    seqs = planted_family_reads(rng, n_families=10, family_size=3, n_background=60)
    k = 31
    qd, ids = _ram_index(_records(seqs), k=k, t=1, f=62)
    expect = linker_records(seqs, seqs, k, t=1, min_shared=1)
    for i, seq in enumerate(seqs):
        rec = _similarity(qd, ids, ReadRecord(i, seq), 1, False)
        assert rec.matches == expect[i]


def test_fp_only_adds_matches():
    rng = np.random.default_rng(2)
    seqs = planted_family_reads(rng, n_families=8, family_size=3, n_background=80)
    k = 31
    exact_qd, exact_ids = _ram_index(_records(seqs), k=k, t=1, f=62)
    fuzzy_qd, fuzzy_ids = _ram_index(_records(seqs), k=k, t=1, f=4)
    for i, seq in enumerate(seqs):
        read = ReadRecord(i, seq)
        exact = dict(_similarity(exact_qd, exact_ids, read, 1, False).matches)
        fuzzy = dict(_similarity(fuzzy_qd, fuzzy_ids, read, 1, False).matches)
        for tid, cnt in exact.items():
            assert fuzzy.get(tid, 0) >= cnt


def test_disk_block_hand_trace(tmp_path):
    qd, disk = _disk_index(_records(["AAAAAA"]), k=3, t=1, f=6, tmp_dir=str(tmp_path))
    try:
        raw = np.fromfile(disk.path, dtype=np.uint32)
        # one block: read 0 once (4 occurrences) stored +1, then the 0 terminator
        assert raw.tolist() == [1, 0]
        assert disk.get(0).tolist() == [0]
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
            ram = _similarity(qd, ids, read, 1, False)
            dsk = _similarity(qd2, disk, read, 1, False)
            assert ram.matches == dsk.matches
    finally:
        disk.close()


def test_disk_get_is_thread_safe(tmp_path):
    # lookups from several threads must not share a file position
    rng = np.random.default_rng(7)
    bank = _records(random_reads(rng, 2000, 100))
    qd, disk = _disk_index(bank, k=31, t=1, f=12, tmp_dir=str(tmp_path))
    slots = rng.integers(0, qd.n_keys, 20_000).tolist()
    results = [None] * 4

    def lookup_all(i):
        results[i] = [disk.get(slot).tolist() for slot in slots]

    try:
        expect = [disk.get(slot).tolist() for slot in slots]
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
        assert ids.get(slot).tolist() == [0, 1]  # two identical reads each keep their id


@pytest.mark.parametrize("batch_reads", [3, 4096])
def test_ids_across_batches(tmp_path, batch_reads):
    # a family's reads fall into different batches at batch_reads=3
    rng = np.random.default_rng(8)
    bank = _records(planted_family_reads(rng, n_families=20, family_size=4, n_background=120))
    qd = build_bank_index(bank, 31, 1, 12)[0]
    ram = ReadIdTable.build(qd, bank, batch_reads)
    disk = _build_disk_table(qd, bank, str(tmp_path), batch_reads)
    expect = [set() for _ in range(qd.n_keys)]
    for read in bank:
        for slot in qd.query_batch(encode_reads([read.sequence], 31)[0]).tolist():
            if slot >= 0:
                expect[slot].add(read.id)
    try:
        for slot in range(qd.n_keys):
            got, want = disk.get(slot), ram.get(slot)
            assert got.dtype == want.dtype == np.uint32
            assert np.array_equal(got, want)
            assert (np.diff(want.astype(np.int64)) > 0).all()
            assert set(want.tolist()) == expect[slot]
    finally:
        disk.close()
    assert any(len(ids) > 1 for ids in expect)
