import mmap
import os
import sys
import tempfile
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from src_connector import linker, seqio
from src_connector.bitpack import KEY_CHUNK
from src_connector.cli import main
from src_connector.kmers import encode_reads
from src_connector.linker import (
    ReadIdTable,
    _build_disk_table,
    link_batch,
    run_src_linker,
)
from src_connector.quasidict import build_bank_index
from src_connector.seqio import ReadBatch

from _datagen import planted_family_reads, pool_sampled_reads, random_reads, write_fasta
from _oracles import linker_records, parse_linker_output


def _matches(rec):
    """Each read's (target id, shared k-mers) pairs."""
    bounds = rec.bounds.tolist()
    pairs = list(zip(rec.target_id.tolist(), rec.shared.tolist()))
    return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _ids(table, slots):
    """The ids table.get(slots) returns as runs, concatenated in slots order."""
    return linker._gather(*table.get(slots))


def _link_one(qd, table, read_id, seq, min_shared=1, exclude_self=False):
    """The (target id, shared k-mers) pairs of one read."""
    batch = ReadBatch.from_strings([seq], read_id)
    return _matches(link_batch(qd, table, batch, min_shared, exclude_self))[0]


def _ram_index(bank, k, t, f):
    qd = build_bank_index(bank, k, t, f)[0]
    return qd, ReadIdTable.build(qd, bank)


def _disk_index(bank, k, t, f, tmp_dir=None):
    qd = build_bank_index(bank, k, t, f)[0]
    return qd, _build_disk_table(qd, bank, tmp_dir)


def _link(bank, query, k, t, f, out, **kwargs):
    run_src_linker(build_bank_index(bank, k, t, f)[0], bank, query, out, **kwargs)


def _file_words(disk):
    """The uint32 words of a disk table's file, read through its descriptor."""
    return np.frombuffer(os.pread(disk._fd, os.fstat(disk._fd).st_size, 0), dtype=np.uint32)


def test_single_read_hand_trace():
    bank = ["AAAAAA"]
    qd, ids = _ram_index(bank, k=3, t=1, f=6)
    assert qd.n_keys == 1  # only AAA
    slot = qd.query_batch(np.array([0], dtype=np.uint64))[0]
    assert _ids(ids, np.array([slot])).tolist() == [0]  # 4 occurrences dedup to one id
    matches = _link_one(qd, ids, 0, "AAAAAA")
    # positions 0 and 3 count; 1, 2 blocked by the k-wide exclusion window
    assert matches == [(0, 2)]


def test_disjoint_alphabet_reads():
    bank = ["AAAAAA", "CCCCCC"]
    qd, ids = _ram_index(bank, k=3, t=1, f=6)
    for code_str, want in (("AAAAAA", 0), ("CCCCCC", 1)):
        matches = _link_one(qd, ids, 9, code_str)
        assert matches == [(want, 2)]
    for slot in range(qd.n_keys):
        assert len(ids.get(np.array([slot]))) == 1


def test_solidity_filter_drops_unique_kmers():
    bank = ["ACGTACGTACGT", "ACGTACGTACGT", "AACCGGTTACGA"]
    qd, ids = _ram_index(bank, k=9, t=2, f=18)
    matches = _link_one(qd, ids, 2, "AACCGGTTACGA")
    assert matches == []


def test_query_with_no_indexed_kmer():
    qd, ids = _ram_index(["AAAAAAAA"], k=3, t=1, f=6)
    rec = link_batch(qd, ids, ReadBatch.from_strings(["CCCCCCCC"]), 1, False)
    assert _matches(rec) == [[]]
    assert rec.format() == "0:*\n"


def test_query_shorter_than_k():
    qd, ids = _ram_index(["AAAAAAAA"], k=5, t=1, f=10)
    assert _link_one(qd, ids, 0, "AAA") == []


def test_similarity_cap():
    rng = np.random.default_rng(0)
    seqs = random_reads(rng, 40, 100)
    k = 31
    qd, ids = _ram_index(seqs, k=k, t=1, f=62)
    cap = (100 - k) // k + 1
    for i, seq in enumerate(seqs):
        matches = _link_one(qd, ids, i, seq)
        assert all(cnt <= cap for _, cnt in matches)
        assert (i, cap) in matches  # self-match at the cap


def test_huge_threshold_matches_nothing():
    qd, ids = _ram_index(["AAAAAAAA"], k=3, t=1, f=6)
    matches = _link_one(qd, ids, 0, "AAAAAAAA", 10**9, False)
    assert matches == []


def test_exclude_self():
    qd, ids = _ram_index(["AAAAAAAA"], k=3, t=1, f=6)
    matches = _link_one(qd, ids, 0, "AAAAAAAA", 1, True)
    assert matches == []


def test_exact_mode_matches_oracle():
    rng = np.random.default_rng(1)
    seqs = planted_family_reads(rng, n_families=10, family_size=3, n_background=60)
    k = 31
    qd, ids = _ram_index(seqs, k=k, t=1, f=62)
    expect = linker_records(seqs, seqs, k, t=1, min_shared=1)
    for i, seq in enumerate(seqs):
        matches = _link_one(qd, ids, i, seq)
        assert matches == expect[i]


def test_fp_only_adds_matches():
    rng = np.random.default_rng(2)
    seqs = planted_family_reads(rng, n_families=8, family_size=3, n_background=80)
    k = 31
    exact_qd, exact_ids = _ram_index(seqs, k=k, t=1, f=62)
    fuzzy_qd, fuzzy_ids = _ram_index(seqs, k=k, t=1, f=4)
    for i, seq in enumerate(seqs):
        exact = dict(_link_one(exact_qd, exact_ids, i, seq))
        fuzzy = dict(_link_one(fuzzy_qd, fuzzy_ids, i, seq))
        for tid, cnt in exact.items():
            assert fuzzy.get(tid, 0) >= cnt


def test_link_batch_matches_oracle():
    # one batch holds every read: empty, shorter than k and N-broken ones included
    rng = np.random.default_rng(9)
    seqs = planted_family_reads(rng, n_families=6, family_size=3, n_background=40)
    qd, ids = _ram_index(seqs, k=31, t=1, f=62)
    queries = seqs[:20] + ["", "ACGT", seqs[3][:40] + "N" + seqs[3][41:]] + seqs[20:30]
    batch = ReadBatch.from_strings(queries, 100)
    got = link_batch(qd, ids, batch, 1, False)
    assert got.query_read_id.tolist() == list(range(100, 100 + len(queries)))
    expect = linker_records(seqs, queries, 31, t=1, min_shared=1)
    matches = _matches(got)
    assert matches == [expect[i] for i in range(len(queries))]
    assert matches[22] and all(matches[:20])


def test_disk_block_hand_trace(tmp_path):
    qd, disk = _disk_index(["AAAAAA"], k=3, t=1, f=6, tmp_dir=str(tmp_path))
    try:
        raw = _file_words(disk)
        # one block: read 0 once (4 occurrences), as the RAM table holds it
        assert raw.tolist() == [0]
        assert _ids(disk, np.array([0])).tolist() == [0]
    finally:
        disk.close()


def test_disk_empty_bank(tmp_path):
    qd, disk = _disk_index([], k=3, t=1, f=6, tmp_dir=str(tmp_path))
    try:
        assert qd.n_keys == 0
        assert _file_words(disk).size == 0
    finally:
        disk.close()


def test_disk_matches_ram():
    rng = np.random.default_rng(3)
    seqs = planted_family_reads(rng, n_families=10, family_size=3, n_background=100)
    k = 31
    qd, ids = _ram_index(seqs, k=k, t=1, f=62)
    qd2, disk = _disk_index(seqs, k=k, t=1, f=62)
    try:
        for i, seq in enumerate(seqs):
            assert _link_one(qd, ids, i, seq) == _link_one(qd2, disk, i, seq)
    finally:
        disk.close()


def test_disk_get_is_thread_safe(tmp_path):
    # batch lookups from several threads must not share a file position
    rng = np.random.default_rng(7)
    bank = random_reads(rng, 2000, 100)
    qd, disk = _disk_index(bank, k=31, t=1, f=12, tmp_dir=str(tmp_path))
    batches = np.array_split(rng.integers(0, qd.n_keys, 20_000), 40)
    results = [None] * 4

    def lookup_all(i):
        results[i] = [_ids(disk, slots).tolist() for slots in batches]

    try:
        expect = [_ids(disk, slots).tolist() for slots in batches]
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


@pytest.mark.parametrize("damage", ["grown", "truncated"])
def test_disk_get_checks_blocks(tmp_path, damage):
    # a file of another size than the offsets give fails every lookup, even
    # of the slots whose words lie before a cut
    rng = np.random.default_rng(10)
    bank = random_reads(rng, 300, 100)
    qd, disk = _disk_index(bank, k=31, t=1, f=12, tmp_dir=str(tmp_path))
    try:
        slots = np.arange(qd.n_keys)
        disk.get(slots)  # intact
        if damage == "grown":
            os.pwrite(disk._fd, np.uint32(7).tobytes(), os.fstat(disk._fd).st_size)
        else:
            os.ftruncate(disk._fd, 4 * int(disk.offsets[qd.n_keys // 2]))
            slots = slots[: qd.n_keys // 2]
        with pytest.raises(IOError, match="link id table file is"):
            disk.get(slots)
    finally:
        disk.close()


def _runs_table(blocks):
    """The ReadIdTable of the given per-slot id lists."""
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in blocks], out=offsets[1:])
    return ReadIdTable(offsets, np.array(sum(blocks, []), dtype=np.uint32))


def _write_disk_table(tmp_dir, blocks):
    """A DiskIdTable over the given per-slot id lists, in the table's file
    layout, in an unnamed temp file under tmp_dir."""
    file = tempfile.TemporaryFile(dir=tmp_dir)
    file.write(np.array(sum(blocks, []), dtype=np.uint32).tobytes())
    file.flush()
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in blocks], out=offsets[1:])
    return linker.DiskIdTable(offsets, file)


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
    # target ids up to 2^32 - 1 and positions past 2^25: 26 position bits
    # leave room for 32 reads per packed key range, so the 70 reads take three
    rng = np.random.default_rng(11)
    k, top = 5, 2**32 - 1
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
    table = _runs_table(blocks) if kind == "ram" else _write_disk_table(tmp_path, blocks)
    try:
        for min_shared, exclude_self in ((1, False), (2, True)):
            got = linker._similarity(
                k, table, read_ids, reads, positions, slots, min_shared, exclude_self
            )
            assert got.query_read_id.tolist() == read_ids.tolist()
            assert _matches(got) == _greedy_reference(
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
    batch = ReadBatch.from_strings(queries)
    qd, ram = _ram_index(seqs, k=31, t=1, f=62)
    disk = _build_disk_table(qd, seqs, str(tmp_path))
    try:
        for table in (ram, disk):
            got = link_batch(qd, table, batch, 1, False)
            assert _matches(got) == [expect[i] for i in range(len(queries))]
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_output_does_not_depend_on_key_chunk(tmp_path, monkeypatch, threads):
    # scoring ranges of 1 row, 7 rows or KEY_CHUNK rows, in RAM or on disk;
    # one query read alone has more rows than every bound: it shares its 100
    # k-mers with each of 800 identical bank reads
    rng = np.random.default_rng(14)
    family = planted_family_reads(rng, n_families=6, family_size=3, n_background=40)
    repeated = random_reads(rng, 1, 130)[0]
    assert 800 * (130 - 31 + 1) > KEY_CHUNK
    bank, query = tmp_path / "bank.fa", tmp_path / "query.fa"
    write_fasta(bank, family + [repeated] * 800)
    queries = family[:30] + [repeated] + random_reads(rng, 2, 100) + family[30:]
    write_fasta(query, queries)
    out, sidecar = tmp_path / "out.txt", tmp_path / "map.tsv"
    outputs = []
    for mode in ("ram", "disk"):
        for chunk in (1, 7, KEY_CHUNK):
            monkeypatch.setattr(linker, "KEY_CHUNK", chunk)
            args = ["link", "-b", str(bank), "-q", str(query), "-t", "1", "--min-shared", "1",
                    "--mode", mode, "--threads", threads, "--tmp-dir", str(tmp_path),
                    "--sidecar", str(sidecar), "-o", str(out)]
            assert main(args) == 0
            header, body = out.read_bytes().split(b"\n", 1)
            assert f"mode={mode}".encode() in header
            outputs.append((body, sidecar.read_bytes()))
    assert all(o == outputs[0] for o in outputs[1:])
    expect = linker_records(family + [repeated] * 800, queries, 31, t=1, min_shared=1)
    assert parse_linker_output(out) == expect
    assert len(expect[30]) == 800  # the repeated read matches each of its copies


def test_scoring_rows_are_bounded(tmp_path, monkeypatch):
    # a 20x-coverage bank: each query read has ~1000 rows, the batch ~300 000
    rng = np.random.default_rng(15)
    genome = random_reads(rng, 1, 5000)[0]
    bank = [genome[s : s + 100] for s in rng.integers(0, 4900, 1000).tolist()]
    qd = build_bank_index(bank, 31, 1, 12)[0]
    batch = ReadBatch.from_strings(bank[:300])
    canon, _, ptr = encode_reads(batch.seq, batch.offsets, 31)
    slots = qd.query_batch(canon)
    reads = np.repeat(np.arange(len(batch)), np.diff(ptr))
    rows_per_read = np.zeros(len(batch), dtype=np.int64)
    sizes = []

    def greedy_counts(key, pbits, k):
        sizes.append(len(key))
        return greedy(key, pbits, k)

    greedy = linker._greedy_counts
    monkeypatch.setattr(linker, "_greedy_counts", greedy_counts)
    ram = ReadIdTable.build(qd, bank)
    disk = _build_disk_table(qd, bank, str(tmp_path))
    try:
        hit = slots >= 0
        np.add.at(rows_per_read, reads[hit], ram.blocks(slots[hit])[1])
        assert rows_per_read.sum() > 4 * KEY_CHUNK
        bound = max(KEY_CHUNK, int(rows_per_read.max()))
        results = []
        for table in (ram, disk):
            sizes.clear()
            results.append(_matches(link_batch(qd, table, batch, 2, False)))
            assert max(sizes) <= bound
            assert sum(sizes) == rows_per_read.sum()  # each row scored once
        assert results[0] == results[1]
    finally:
        disk.close()


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
        _link(["AAAAAA"], "y", 3, 1, 6, tmp_path / "o", mode="tape")


def test_avg_ids_per_entry():
    qd, ids = _ram_index(["AAAAAA", "AAAAAA"], k=3, t=1, f=6)
    for slot in range(qd.n_keys):
        assert _ids(ids, np.array([slot])).tolist() == [0, 1]  # two identical reads each keep their id


@pytest.mark.parametrize("block_bytes", [3, 4096])
def test_ids_across_batches(tmp_path, monkeypatch, block_bytes):
    # each read is a batch at 3 bytes, and a family's reads fall into different ones
    rng = np.random.default_rng(8)
    seqs = planted_family_reads(rng, n_families=20, family_size=4, n_background=120)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    qd = build_bank_index(bank, 31, 1, 12)[0]
    monkeypatch.setattr(seqio, "BLOCK_BYTES", block_bytes)
    ram = ReadIdTable.build(qd, bank)
    disk = _build_disk_table(qd, bank, str(tmp_path))
    expect = [set() for _ in range(qd.n_keys)]
    for read_id, seq in enumerate(seqs):
        batch = ReadBatch.from_strings([seq])
        for slot in qd.query_batch(encode_reads(batch.seq, batch.offsets, 31)[0]).tolist():
            if slot >= 0:
                expect[slot].add(read_id)
    try:
        for slot in range(qd.n_keys):
            got, want = _ids(disk, np.array([slot])), _ids(ram, np.array([slot]))
            assert got.dtype == want.dtype == np.uint32
            assert np.array_equal(got, want)
            assert (np.diff(want.astype(np.int64)) > 0).all()
            assert set(want.tolist()) == expect[slot]
    finally:
        disk.close()
    assert any(len(ids) > 1 for ids in expect)


@pytest.mark.parametrize("bank_kind", ["multi-batch", "empty"])
def test_disk_file_holds_ram_ids(tmp_path, monkeypatch, bank_kind):
    # one layout: the disk file's words are the RAM table's ids, and both
    # tables have the same offsets; small blocks make one batch per read
    bank = tmp_path / "bank.fa"
    rng = np.random.default_rng(15)
    write_fasta(bank, planted_family_reads(rng, 20, 4, 120) if bank_kind == "multi-batch" else [])
    qd = build_bank_index(bank, 31, 1, 12)[0]
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 64)
    ram = ReadIdTable.build(qd, bank)
    disk = _build_disk_table(qd, bank, str(tmp_path))
    try:
        assert np.array_equal(_file_words(disk), ram.ids)
        assert np.array_equal(disk.offsets, ram.offsets)
        assert len(ram.offsets) == qd.n_keys + 1
        assert (len(ram.ids) > qd.n_keys) == (bank_kind == "multi-batch")
    finally:
        disk.close()


@pytest.mark.parametrize("cuts", [1, 3, 17])
def test_disk_table_parts_split_inside_a_slot(tmp_path, monkeypatch, cuts):
    # a spill splits a slot's reads across parts only past 2^26 read ids, so
    # cut the sorted pair keys by hand: half the cuts inside the fullest slot,
    # so that some parts lie wholly in it, the rest in other slots, and add an
    # empty part; the file must be the unsplit build's
    rng = np.random.default_rng(14)
    bank = pool_sampled_reads(rng, pool_size=50, n_reads=300, length=60)
    qd = build_bank_index(bank, 31, 1, 12)[0]
    (keys,) = linker._sorted_pairs(qd, bank, sys.maxsize)
    slot = keys >> np.uint64(32)
    inside = np.flatnonzero(slot[1:] == slot[:-1]) + 1  # a cut there splits a slot
    values, counts = np.unique(slot, return_counts=True)
    in_fullest = inside[slot[inside] == values[counts.argmax()]]
    others = rng.choice(np.setdiff1d(inside, in_fullest), cuts - cuts // 2, replace=False)
    parts = np.split(keys, np.union1d(in_fullest[: cuts // 2], others))
    parts.insert(1, keys[:0])
    whole = _build_disk_table(qd, bank, str(tmp_path))
    monkeypatch.setattr(linker, "_sorted_pairs", lambda *args: iter(parts))
    split = _build_disk_table(qd, bank, str(tmp_path))
    try:
        assert len(parts) == cuts + 2
        assert np.array_equal(_file_words(whole), _file_words(split))
        assert np.array_equal(split.offsets, whole.offsets)
    finally:
        whole.close()
        split.close()


@pytest.mark.parametrize("n_reads", [255, 256, 257])
def test_bank_must_fit_id_table(tmp_path, monkeypatch, capsys, n_reads):
    # both tables store plain ids, so a uint8 table holds ids up to 255: 256 reads
    bank = tmp_path / "bank.fa"
    write_fasta(bank, random_reads(np.random.default_rng(12), n_reads, 60))
    qd = build_bank_index(bank, 31, 1, 12)[0]
    monkeypatch.setattr(linker, "_ID_DTYPE", np.uint8)
    spill = tmp_path / "spill"
    spill.mkdir()
    if n_reads <= 256:  # both builds succeed, and the disk table reads back uint8 words
        ram = ReadIdTable.build(qd, bank)
        assert ram.ids.max() == n_reads - 1
        disk = _build_disk_table(qd, bank, str(spill))
        try:
            slots = np.arange(qd.n_keys)
            got = _ids(disk, slots)
            assert got.dtype == np.uint8
            assert np.array_equal(got, _ids(ram, slots))
        finally:
            disk.close()
    else:
        with pytest.raises(ValueError, match="more than 256 reads"):
            ReadIdTable.build(qd, bank)
        with pytest.raises(ValueError, match="more than 256 reads"):
            _build_disk_table(qd, bank, str(spill))
        args = ["link", "-b", str(bank), "-q", str(bank), "-t", "1", "--mode", "disk",
                "--tmp-dir", str(spill), "-o", str(tmp_path / "out.txt")]
        assert main(args) == 2
        assert "more than 256 reads" in capsys.readouterr().err
    assert list(spill.iterdir()) == []


def test_pair_keys_must_fit_slot_bits(tmp_path):
    # a pair key holds the slot in its 32 high bits, so both tables refuse a
    # dictionary of more than 2^32 k-mers before anything sized by it is
    # allocated or any bank read is looked up
    class Huge:
        n_keys = 2**32 + 1

        def lookup(self, batch):
            pytest.fail("the bank was looked up")

    bank = tmp_path / "bank.fa"
    write_fasta(bank, ["ACGT" * 10])
    spill = tmp_path / "spill"
    spill.mkdir()
    with pytest.raises(ValueError, match=r"more than the 2\^32"):
        ReadIdTable.build(Huge(), bank)
    with pytest.raises(ValueError, match=r"more than the 2\^32"):
        _build_disk_table(Huge(), bank, str(spill))
    assert list(spill.iterdir()) == []


@pytest.mark.parametrize("read_bytes", [64, 4096, 1 << 20])
def test_batch_get_matches_per_slot(tmp_path, monkeypatch, read_bytes):
    # every slot, repeated and shuffled, plus an empty batch; windows below
    # the mapping granularity map spans that start before the window
    rng = np.random.default_rng(13)
    bank = planted_family_reads(rng, n_families=20, family_size=4, n_background=120)
    qd = build_bank_index(bank, 31, 1, 12)[0]
    monkeypatch.setattr(linker, "_READ_BYTES", read_bytes)
    ram = ReadIdTable.build(qd, bank)
    disk = _build_disk_table(qd, bank, str(tmp_path))
    try:
        slots = rng.permutation(np.concatenate([np.arange(qd.n_keys)] * 2))[: 3 * qd.n_keys // 2]
        want = np.concatenate([ram.ids[ram.offsets[s] : ram.offsets[s + 1]] for s in slots])
        for table in (ram, disk):
            runs = table.get(slots)
            got = linker._gather(*runs)
            assert got.dtype == np.uint32
            assert np.array_equal(got, want)
            assert len(runs) == len(want)  # the tracer notes len() as the ids looked up
            assert _ids(table, np.empty(0, dtype=np.int64)).size == 0
    finally:
        disk.close()


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([0, 0, 1, 2, 5, 17, 300, 1100]), max_size=24),
    picks=st.lists(st.integers(0, 1000), max_size=60),
    seed=st.integers(0, 2**32 - 1),
    read_bytes=st.sampled_from([64, 4096, 1 << 20]),
)
@example(sizes=[0, 0, 0], picks=[2, 0, 2], seed=0, read_bytes=4096)  # a 0-byte file
@example(sizes=[3, 300_000, 0, 2], picks=[3, 1, 0, 1, 2], seed=1, read_bytes=1 << 20)
def test_disk_get_matches_ram_get(sizes, picks, seed, read_bytes):
    # blocks of ids that lie inside a window, span several (300 000 ids pass
    # 1 MiB) or are empty; a batch of slots with repeats, and the empty batch
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 2**32, n).tolist() for n in sizes]
    slots = np.array(picks if sizes else [], dtype=np.int64) % max(len(sizes), 1)
    ram = _runs_table(blocks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linker, "_READ_BYTES", read_bytes)
        disk = _write_disk_table(None, blocks)
        try:
            for batch in (slots, np.empty(0, dtype=np.int64)):
                runs = disk.get(batch)
                got = linker._gather(*runs)
                assert got.dtype == np.uint32 and len(runs) == len(got)
                assert np.array_equal(got, _ids(ram, batch))
        finally:
            disk.close()


def test_disk_get_maps_one_window_at_a_time(tmp_path, monkeypatch):
    # each 4 KiB window that a non-empty block starts in is one mapping of
    # its blocks' span, rounded down to the allocation granularity, and it
    # is unmapped before the next window is mapped
    rng = np.random.default_rng(14)
    qd, disk = _disk_index(random_reads(rng, 300, 100), k=31, t=1, f=12, tmp_dir=str(tmp_path))
    monkeypatch.setattr(linker, "_READ_BYTES", 4096)
    make, live, most, lengths = mmap.mmap, [0], [0], []

    def record(*args, **kwargs):
        mapping = make(*args, **kwargs)
        lengths.append(len(mapping))
        live[0] += 1
        most[0] = max(most[0], live[0])
        weakref.finalize(mapping, unmapped)
        return mapping

    def unmapped():
        live[0] -= 1

    try:
        monkeypatch.setattr(linker.mmap, "mmap", record)
        disk.get(rng.permutation(qd.n_keys))
        lo, n = disk.offsets[:-1], np.diff(disk.offsets)
        lo, end = 4 * lo[n > 0], 4 * (lo + n)[n > 0]
        first = np.flatnonzero(np.diff(lo // 4096, prepend=-1))
        spans = end[np.append(first[1:], len(lo)) - 1] - lo[first]
        assert len(spans) > 10 and len(lengths) == len(spans)
        assert all(got <= span + mmap.ALLOCATIONGRANULARITY for got, span in zip(lengths, spans))
        assert most == [1] and live == [0]
    finally:
        disk.close()
