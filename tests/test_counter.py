import time

import numpy as np
import pytest

from src_connector import counter
from src_connector.counter import build_count_table, estimate_batch, run_src_counter
from src_connector.kmers import SolidKmerSet
from src_connector.quasidict import QuasiDictionary, build_bank_index
from src_connector.seqio import ReadRecord

from _datagen import random_reads, write_fasta
from _oracles import counter_records, parse_counter_output


def _records(seqs):
    return [ReadRecord(i, s) for i, s in enumerate(seqs)]


def _count_index(bank, k, t, f):
    qd, solid = build_bank_index(bank, k, t, f)
    return qd, build_count_table(qd, solid.codes, solid.counts)


def _count(bank, query, k, t, f, out_path, threads=1):
    qd, counts = _count_index(bank, k, t, f)
    run_src_counter(qd, counts, query, out_path, threads=threads)


def test_worked_example():
    bank = ["AAAAC", "AAACA"]
    qd, counts = _count_index(_records(bank), k=4, t=1, f=8)
    rec = estimate_batch(qd, counts, [ReadRecord(0, "AAAAC")])[0]
    # k-mer counts collected: AAAA -> 1, AAAC -> 2
    assert rec.n_kmers_considered == 2
    assert rec.mean == 1.5
    assert rec.median == 2  # upper median of [1, 2]
    assert (rec.min, rec.max) == (1, 2)
    assert not rec.no_hit


def test_solidity_filter():
    bank = ["AAAAC", "AAACA"]
    qd, counts = _count_index(_records(bank), k=4, t=2, f=8)
    assert qd.n_keys == 1  # only AAAC occurs twice
    rec = estimate_batch(qd, counts, [ReadRecord(0, "AAAAC")])[0]
    assert rec.n_kmers_considered == 1 and rec.max == 2


def test_count_saturation():
    bank = ["A" * 40] * 300  # AAAA occurs 300 * 37 times
    qd, counts = _count_index(_records(bank), k=4, t=1, f=8)
    rec = estimate_batch(qd, counts, [ReadRecord(0, "AAAA")])[0]
    assert rec.max == 255


def test_count_table_chunks_match_per_key(monkeypatch):
    monkeypatch.setattr(counter, "FILL_CHUNK", 777)  # 5000 keys: six full chunks and a part
    rng = np.random.default_rng(9)
    codes = np.unique(rng.integers(0, 1 << 62, 5000, dtype=np.uint64))
    solid_counts = rng.integers(1, 600, len(codes)).astype(np.uint64)
    solid = SolidKmerSet(31, 1, codes, solid_counts, len(codes), bank_digest=bytes(16))
    qd = QuasiDictionary.create(solid, 12)
    table = build_count_table(qd, codes, solid_counts)
    expect = np.zeros(qd.n_keys, dtype=np.uint8)
    for code, count in zip(codes.tolist(), solid_counts.tolist()):
        expect[qd.query(code).index] = min(count, 255)
    assert table.dtype == np.uint8
    assert np.array_equal(table, expect)


def test_read_shorter_than_k():
    qd, counts = _count_index(_records(["ACGTACGTACGT"]), k=6, t=1, f=12)
    rec = estimate_batch(qd, counts, [ReadRecord(0, "ACG")])[0]
    assert rec.no_hit
    assert (rec.n_kmers_considered, rec.mean, rec.median, rec.min, rec.max) == (0, 0.0, 0, 0, 0)
    assert rec.format().endswith("\t*")


def test_bank_read_always_hits():
    rng = np.random.default_rng(0)
    bank = random_reads(rng, 50, 100)
    qd, counts = _count_index(_records(bank), k=31, t=1, f=62)
    for i in (0, 17, 49):
        rec = estimate_batch(qd, counts, [ReadRecord(i, bank[i])])[0]
        assert rec.min >= 1
        assert rec.n_kmers_considered == 100 - 31 + 1


def test_exact_mode_matches_oracle(tmp_path):
    rng = np.random.default_rng(1)
    seqs = random_reads(rng, 200, 100)
    seqs += seqs[:50]  # duplicated reads so t=2 keeps something
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    for t in (1, 2):
        out = tmp_path / f"out_t{t}.tsv"
        _count(bank, bank, 31, t, 62, out)
        assert parse_counter_output(out) == counter_records(seqs, seqs, 31, t)


def test_overestimation_never_below_exact(tmp_path):
    rng = np.random.default_rng(2)
    seqs = random_reads(rng, 300, 100)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    exact_out = tmp_path / "exact.tsv"
    _count(bank, bank, 31, 1, 62, exact_out)
    exact = parse_counter_output(exact_out)
    for f in (4, 8):
        approx_out = tmp_path / f"f{f}.tsv"
        _count(bank, bank, 31, 1, f, approx_out)
        approx = parse_counter_output(approx_out)
        for ex, ap in zip(exact, approx):
            assert ap[1] >= ex[1]  # n_kmers
            assert all(ap[i] >= ex[i] for i in (2, 3, 4, 5))


def test_empty_query(tmp_path):
    bank = tmp_path / "bank.fa"
    write_fasta(bank, ["ACGTACGTACGT"])
    query = tmp_path / "query.fa"
    query.write_text("")
    out = tmp_path / "out.tsv"
    _count(bank, query, 6, 1, 12, out)
    assert parse_counter_output(out) == []
    assert all(line.startswith("#") for line in out.read_text().splitlines())


def test_output_order_and_cardinality(tmp_path):
    rng = np.random.default_rng(3)
    seqs = random_reads(rng, 123, 60)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    out = tmp_path / "out.tsv"
    _count(bank, bank, 21, 1, 12, out)
    records = parse_counter_output(out)
    assert [r[0] for r in records] == list(range(123))


def test_thread_count_does_not_change_output(tmp_path):
    rng = np.random.default_rng(4)
    seqs = random_reads(rng, 500, 80)
    bank = tmp_path / "bank.fa"
    write_fasta(bank, seqs)
    out1 = tmp_path / "t1.tsv"
    out8 = tmp_path / "t8.tsv"
    _count(bank, bank, 31, 1, 12, out1, threads=1)
    _count(bank, bank, 31, 1, 12, out8, threads=8)
    assert out1.read_bytes() == out8.read_bytes()


def test_query_phase_scales_roughly_linearly():
    rng = np.random.default_rng(5)
    bank = _records(random_reads(rng, 500, 100))
    qd, counts = _count_index(bank, k=31, t=1, f=12)
    small = [ReadRecord(i, s) for i, s in enumerate(random_reads(rng, 2000, 100))]
    big = [ReadRecord(i, s) for i, s in enumerate(random_reads(rng, 20_000, 100))]

    def timed(reads):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for lo in range(0, len(reads), 2000):
                estimate_batch(qd, counts, reads[lo : lo + 2000])
            best = min(best, time.perf_counter() - t0)
        return best

    timed(small)  # warm up
    assert timed(big) <= 13 * timed(small)
