import time
from types import SimpleNamespace

import numpy as np
import pytest

from src_connector import mphf
from src_connector.counter import build_count_table, estimate_batch, run_src_counter
from src_connector.kmers import SolidKmerSet, count_solid_kmers, encode_reads
from src_connector.quasidict import QuasiDictionary, build_bank_index
from src_connector.seqio import ReadBatch

from _datagen import random_reads, write_fasta
from _oracles import counter_records, parse_counter_output


def _row(records, i=0):
    """Read i's statistics as Python values."""
    return SimpleNamespace(**{
        name: getattr(records, name)[i].item() for name in vars(records)
    })


def _count_index(bank, k, t, f):
    return build_bank_index(bank, k, t, f)


def _count(bank, query, k, t, f, out_path, threads=1):
    qd, counts = _count_index(bank, k, t, f)
    run_src_counter(qd, counts, query, out_path, threads=threads)


def test_worked_example():
    bank = ["AAAAC", "AAACA"]
    qd, counts = _count_index(bank, k=4, t=1, f=8)
    rec = _row(estimate_batch(qd, counts, ReadBatch.from_strings(["AAAAC"])))
    # k-mer counts collected: AAAA -> 1, AAAC -> 2
    assert rec.n_kmers_considered == 2
    assert rec.mean == 1.5
    assert rec.median == 2  # upper median of [1, 2]
    assert (rec.min, rec.max) == (1, 2)
    assert not rec.no_hit


def test_solidity_filter():
    bank = ["AAAAC", "AAACA"]
    qd, counts = _count_index(bank, k=4, t=2, f=8)
    assert qd.n_keys == 1  # only AAAC occurs twice
    rec = _row(estimate_batch(qd, counts, ReadBatch.from_strings(["AAAAC"])))
    assert rec.n_kmers_considered == 1 and rec.max == 2


def test_count_saturation():
    bank = ["A" * 40] * 300  # AAAA occurs 300 * 37 times
    qd, counts = _count_index(bank, k=4, t=1, f=8)
    rec = _row(estimate_batch(qd, counts, ReadBatch.from_strings(["AAAA"])))
    assert rec.max == 255


def test_count_table_chunks_match_per_key(monkeypatch):
    # the table create fills as the MPHF settles its keys, 777 at a time (5000
    # keys: six full chunks and a part per level), is build_count_table's,
    # which queries every key in one call; counts up to 600 saturate at 255
    monkeypatch.setattr(mphf, "KEY_CHUNK", 777)
    rng = np.random.default_rng(9)
    codes = np.unique(rng.integers(0, 1 << 62, 5000, dtype=np.uint64))
    solid_counts = rng.integers(1, 600, len(codes)).astype(np.uint64)
    solid = SolidKmerSet(31, 1, codes, solid_counts, len(codes), bank_digest=bytes(16))
    table = np.zeros(len(codes), dtype=np.uint8)
    qd = QuasiDictionary.create(solid, 12, count_table=table)
    expect = build_count_table(qd, codes, solid_counts)
    assert (expect == 255).any() and ((expect > 0) & (expect < 255)).any()
    assert np.array_equal(table, expect)


def test_bank_index_table_matches_a_queried_table():
    # build_bank_index's table, filled as the MPHF is built, is the one
    # build_count_table makes by querying every solid k-mer; reads repeated
    # up to 600 times saturate some counts at 255
    rng = np.random.default_rng(10)
    reads = random_reads(rng, 40, 50)
    bank = [read for read, n in zip(reads, rng.integers(1, 600, len(reads)).tolist()) for _ in range(n)]
    qd, table = build_bank_index(bank, 31, 2, 12)
    solid = count_solid_kmers(bank, 31, 2)
    expect = build_count_table(qd, solid.codes, solid.counts)
    assert (expect == 255).any() and ((expect > 0) & (expect < 255)).any()
    assert table.dtype == np.uint8 and np.array_equal(table, expect)


def test_read_shorter_than_k():
    qd, counts = _count_index(["ACGTACGTACGT"], k=6, t=1, f=12)
    records = estimate_batch(qd, counts, ReadBatch.from_strings(["ACG"]))
    rec = _row(records)
    assert rec.no_hit
    assert (rec.n_kmers_considered, rec.mean, rec.median, rec.min, rec.max) == (0, 0.0, 0, 0, 0)
    assert records.format().endswith("\t*\n")


def test_bank_read_always_hits():
    rng = np.random.default_rng(0)
    bank = random_reads(rng, 50, 100)
    qd, counts = _count_index(bank, k=31, t=1, f=62)
    for i in (0, 17, 49):
        rec = _row(estimate_batch(qd, counts, ReadBatch.from_strings([bank[i]], i)))
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
    bank = random_reads(rng, 500, 100)
    qd, counts = _count_index(bank, k=31, t=1, f=12)
    small = random_reads(rng, 2000, 100)
    big = random_reads(rng, 20_000, 100)

    def timed(reads):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for lo in range(0, len(reads), 2000):
                estimate_batch(qd, counts, ReadBatch.from_strings(reads[lo : lo + 2000], lo))
            best = min(best, time.perf_counter() - t0)
        return best

    timed(small)  # warm up
    assert timed(big) <= 13 * timed(small)


def _per_read_records(qd, counts, batch):
    """Loop reference: each read's hits through its own np.sort and mean."""
    canon, _, ptr = encode_reads(batch.seq, batch.offsets, qd.k)
    idx = qd.query_batch(canon)
    lines = []
    for r, rid in enumerate(range(batch.first_id, batch.first_id + len(batch))):
        slots = idx[ptr[r] : ptr[r + 1]]
        hits = counts[slots[slots >= 0]]
        n = len(hits)
        if n == 0:
            lines.append(f"{rid}\t0\t0.00\t0\t0\t0\t*")
        else:
            srt = np.sort(hits)
            lines.append(
                f"{rid}\t{n}\t{float(hits.mean()):.2f}\t{srt[n // 2]}\t{srt[0]}\t{srt[-1]}"
            )
    return lines


def test_estimate_batch_statistics():
    k = 15
    rng = np.random.default_rng(11)
    x = random_reads(rng, 1, 60)[0]
    # x's k-mers from position 5 on occur three times, those before once;
    # A*k occurs 300 * 26 times and saturates
    bank = random_reads(rng, 40, 60) + [x, x[5:], x[5:]] + ["A" * 40] * 300
    qd, counts = _count_index(bank, k=k, t=1, f=2 * k)
    query = [
        "",  # no window
        "ACGTACG",  # shorter than k
        random_reads(rng, 1, 50)[0],  # alien
        x[:k],  # one hit
        x[3 : 3 + k + 3],  # counts 1, 1, 3, 3: upper median 3
        x[4 : 4 + k + 1] + "N" + "A" * (k + 3),  # 1, 3 and four saturated
        "A" * (k + 2),
        "T" * k + "C" + x,
    ] + bank[:20]
    batch = ReadBatch.from_strings(query, 100)
    records = estimate_batch(qd, counts, batch)
    lines = records.format().splitlines()

    expect = counter_records(bank, query, k, 1)
    assert [(r[1], r[3]) for r in expect[2:7]] == [(0, 0), (1, 1), (4, 3), (6, 255), (3, 255)]
    oracle_lines = [
        f"{100 + rid}\t{n}\t{mean:.2f}\t{med}\t{lo}\t{hi}" + ("\t*" if n == 0 else "")
        for rid, n, mean, med, lo, hi in expect
    ]
    assert lines == oracle_lines
    assert lines == _per_read_records(qd, counts, batch)
    assert records.no_hit[:4].tolist() == [True, True, True, False]
