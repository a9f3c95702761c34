import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from src_connector import kmers
from src_connector.kmers import (
    SolidKmerSet,
    canonicalize_batch,
    count_solid_kmers,
    encode_reads,
    reverse_complement_batch,
    sorted_keys,
)
from src_connector.seqio import ReadRecord, SequenceFormatError

from _datagen import random_reads
from _oracles import canon_str, code_of, count_kmers, kmer_of, kmer_windows, revcomp_str

U64 = np.uint64


def _windows(seq, k):
    """(position, canonical code) of every window encode_reads keeps in one read."""
    canon, positions, _ = encode_reads([seq], k)
    return list(zip(positions.tolist(), canon.tolist()))


def test_encode_examples():
    canon, _, ptr = encode_reads(["AC", "CA", "TT", "AN", "ac"], 2)
    # CA's reverse complement TG is larger; TT's is AA; lowercase is accepted
    assert canon.tolist() == [0b0001, 0b0100, 0b0000, 0b0001]
    assert ptr.tolist() == [0, 1, 2, 3, 3, 4]  # no window in AN


def test_decode_roundtrip():
    assert code_of("GATTACA") == 0b10_00_11_11_00_01_00
    assert kmer_of(int(encode_reads(["GATTACA"], 7)[0][0]), 7) == "GATTACA"  # < TGTAATC


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
    bank = [ReadRecord(0, "AAAAC"), ReadRecord(1, "AAACA")]
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
    solid = count_solid_kmers([ReadRecord(i, s) for i, s in enumerate(seqs)], k, 1)
    n_windows = sum(len(kmer_windows(s, k)) for s in seqs)
    assert int(solid.counts.sum()) == n_windows


def test_count_matches_naive_oracle():
    rng = np.random.default_rng(5)
    seqs = random_reads(rng, 100, 90)
    seqs += seqs[:30]  # repeats
    seqs[0] = seqs[0][:20] + "N" + seqs[0][21:]
    seqs[1] = seqs[1].lower()
    for k, t in [(7, 1), (7, 2), (31, 1)]:
        solid = count_solid_kmers([ReadRecord(i, s) for i, s in enumerate(seqs)], k, t)
        expect = {km: c for km, c in count_kmers(seqs, k).items() if c >= t}
        assert _solid_as_dict(solid) == expect
        # ascending code order
        assert (np.diff(solid.codes.astype(np.int64)) > 0).all() if solid.n > 1 else True


def test_spill_path_matches_in_memory(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    seqs = random_reads(rng, 300, 100) * 2
    reads = [ReadRecord(i, s) for i, s in enumerate(seqs)]
    in_mem = count_solid_kmers(reads, 15, 2)
    monkeypatch.setattr(kmers, "COUNT_CHUNK_READS", 50)
    spilled = count_solid_kmers(reads, 15, 2, memory_budget=4096, tmp_dir=str(tmp_path))
    assert (in_mem.codes == spilled.codes).all()
    assert (in_mem.counts == spilled.counts).all()
    assert in_mem.n_distinct_total == spilled.n_distinct_total


def test_spill_removed_when_bank_fails(tmp_path, monkeypatch):
    # the bad record comes after spilling has begun; nothing may wait for gc
    bank = tmp_path / "bank.fq"
    seqs = random_reads(np.random.default_rng(9), 60, 50)
    records = "".join(f"@r{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(seqs))
    bank.write_text(records + "@cut\nACGT\n")  # no '+' line
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    monkeypatch.setattr(kmers, "COUNT_CHUNK_READS", 10)
    with pytest.raises(SequenceFormatError):
        count_solid_kmers(bank, 15, 1, memory_budget=100, tmp_dir=str(spill_dir))
    assert list(spill_dir.iterdir()) == []


@pytest.mark.parametrize("budget", [0, 1000, 1 << 40])
def test_sorted_keys_ascending(tmp_path, budget):
    rng = np.random.default_rng(10)
    batches = [rng.integers(0, 1 << 40, n, dtype=U64) for n in (300, 0, 500, 1)]
    got = list(sorted_keys(iter(batches), 40, budget, str(tmp_path)))
    assert len(got) == (1 if budget == 1 << 40 else 64)
    assert np.array_equal(np.concatenate(got), np.sort(np.concatenate(batches)))
    assert list(tmp_path.iterdir()) == []


def test_sorted_keys_removes_spill_when_caller_stops(tmp_path):
    keys = sorted_keys(iter([np.arange(100, dtype=U64)]), 7, 0, str(tmp_path))
    assert next(keys).tolist() == [0, 1]  # partitions of 2 keys
    assert list(tmp_path.iterdir()) != []
    keys.close()
    assert list(tmp_path.iterdir()) == []


def test_invalid_parameters():
    with pytest.raises(ValueError):
        count_solid_kmers([], 32, 1)
    with pytest.raises(ValueError):
        count_solid_kmers([], 31, 0)


def test_encode_reads_boundaries():
    canon, pos, ptr = encode_reads(["AAAAA", "AC", "GGG"], 3)
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
    canon, positions, ptr = encode_reads(seqs, k)
    assert ptr[0] == 0 and ptr[-1] == len(canon) == len(positions)
    for r, seq in enumerate(seqs):
        lo, hi = ptr[r], ptr[r + 1]
        got = list(zip(positions[lo:hi].tolist(), canon[lo:hi].tolist()))
        assert got == [(i, code_of(kmer)) for i, kmer in kmer_windows(seq, k)], (k, r)
