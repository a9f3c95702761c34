import gc
import gzip
import warnings

import pytest

from src_connector.seqio import (
    BankDigest,
    ReadRecord,
    ReadStream,
    SequenceFormatError,
    read_batches,
)

FASTA = ">r0 first\nACGT\nACGT\n>r1\nTTTT\n"
FASTQ = "@r0 first\nACGTACGT\n+\nIIIIIIII\n@r1\nTTTT\n+r1\nIIII\n"


def test_multiline_fasta(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_text(FASTA)
    records = list(ReadStream(path))
    assert records == [
        ReadRecord(0, "ACGTACGT", "r0 first"),
        ReadRecord(1, "TTTT", "r1"),
    ]


def test_fastq(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text(FASTQ)
    records = list(ReadStream(path))
    assert [r.sequence for r in records] == ["ACGTACGT", "TTTT"]
    assert [r.id for r in records] == [0, 1]


def test_gzip_matches_plain(tmp_path):
    plain = tmp_path / "reads.fq"
    plain.write_text(FASTQ)
    gz = tmp_path / "reads.fq.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(FASTQ)
    assert list(ReadStream(gz)) == list(ReadStream(plain))


def test_gzip_fasta(tmp_path):
    gz = tmp_path / "reads.fa.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(FASTA)
    assert [r.sequence for r in ReadStream(gz)] == ["ACGTACGT", "TTTT"]


def test_gzip_closes_its_file(tmp_path):
    gz = tmp_path / "reads.fa.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(FASTA)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(list(ReadStream(gz))) == 2
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bank_digest_ignores_batching():
    seqs = ["ACGT", "", "TTGCA", "NNAC"]
    whole = BankDigest()
    whole.update(seqs)
    split = BankDigest()
    for part in (seqs[:1], [], seqs[1:3], seqs[3:]):
        split.update(part)
    assert whole.digest() == split.digest()
    assert len(whole.digest()) == 16
    joined = BankDigest()
    joined.update(["ACGTTTGCA", "", "NNAC"])  # same bases, other read boundaries
    assert joined.digest() != whole.digest()


def test_unrecognized_format(tmp_path):
    path = tmp_path / "reads.txt"
    path.write_text("ACGT\nACGT\n")
    with pytest.raises(SequenceFormatError):
        ReadStream(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.fa"
    path.write_text("")
    assert list(ReadStream(path)) == []


def test_fastq_at_sign_in_quality(tmp_path):
    # quality line starts with '@'; length matching must not treat it as a header
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGT\n+\n@III\n@r1\nTT\n+\nII\n")
    records = list(ReadStream(path))
    assert [r.sequence for r in records] == ["ACGT", "TT"]


def test_fastq_multiline_quality(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGTACGT\n+\nIIII\nIIII\n@r1\nTT\n+\nII\n")
    assert [r.sequence for r in ReadStream(path)] == ["ACGTACGT", "TT"]


def test_crlf_equals_lf(tmp_path):
    lf = tmp_path / "lf.fa"
    lf.write_text(FASTA)
    crlf = tmp_path / "crlf.fa"
    crlf.write_text(FASTA.replace("\n", "\r\n"))
    assert list(ReadStream(crlf)) == list(ReadStream(lf))


def test_truncated_fastq(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGT\n+\nII\n")
    with pytest.raises(SequenceFormatError):
        list(ReadStream(path))


def test_fastq_missing_plus(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGT\nIIII\n")
    with pytest.raises(SequenceFormatError):
        list(ReadStream(path))


@pytest.mark.parametrize(
    "text",
    [
        FASTQ + "\n",
        FASTQ.replace("\n@r1", "\n\n@r1"),
        "\n\n" + FASTQ,
        FASTQ.replace("\n", "\r\n") + "\r\n\r\n",
    ],
    ids=["trailing", "between", "leading", "crlf"],
)
def test_fastq_blank_lines(tmp_path, text):
    path = tmp_path / "reads.fq"
    path.write_text(text)
    records = list(ReadStream(path))
    assert [(r.id, r.sequence, r.header) for r in records] == [
        (0, "ACGTACGT", "r0 first"),
        (1, "TTTT", "r1"),
    ]


def test_fasta_leading_blank_line(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_text("\r\n\n" + FASTA)
    assert [r.sequence for r in ReadStream(path)] == ["ACGTACGT", "TTTT"]


@pytest.mark.parametrize(
    "text", ["@r0\nACGT\n+\nII\n\n", "@r0\nACGT\n\nIIII\n", "@r0\nACGT\n+\nIIII\n\nr1\n"]
)
def test_fastq_blank_lines_keep_errors(tmp_path, text):
    path = tmp_path / "reads.fq"
    path.write_text(text)
    with pytest.raises(SequenceFormatError):
        list(ReadStream(path))


def test_ids_stable_across_passes(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_text(FASTA)
    first = [(r.id, r.sequence) for r in ReadStream(path)]
    second = [(r.id, r.sequence) for r in ReadStream(path)]
    assert first == second


def test_read_batches(tmp_path):
    path = tmp_path / "reads.fa"
    with open(path, "w") as fh:
        for i in range(10):
            fh.write(f">r{i}\nACGT\n")
    batches = list(read_batches(path, 4))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert [r.id for b in batches for r in b] == list(range(10))
