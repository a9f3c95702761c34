import gc
import gzip
import multiprocessing
import os
import signal
import warnings
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from src_connector import seqio
from src_connector.seqio import (
    BankDigest,
    STOP_SIGNALS,
    ReadBatch,
    ReadStream,
    SequenceFormatError,
    ordered_map,
    read_batches,
)

from _oracles import fasta_records, fastq_records

FASTA = ">r0 first\nACGT\nACGT\n>r1\nTTTT\n"
FASTQ = "@r0 first\nACGTACGT\n+\nIIIIIIII\n@r1\nTTTT\n+r1\nIIII\n"


def _reads(path):
    """(id, sequence, header) of each read of a file, the last two as text."""
    reads = []
    for batch in ReadStream(path):
        seqs = batch.seq.tobytes().decode("latin-1").split("\n")
        headers = batch.headers.tobytes().decode("latin-1").split("\n")
        reads += zip(range(batch.first_id, batch.first_id + len(batch)), seqs, headers)
    return reads


def _seqs(path):
    return [seq for _, seq, _ in _reads(path)]


def test_multiline_fasta(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_text(FASTA)
    assert _reads(path) == [
        (0, "ACGTACGT", "r0 first"),
        (1, "TTTT", "r1"),
    ]


def test_fastq(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text(FASTQ)
    records = _reads(path)
    assert [seq for _, seq, _ in records] == ["ACGTACGT", "TTTT"]
    assert [rid for rid, _, _ in records] == [0, 1]


def test_gzip_matches_plain(tmp_path):
    plain = tmp_path / "reads.fq"
    plain.write_text(FASTQ)
    gz = tmp_path / "reads.fq.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(FASTQ)
    assert _reads(gz) == _reads(plain)


def test_gzip_fasta(tmp_path):
    gz = tmp_path / "reads.fa.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(FASTA)
    assert _seqs(gz) == ["ACGTACGT", "TTTT"]


def test_gzip_closes_its_file(tmp_path):
    gz = tmp_path / "reads.fa.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(FASTA)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(_reads(gz)) == 2
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bank_digest_ignores_batching():
    seqs = ["ACGT", "", "TTGCA", "NNAC"]
    whole = BankDigest()
    whole.update(ReadBatch.from_strings(seqs).seq)
    split = BankDigest()
    for part in (seqs[:1], [], seqs[1:3], seqs[3:]):
        split.update(ReadBatch.from_strings(part).seq)
    assert whole.digest() == split.digest()
    assert len(whole.digest()) == 16
    joined = BankDigest()
    joined.update(ReadBatch.from_strings(["ACGTTTGCA", "", "NNAC"]).seq)  # other read boundaries
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
    assert _seqs(path) == ["ACGT", "TT"]


def test_fastq_multiline_quality(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGTACGT\n+\nIIII\nIIII\n@r1\nTT\n+\nII\n")
    assert _seqs(path) == ["ACGTACGT", "TT"]


def test_crlf_equals_lf(tmp_path):
    lf = tmp_path / "lf.fa"
    lf.write_text(FASTA)
    crlf = tmp_path / "crlf.fa"
    crlf.write_text(FASTA.replace("\n", "\r\n"))
    assert _reads(crlf) == _reads(lf)


def test_truncated_fastq(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGT\n+\nII\n")
    with pytest.raises(SequenceFormatError):
        _reads(path)


def test_fastq_missing_plus(tmp_path):
    path = tmp_path / "reads.fq"
    path.write_text("@r0\nACGT\nIIII\n")
    with pytest.raises(SequenceFormatError):
        _reads(path)


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
    assert _reads(path) == [
        (0, "ACGTACGT", "r0 first"),
        (1, "TTTT", "r1"),
    ]


def test_fasta_leading_blank_line(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_text("\r\n\n" + FASTA)
    assert _seqs(path) == ["ACGTACGT", "TTTT"]


@pytest.mark.parametrize(
    "text", ["@r0\nACGT\n+\nII\n\n", "@r0\nACGT\n\nIIII\n", "@r0\nACGT\n+\nIIII\n\nr1\n"]
)
def test_fastq_blank_lines_keep_errors(tmp_path, text):
    path = tmp_path / "reads.fq"
    path.write_text(text)
    with pytest.raises(SequenceFormatError):
        _reads(path)


def test_ids_stable_across_passes(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_text(FASTA)
    first = _reads(path)
    second = _reads(path)
    assert first == second


def _check_batches(batches):
    """Each batch's first_id is the number of reads before it, and it holds
    at most BLOCK_BYTES of sequence and header bytes unless it is one read."""
    sizes = [len(b) for b in batches]
    assert [b.first_id for b in batches] == [sum(sizes[:i]) for i in range(len(sizes))]
    for batch in batches:
        assert len(batch) == 1 or len(batch.seq) + len(batch.headers) <= seqio.BLOCK_BYTES


def test_read_batches(tmp_path, monkeypatch):
    path = tmp_path / "reads.fa"
    with open(path, "w") as fh:
        for i in range(10):
            fh.write(f">r{i}\nACGT\n")
    # a 30-byte view holds 3 records of 9 bytes, and the last may go on
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 30)
    batches = list(read_batches(path))
    assert [len(b) for b in batches] == [2] * 5
    _check_batches(batches)
    assert [i for b in batches for i in range(b.first_id, b.first_id + len(b))] == list(range(10))
    (batch,) = read_batches(["ACGT"] * 10)  # a list is one batch
    assert (batch.first_id, len(batch)) == (0, 10)
    assert list(read_batches([])) == []


_BASES = b"ACGTacgtNn*- \r\x00\xe9"  # what a sequence line may hold, besides ACGT
_EOL = st.sampled_from([b"\n", b"\r\n"])
_HEADER = st.binary(max_size=8).map(lambda h: h.replace(b"\n", b"_"))


@st.composite
def _fasta(draw):
    """A FASTA file with wrapped, CRLF and blank lines and empty reads."""
    lines = [b""] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 12))):
        lines.append(b">" + draw(_HEADER))
        seq = draw(st.binary(max_size=40).map(lambda s: bytes(_BASES[b % len(_BASES)] for b in s)))
        width = draw(st.integers(1, 16))
        for lo in range(0, len(seq), width):
            lines += [seq[lo : lo + width]] + [b""] * draw(st.integers(0, 1))
    return lines


@st.composite
def _fastq(draw):
    """A FASTQ file with quality lines that start with '@' or '+' or span
    lines, blank lines between records and empty reads."""
    lines = [b""] * draw(st.integers(0, 1))
    for _ in range(draw(st.integers(0, 12))):
        seq = draw(st.binary(max_size=30).map(lambda s: bytes(_BASES[b % len(_BASES)] for b in s)))
        qual = draw(st.binary(min_size=len(seq), max_size=len(seq)).map(
            lambda q: bytes(33 + b % 94 for b in q)
        ))
        cuts = sorted(draw(st.lists(st.integers(0, len(qual)), max_size=2)))
        quals = [qual[a:b] for a, b in zip([0] + cuts, cuts + [len(qual)])]
        lines += [b"@" + draw(_HEADER), seq, b"+" + draw(_HEADER)[:1]] + quals
        lines += [b""] * draw(st.integers(0, 1))
    return lines


def _batch_reads(batches):
    """(id, sequence, header) of each read of a list of batches, as bytes."""
    reads = []
    for batch in batches:
        seqs = batch.seq.tobytes().split(b"\n")
        headers = batch.headers.tobytes().split(b"\n")
        reads += zip(range(batch.first_id, batch.first_id + len(batch)), seqs, headers)
    return reads


@given(
    fastq=st.booleans(), data=st.data(), gz=st.booleans(), cut=st.integers(0, 1 << 16),
    block=st.sampled_from([1, 7, 64, 1 << 20]),
)
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference_loops(tmp_path_factory, fastq, data, gz, cut, block):
    lines = data.draw(_fastq() if fastq else _fasta())
    text = b"".join(line + data.draw(_EOL) for line in lines)
    if fastq and cut % 4 == 0:  # now and then a file cut short
        text = text[: cut % (len(text) + 1)]
    elif cut % 3 == 0:
        text = text.rstrip(b"\r\n")  # no line end after the last line
    path = tmp_path_factory.getbasetemp() / ("reads.fq" if fastq else "reads.fa")
    path.write_bytes(gzip.compress(text) if gz else text)

    if fastq:
        try:
            expect = fastq_records(text, str(path))
        except ValueError as exc:
            expect = str(exc)
    else:
        expect = fasta_records(text)
    batches = []
    with mock.patch.object(seqio, "BLOCK_BYTES", block):
        try:
            for batch in ReadStream(path):
                batches.append(batch)
        except SequenceFormatError as exc:
            assert str(exc) == expect
            return
        assert _batch_reads(batches) == expect
        _check_batches(batches)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ordered_map_order_and_processes(threads):
    # fn may be a closure; one thread runs it here, more run it in forked workers
    parent = os.getpid()
    got = list(ordered_map(lambda x: (x, os.getpid() != parent), range(20), threads))
    assert [x for x, _ in got] == list(range(20))
    assert {forked for _, forked in got} == {threads > 1}


@pytest.mark.parametrize("threads", [1, 2])
def test_ordered_map_fn_error_reaches_caller(threads):
    def fn(x):
        if x == 5:
            raise ValueError("bad item 5")
        return x

    with pytest.raises(ValueError, match="bad item 5"):
        list(ordered_map(fn, range(20), threads))
    assert not multiprocessing.active_children()


def test_ordered_map_worker_death_raises():
    def fn(x):
        if x == 3:
            os._exit(1)
        return x

    with pytest.raises(BrokenProcessPool):
        list(ordered_map(fn, range(20), 2))
    assert not multiprocessing.active_children()


def test_ordered_map_consumer_stop_joins_workers():
    with closing(ordered_map(lambda x: x, range(100), 2)) as results:
        assert next(results) == 0
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("inherited", ["handler", "ignored"])
def test_ordered_map_workers_take_default_stop_signals(inherited):
    # a worker must not inherit, through fork, the handlers that unwind the
    # main process; a signal the main process ignores (nohup) stays ignored
    handler = signal.SIG_IGN if inherited == "ignored" else (lambda *args: None)
    previous = [signal.signal(sig, handler) for sig in STOP_SIGNALS]
    try:
        got = list(ordered_map(lambda x: [signal.getsignal(sig) for sig in STOP_SIGNALS], range(4), 2))
    finally:
        for sig, was in zip(STOP_SIGNALS, previous):
            signal.signal(sig, was)
    want = signal.SIG_IGN if inherited == "ignored" else signal.SIG_DFL
    assert got == [[want] * len(STOP_SIGNALS)] * 4
    assert not multiprocessing.active_children()
