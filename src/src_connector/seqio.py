"""Streaming FASTA/FASTQ reading, plain or gzipped, into batches of reads
held as columns, with 0-based read ids; the digest that ties an index to its
bank's reads; the ordered map that both tools run their read batches through,
inline or on worker processes forked once their index is built, and the
output files they write."""

import gzip
import hashlib
import os
import stat
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

GZIP_MAGIC = b"\x1f\x8b"
# the one bound on a batch: a parsing step views this many bytes of the file
# not yet parsed, and the records that end in them are one batch; only a
# record longer than this makes a larger batch, of that record alone
BLOCK_BYTES = 1 << 17

_NL, _CR = ord("\n"), ord("\r")


class SequenceFormatError(Exception):
    pass


def _columns(items: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """items laid end to end, each followed by a newline, and their offsets."""
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, items), dtype=np.int64, count=len(items)) + 1, out=offsets[1:])
    return np.frombuffer(b"\n".join([*items, b""]), dtype=np.uint8), offsets


@dataclass
class ReadBatch:
    """Consecutive reads as columns. Read first_id + i has the bases
    seq[offsets[i]:offsets[i + 1] - 1] and the header (its line after the
    '>' or '@') headers[header_offsets[i]:header_offsets[i + 1] - 1]; each is
    followed by a newline byte, which no base or header holds."""

    first_id: int
    seq: np.ndarray  # uint8
    offsets: np.ndarray  # int64, len(self) + 1 entries from 0
    headers: np.ndarray  # uint8
    header_offsets: np.ndarray  # int64, len(self) + 1 entries from 0

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def from_strings(cls, seqs: list[str], first_id: int = 0) -> "ReadBatch":
        """Reads with the given sequences (latin-1) and empty headers."""
        return cls(
            first_id, *_columns([s.encode("latin-1") for s in seqs]), *_columns([b""] * len(seqs))
        )


def _lines(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, end and newline position of each line of buf, which ends in a
    newline; the end drops the line's trailing carriage returns."""
    nl = np.flatnonzero(buf == _NL)
    starts = np.zeros_like(nl)
    starts[1:] = nl[:-1] + 1
    ends = nl.copy()
    while (cr := (ends > starts) & (buf[ends - 1] == _CR)).any():
        ends -= cr
    return starts, ends, nl


def _pick(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The bytes of buf in the ascending, disjoint ranges [lo, hi)."""
    edges = np.empty(2 * len(lo) + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, len(buf)
    edges[1:-1:2], edges[2:-1:2] = lo, hi
    keep = np.zeros(len(edges) - 1, dtype=bool)  # the runs between edges alternate
    keep[1::2] = True
    return buf[np.repeat(keep, np.diff(edges))]


def _header_text(buf, starts, ends, nl) -> tuple[np.ndarray, np.ndarray]:
    """Each header line's text after its first byte, followed by its newline,
    and the offsets."""
    lo = np.stack([starts + 1, nl], axis=1).ravel()
    hi = np.stack([ends, nl + 1], axis=1).ravel()
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=offsets[1:])
    return _pick(buf, lo, hi), offsets


def _fasta_chunk(buf: np.ndarray, eof: bool, one: bool) -> tuple[ReadBatch, int]:
    """The FASTA records that end in buf, whole lines from a record start,
    and the bytes they take: all of buf at the end of the file, else up to
    its last header line; with one, only the first record. Empty lines are
    dropped; every other line that is not a header line belongs to the
    record of the header line before it."""
    starts, ends, nl = _lines(buf)
    text = ends > starts
    head = text & (buf[starts] == ord(">"))
    heads = np.flatnonzero(head)
    stop = len(starts) if eof else int(heads[-1]) if len(heads) else 0
    if one and len(heads) > 1:
        stop = min(stop, int(heads[1]))
    heads = heads[heads < stop]
    if not len(heads):
        return ReadBatch.from_strings([]), 0
    # each header's newline, then its record's bases: dropping the first
    # newline and adding one at the end puts a newline after every record
    lines = slice(int(heads[0]), stop)
    base = text[lines] & ~head[lines]
    lo = np.where(base, starts[lines], nl[lines])
    hi = np.where(base, ends[lines], nl[lines] + head[lines])
    seq = np.append(_pick(buf, lo, hi)[1:], np.uint8(_NL))
    offsets = np.zeros(len(heads) + 1, dtype=np.int64)
    np.cumsum(np.add.reduceat(hi - lo, heads - heads[0]), out=offsets[1:])  # bases + 1 each
    headers = _header_text(buf, starts[heads], ends[heads], nl[heads])
    return ReadBatch(0, seq, offsets, *headers), int(nl[stop - 1]) + 1


class _NeedMore(Exception):
    """The lines end inside a record, and more of the file follows."""


def _iter_fastq(lines: list[bytes], eof: bool, path: str, line_no: int, next_id: int):
    """(lines taken, header, sequence) of each FASTQ record in lines, which
    hold no line ends; line_no lines and next_id reads come before them.
    Blank lines between records are skipped and the quality may span lines.
    Raises _NeedMore where the lines run out before eof."""
    i = 0

    def readline() -> bytes | None:  # None at the end of the file
        nonlocal i
        if i == len(lines):
            if not eof:
                raise _NeedMore
            return None
        i += 1
        return lines[i - 1]

    while (header := readline()) is not None:
        if not header:
            continue  # blank lines between records, as FASTA allows
        if not header.startswith(b"@"):
            raise SequenceFormatError(f"{path}:{line_no + i}: expected '@' record header")
        seq = readline() or b""
        plus = readline()
        if plus is None or not plus.startswith(b"+"):
            raise SequenceFormatError(f"{path}:{line_no + i}: expected '+' separator line")
        # quality may contain '@' or '+': match it to the sequence length
        qual = 0
        while qual < len(seq):
            qline = readline()
            if qline is None:
                raise SequenceFormatError(
                    f"{path}:{line_no + i}: truncated quality for read {next_id}"
                )
            qual += len(qline)
        if qual != len(seq):
            raise SequenceFormatError(
                f"{path}:{line_no + i}: quality/sequence length mismatch for read {next_id}"
            )
        yield i, header[1:], seq
        next_id += 1


class ReadStream:
    """Single-consumer iterator of ReadBatches, one per parsing step (see
    _chunks), so a batch holds at most BLOCK_BYTES of the file or a single
    read; format auto-detected from the first byte ('>' FASTA, '@' FASTQ).
    Ids are consecutive from 0 and stable across re-opens of the same file,
    and batch boundaries depend only on the file's bytes and BLOCK_BYTES."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        # gzip.open owns the file it opens, so closing the reader closes the file
        with open(path, "rb") as raw:
            opener = gzip.open if raw.read(2) == GZIP_MAGIC else open
        self._fh = opener(path, "rb")
        first = self._fh.read(1)
        while first in (b"\n", b"\r"):  # blank lines before the first record
            first = self._fh.read(1)
        if first == b">":
            self.format = "fasta"
        elif first == b"@":
            self.format = "fastq"
        elif first == b"":
            self.format = "empty"
        else:
            self._fh.close()
            raise SequenceFormatError(
                f"{self.path}: unrecognized format (expected '>' or '@', got {first!r})"
            )
        self._fh.seek(0)
        self._line_no = 0  # lines of the file parsed so far
        self._reads = 0  # and reads

    def __iter__(self) -> Iterator[ReadBatch]:
        try:
            yield from self._chunks()
        finally:
            self._fh.close()

    def _chunks(self) -> Iterator[ReadBatch]:
        """The records that end in each step's view: the next BLOCK_BYTES of
        the file not yet parsed. A view that ends no record is doubled, and a
        view longer than BLOCK_BYTES gives only its first record, so a
        record longer than BLOCK_BYTES costs linear time and is a batch alone."""
        parse = _fasta_chunk if self.format == "fasta" else self._fastq_chunk
        data, size, eof = b"", BLOCK_BYTES, False
        while True:
            if len(data) < size and not eof:
                want = size - len(data)
                block = self._fh.read(want)
                data += block
                eof = len(block) < want  # a buffered read is short only at the end
                if eof and data and not data.endswith(b"\n"):
                    data += b"\n"
            view = data[:size]
            last = eof and len(view) == len(data)
            buf = np.frombuffer(view, dtype=np.uint8, count=view.rfind(b"\n") + 1)
            chunk, used = parse(buf, last, size > BLOCK_BYTES)
            if len(chunk):
                chunk.first_id = self._reads
                self._reads += len(chunk)
                yield chunk
                data, size = data[used:], BLOCK_BYTES
            elif last:
                return
            else:
                size *= 2

    def _fastq_chunk(self, buf: np.ndarray, eof: bool, one: bool) -> tuple[ReadBatch, int]:
        """The FASTQ records that end in buf, read by _iter_fastq (with one,
        only the first), and the bytes they take."""
        data = buf.tobytes()
        lines = data.split(b"\n")[:-1]  # data ends in a newline
        if b"\r" in data:
            lines = [line.rstrip(b"\r") for line in lines]
        taken, headers, seqs = 0, [], []
        try:
            for taken, header, seq in _iter_fastq(lines, eof, self.path, self._line_no, self._reads):
                headers.append(header)
                seqs.append(seq)
                if one:
                    break
        except _NeedMore:
            pass
        self._line_no += taken
        used = int(np.flatnonzero(buf == _NL)[taken - 1]) + 1 if taken else 0
        return ReadBatch(0, *_columns(seqs), *_columns(headers)), used


def read_batches(reads: str | Path | list[str]) -> Iterator[ReadBatch]:
    """The ReadStream batches of a file, or a non-empty list of sequences as
    one batch. No reference to a batch is kept here once it is yielded, so
    the consumer alone decides when it is freed."""
    if isinstance(reads, (str, Path)):
        yield from ReadStream(reads)
    elif reads:
        yield ReadBatch.from_strings(reads)


class BankDigest:
    """blake2b-128 over each read's sequence followed by a newline, so the
    digest of a bank does not depend on how its reads are batched."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def update(self, seq: np.ndarray) -> None:
        """Add a ReadBatch's seq column, which ends every read with a newline."""
        self._hash.update(seq)

    def digest(self) -> bytes:
        return self._hash.digest()


@contextmanager
def output_file(path: str | Path, mode: str = "w"):
    """open(path, mode) for the with block. If the block raises, the file is
    deleted when path names it as a regular file, not through a symlink; a
    device, FIFO or link is kept, and a failed delete does not replace the
    error."""
    with open(path, mode) as fh:
        try:
            yield fh
        except BaseException:
            with suppress(OSError):
                opened, named = os.fstat(fh.fileno()), os.lstat(path)
                if stat.S_ISREG(named.st_mode) and os.path.samestat(named, opened):
                    os.unlink(path)
            raise


_work: Callable | None = None  # ordered_map's fn, in each of its worker processes


def _set_work(fn: Callable) -> None:
    global _work
    _work = fn


def _apply(item):
    return _work(item)


def ordered_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(item) for each item, yielded in input order.

    With threads == 1, fn runs inline in this process. Otherwise it runs on
    that many worker processes forked when the first item is drawn, so they
    share what fn refers to (a built index, count or id table) copy-on-write,
    and fn may be a closure: it reaches each worker through the pool's
    initializer, which fork does not pickle. Items and results are pickled.
    Fork is safe here because the tools start no thread of their own, and
    the caller flushes its output files before the first item, so no worker
    holds a copy of unwritten bytes.

    At most 2 * threads items are submitted ahead of the consumer, so a long
    input streams instead of being queued whole. Closing the generator (the
    consumer failed) or an error from items or fn cancels the pending items
    and joins the workers before the error goes on; a worker that dies
    raises BrokenProcessPool.
    """
    if threads == 1:
        yield from map(fn, items)
        return
    # imported here: a run without workers (src index, --threads 1) need not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        threads, mp_context=multiprocessing.get_context("fork"), initializer=_set_work, initargs=(fn,)
    )
    try:
        pending = deque()
        for item in items:
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(_apply, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
