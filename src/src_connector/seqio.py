"""Streaming FASTA/FASTQ reading, plain or gzipped, into batches of reads
held as columns, with 0-based read ids; the digest that ties an index to its
bank's reads; the ordered map that both tools run their read batches through,
inline or on worker processes forked once their index is built, and the
output files they write."""

import gzip
import os
import signal
import stat
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

try:
    # CPython's own blake2b; hashlib's import maps OpenSSL's libcrypto, which
    # adds 3.4-3.6 MiB to every process and is used for nothing else
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

GZIP_MAGIC = b"\x1f\x8b"
# the one bound on a batch: a parsing step views this many bytes of the file
# not yet parsed, and the records that end in them are one batch; only a
# record longer than this makes a larger batch, of that record alone
BLOCK_BYTES = 1 << 17

_NL, _CR, _AT, _PLUS = map(ord, "\n\r@+")


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


def _line_text(buf, lo, ends, nl) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of each line from lo to its end, followed by its newline,
    and the offsets: header lines pass their starts + 1, to drop the '>' or
    '@', and FASTQ sequence lines their starts."""
    offsets = np.zeros(len(lo) + 1, dtype=np.int64)
    np.cumsum(ends - lo + 1, out=offsets[1:])
    spans = np.stack([lo, nl], axis=1).ravel(), np.stack([ends, nl + 1], axis=1).ravel()
    return _pick(buf, *spans), offsets


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
    headers = _line_text(buf, starts[heads] + 1, ends[heads], nl[heads])
    return ReadBatch(0, seq, offsets, *headers), int(nl[stop - 1]) + 1


class _Unread:
    """The reader fh with head, the bytes read from it so far, put back."""

    def __init__(self, head: bytes, fh):
        self.head, self.fh = head, fh

    def read(self, n: int) -> bytes:
        head, self.head = self.head[:n], self.head[n:]
        return head + self.fh.read(n - len(head))


class ReadStream:
    """Single-consumer iterator of ReadBatches, one per parsing step (see
    _chunks), so a batch holds at most BLOCK_BYTES of the file or a single
    read; format auto-detected from the first byte ('>' FASTA, '@' FASTQ).
    Both formats are cut from the step's numpy line table (_lines): FASTA
    by masks over it, FASTQ by one loop over its lines' lengths and first
    bytes, and the columns of both by _line_text. Ids are consecutive from
    0 and stable across re-opens of the same file, and batch boundaries
    depend only on the file's bytes and BLOCK_BYTES."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._raw = open(path, "rb")  # read once, never rewound, so a pipe reads as a file does
        try:
            self._fh = _Unread(self._raw.read(2), self._raw)
            if self._fh.head == GZIP_MAGIC:
                self._fh = gzip.GzipFile(fileobj=self._fh)
            self._head = b""  # read ahead to find the format, so parsed first
            while not self._head.strip(b"\r\n") and (byte := self._fh.read(1)):
                self._head += byte  # blank lines before the first record
            first = self._head.strip(b"\r\n")
            self.format = {b">": "fasta", b"@": "fastq", b"": "empty"}.get(first)
            if self.format is None:
                raise SequenceFormatError(
                    f"{self.path}: unrecognized format (expected '>' or '@', got {first!r})"
                )
        except BaseException:
            self._raw.close()
            raise
        self._line_no = 0  # lines of the file parsed so far
        self._reads = 0  # and reads

    def __iter__(self) -> Iterator[ReadBatch]:
        try:
            yield from self._chunks()
        finally:
            self._raw.close()  # a GzipFile holds no file of its own

    def _chunks(self) -> Iterator[ReadBatch]:
        """The records that end in each step's view: the next BLOCK_BYTES of
        the file not yet parsed. A view that ends no record is doubled, and a
        view longer than BLOCK_BYTES gives only its first record, so a
        record longer than BLOCK_BYTES costs linear time and is a batch alone."""
        parse = _fasta_chunk if self.format == "fasta" else self._fastq_chunk
        data, size, eof = self._head, BLOCK_BYTES, False
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
        """The FASTQ records that end in buf, whole lines from a record start
        (with one, only the first), and the bytes they take. Blank lines
        before a header line are skipped; then come the sequence line, a '+'
        line, and quality lines, which may start with '@' or '+', until they
        hold as many bytes as the sequence. The records stop before one that
        buf does not finish, unless the file ends there: then, as wherever a
        rule is broken, SequenceFormatError names the file, line and read."""
        starts, ends, nl = _lines(buf)
        size, first = (ends - starts).tolist(), buf[starts].tolist()
        heads, end, n = [], 0, len(size)  # end: the line after the last record

        def error(line: int, problem: str) -> SequenceFormatError:
            return SequenceFormatError(f"{self.path}:{self._line_no + line}: {problem}")

        while not (one and heads):
            at = end
            while at < n and not size[at]:
                at += 1
            if at == n:
                break
            if first[at] != _AT:
                raise error(at + 1, "expected '@' record header")
            if at + 2 >= n and not eof:
                break
            if at + 2 >= n or first[at + 2] != _PLUS:
                raise error(min(at + 3, n), "expected '+' separator line")
            want, qual, line = size[at + 1], 0, at + 3
            while qual < want and line < n:
                qual += size[line]
                line += 1
            if qual < want and not eof:
                break
            if qual != want:  # line is n where the quality is cut short
                problem = "truncated quality" if qual < want else "quality/sequence length mismatch"
                raise error(line, f"{problem} for read {self._reads + len(heads)}")
            heads.append(at)
            end = line
        self._line_no += end
        heads = np.array(heads, dtype=np.int64)
        seqs = _line_text(buf, starts[heads + 1], ends[heads + 1], nl[heads + 1])
        headers = _line_text(buf, starts[heads] + 1, ends[heads], nl[heads])
        return ReadBatch(0, *seqs, *headers), int(nl[end - 1]) + 1 if end else 0


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
        self._hash = blake2b(digest_size=16)

    def update(self, seq: np.ndarray) -> None:
        """Add a ReadBatch's seq column, which ends every read with a newline."""
        self._hash.update(seq)

    def digest(self) -> bytes:
        return self._hash.digest()


@contextmanager
def output_file(path: str | Path, mode: str = "w"):
    """A file object for writing path (open's mode) in the with block, so
    that path gets the whole output or none of it.

    Unless path names something other than a regular file, the output goes to
    a new file in path's directory: one with no name (O_TMPFILE, on Linux),
    or else a hidden temp name. Once the block and the final flush succeed,
    the file is given a name there and renamed onto path; a run that fails,
    or is killed, leaves path as it was, and a failed cleanup does not
    replace the run's error. A symlink, FIFO or device, such as /dev/stdout,
    is opened and written in place instead, and kept whatever happens."""
    in_place = False
    with suppress(FileNotFoundError):
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    if in_place:
        with open(path, mode) as fh:
            yield fh
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp = _new_file_in(directory)
    try:
        with open(fd, mode) as fh:
            yield fh
            fh.flush()
            if temp is None:
                # src_dir_fd makes os.link call linkat, whose AT_SYMLINK_FOLLOW
                # links the file /proc's link names; the absolute path ignores the fd
                temp = _temp_name(directory)
                os.link(f"/proc/self/fd/{fd}", temp, src_dir_fd=fd, follow_symlinks=True)
        os.replace(temp, path)
    except BaseException:
        if temp is not None:
            with suppress(OSError):
                os.unlink(temp)
        raise


def _new_file_in(directory: str) -> tuple[int, str | None]:
    """A descriptor of a new empty file in directory, open for writing, and
    its name: None where the system makes it with none (O_TMPFILE)."""
    if hasattr(os, "O_TMPFILE"):
        with suppress(OSError):  # not every file system supports it
            return os.open(directory, os.O_TMPFILE | os.O_WRONLY, 0o666), None
    temp = _temp_name(directory)
    return os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666), temp


def _temp_name(directory: str) -> str:
    return os.path.join(directory, f".src-{os.urandom(8).hex()}.tmp")


_work: Callable | None = None  # ordered_map's fn, in each of its worker processes
# the signals that unwind a run like Ctrl-C (cli.main); SIGHUP is POSIX-only
STOP_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name))


def _set_work(fn: Callable) -> None:
    """Worker initializer: keep fn, and let a stop signal end the worker at
    once instead of unwinding the parent's run, whose handlers fork copied.
    An ignored signal (a run under nohup) stays ignored."""
    global _work
    _work = fn
    for sig in STOP_SIGNALS:
        if signal.getsignal(sig) is not signal.SIG_IGN:
            signal.signal(sig, signal.SIG_DFL)


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
