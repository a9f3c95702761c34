"""Streaming FASTA/FASTQ reading, plain or gzipped, with 0-based read ids,
the digest that ties an index to its bank's reads, and the ordered worker
loop that both tools run their read batches through."""

import gzip
import hashlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

GZIP_MAGIC = b"\x1f\x8b"


class SequenceFormatError(Exception):
    pass


@dataclass
class ReadRecord:
    id: int  # 0-based position in file order
    sequence: str
    header: str = ""


def _open_text(path: str | Path):
    # gzip.open owns the file it opens, so closing the reader closes the file
    with open(path, "rb") as raw:
        opener = gzip.open if raw.read(2) == GZIP_MAGIC else open
    return opener(path, "rt", encoding="latin-1")


class ReadStream:
    """Single-consumer iterator of ReadRecords; format auto-detected from the
    first byte ('>' FASTA, '@' FASTQ). Ids are consecutive from 0 and stable
    across re-opens of the same file."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._fh = _open_text(path)
        first = self._fh.read(1)
        while first in ("\n", "\r"):  # blank lines before the first record
            first = self._fh.read(1)
        if first == ">":
            self.format = "fasta"
        elif first == "@":
            self.format = "fastq"
        elif first == "":
            self.format = "empty"
        else:
            self._fh.close()
            raise SequenceFormatError(
                f"{self.path}: unrecognized format (expected '>' or '@', got {first!r})"
            )
        self._fh.seek(0)
        self._line_no = 0

    def _readline(self) -> str:
        line = self._fh.readline()
        if line:
            self._line_no += 1
        return line

    def __iter__(self) -> Iterator[ReadRecord]:
        try:
            if self.format == "fasta":
                yield from self._iter_fasta()
            elif self.format == "fastq":
                yield from self._iter_fastq()
        finally:
            self._fh.close()

    def _iter_fasta(self) -> Iterator[ReadRecord]:
        header = None
        seq_parts: list[str] = []
        next_id = 0
        for line in iter(self._readline, ""):
            line = line.rstrip("\r\n")
            if line.startswith(">"):
                if header is not None:
                    yield ReadRecord(next_id, "".join(seq_parts), header)
                    next_id += 1
                header = line[1:]
                seq_parts = []
            elif line:
                seq_parts.append(line)
        if header is not None:
            yield ReadRecord(next_id, "".join(seq_parts), header)

    def _iter_fastq(self) -> Iterator[ReadRecord]:
        next_id = 0
        for header in iter(self._readline, ""):
            header = header.rstrip("\r\n")
            if not header:
                continue  # blank lines between records, as FASTA allows
            if not header.startswith("@"):
                raise SequenceFormatError(
                    f"{self.path}:{self._line_no}: expected '@' record header"
                )
            seq = self._readline().rstrip("\r\n")
            plus = self._readline()
            if not plus.startswith("+"):
                raise SequenceFormatError(
                    f"{self.path}:{self._line_no}: expected '+' separator line"
                )
            # quality may contain '@' or '+': match it to the sequence length
            qual = ""
            while len(qual) < len(seq):
                qline = self._readline()
                if not qline:
                    raise SequenceFormatError(
                        f"{self.path}:{self._line_no}: truncated quality for read {next_id}"
                    )
                qual += qline.rstrip("\r\n")
            if len(qual) != len(seq):
                raise SequenceFormatError(
                    f"{self.path}:{self._line_no}: quality/sequence length mismatch "
                    f"for read {next_id}"
                )
            yield ReadRecord(next_id, seq, header[1:])
            next_id += 1


def read_batches(
    reads: str | Path | Iterable[ReadRecord], batch_size: int
) -> Iterator[list[ReadRecord]]:
    """Fixed-size batches of reads from a file or an iterable of records;
    boundaries depend only on batch_size. No reference to a batch is kept
    here once it is yielded, so the consumer alone decides when it is freed."""
    records = iter(ReadStream(reads) if isinstance(reads, (str, Path)) else reads)
    yield from iter(lambda: list(islice(records, batch_size)), [])


class BankDigest:
    """blake2b-128 over each read's sequence followed by a newline, so the
    digest of a bank does not depend on how its reads are batched."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def update(self, seqs: list[str]) -> None:
        self._hash.update("".join(s + "\n" for s in seqs).encode("latin-1"))

    def digest(self) -> bytes:
        return self._hash.digest()


def ordered_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(item) for each item on a pool of worker threads, yielded in input order.

    At most 2 * threads items are submitted ahead of the consumer, so a long
    input streams instead of being queued whole.
    """
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for item in items:
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
