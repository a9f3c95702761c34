"""All-vs-all read similarity via non-overlapping shared k-mers (the link tool).

Each dictionary slot maps to the bank reads containing a k-mer with that
slot. A query read is scanned left to right; a shared k-mer at position i
counts for a target only if i is past the target's next free position,
which then advances by k. Targets below the --min-shared threshold are
dropped. The id table lists each slot's bank reads once, ascending, in one
CSR layout of ids and slot offsets, with the ids kept in RAM or in an unnamed
temp file, which the system frees however the run ends.

A batch's indexed k-mers, bank or query, come from one QuasiDictionary.lookup.
A query batch makes one table lookup, which returns each indexed k-mer's run
of ids (on disk, gathered through a read-only mapping of one _READ_BYTES
window of the file at a time, so only the pages the blocks lie on are read;
a table file that shrinks or whose storage fails mid-gather kills the
process with SIGBUS). The batch is then scored in ranges of reads of at most
KEY_CHUNK (read, target, position) rows, or one read alone when it has more:
a range's rows are gathered from the runs, packed and sorted once, and
every (read, target) pair's greedy count advances together. The scoring
temporaries are thus bounded by KEY_CHUNK, not by the batch's rows, which
grow with bank coverage.
"""

import mmap
import os
import sys
import tempfile
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .bitpack import KEY_CHUNK
from .kmers import sorted_keys
from .quasidict import QuasiDictionary
from .seqio import BankDigest, ReadBatch, ordered_map, output_file, read_batches

DEFAULT_MIN_SHARED = 2
_ID_DTYPE = np.uint32  # read ids, in RAM and in the disk table's words
_READ_BYTES = 1 << 20  # a disk gather maps the blocks of one window of this size at a time


@dataclass
class MatchRecord:
    """The matches of a batch of reads: read query_read_id[i] shares
    shared[j] non-overlapping k-mers with bank read target_id[j] for each j
    in bounds[i]:bounds[i + 1], targets ascending."""

    query_read_id: np.ndarray  # int64
    bounds: np.ndarray  # int64, one more than query_read_id
    target_id: np.ndarray  # int64
    shared: np.ndarray  # int64

    def format(self) -> str:
        """The batch's output lines, each ending in a newline."""
        pairs = list(map("%d-%d".__mod__, zip(self.target_id.tolist(), self.shared.tolist())))
        bounds = self.bounds.tolist()
        return "".join(
            f"{rid}: {' '.join(pairs[lo:hi])}\n" if hi > lo else f"{rid}:*\n"
            for rid, lo, hi in zip(self.query_read_id.tolist(), bounds, bounds[1:])
        )


def _bank_pairs(qd: QuasiDictionary, bank) -> Iterator[np.ndarray]:
    """Yield, per batch, its distinct (slot, read id) pairs as uint64 keys
    slot << 32 | read id, which sort by slot, then by read id.

    A read lies in one batch, so no pair repeats across batches. Raises
    ValueError at a read id that _ID_DTYPE cannot hold, and, once the whole
    bank is read, if its reads are not the ones qd was built from.
    """
    digest = BankDigest()
    most = int(np.iinfo(_ID_DTYPE).max) + 1
    for batch in read_batches(bank):
        if batch.first_id + len(batch) > most:
            raise ValueError(f"bank has more than {most} reads, the most the id table holds")
        digest.update(batch.seq)
        read, _, slot = qd.lookup(batch)
        key = np.sort((slot.view(np.uint64) << np.uint64(32)) | (batch.first_id + read).view(np.uint64))
        yield key[np.diff(key, prepend=~key[:1]) != 0]  # the first key of each run
    if digest.digest() != qd.bank_digest:
        raise ValueError("bank reads differ from those the index was built from")


def _sorted_pairs(
    qd: QuasiDictionary, bank, memory_budget: int, tmp_dir: str | None = None
) -> Iterator[np.ndarray]:
    """Every distinct pair key of the bank, ascending, as sorted_keys yields them."""
    slot_bits = (qd.n_keys - 1).bit_length()
    return sorted_keys(_bank_pairs(qd, bank), 32 + slot_bits, memory_budget, tmp_dir)


def _slot_starts(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Where each slot lo .. hi-1 starts in ascending pair keys: the number
    of keys below slot << 32."""
    bounds = np.arange(lo, hi, dtype=np.uint64)
    bounds <<= np.uint64(32)  # in place: one temporary, not two, beside the keys
    return np.searchsorted(keys, bounds)


def _write_ids(qd: QuasiDictionary, bank, memory_budget: int, tmp_dir: str | None, write) -> np.ndarray:
    """Pass each ascending part of the bank's pair keys to write as _ID_DTYPE
    ids, and return each slot's offset in the parts laid end to end. Raises
    ValueError, before anything is allocated, for a dictionary of more
    slots than the 32 high bits of a pair key hold."""
    if qd.n_keys > 2**32:
        raise ValueError(f"index has {qd.n_keys} k-mers, more than the 2^32 the id table holds")
    offsets = np.zeros(qd.n_keys + 1, dtype=np.int64)  # slot s's count over all parts at s + 1
    for keys in _sorted_pairs(qd, bank, memory_budget, tmp_dir):
        if len(keys):
            lo, hi = int(keys[0] >> np.uint64(32)), int(keys[-1] >> np.uint64(32)) + 1
            starts = _slot_starts(keys, lo, hi + 1)  # of slots lo .. hi, the last at len(keys)
            offsets[lo + 1 : hi + 1] += starts[1:]
            offsets[lo + 1 : hi + 1] -= starts[:-1]
            del starts  # before the part's ids are made, so they are not held together
        write(keys.astype(_ID_DTYPE))
    np.cumsum(offsets, out=offsets)
    return offsets


def _gather(values: np.ndarray, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """values[lo[0]:lo[0] + n[0]], values[lo[1]:lo[1] + n[1]], ... concatenated."""
    start = np.cumsum(n) - n  # of each run in the result
    at = np.repeat(lo - start, n)
    at += np.arange(len(at))
    return values[at]


@dataclass
class IdRuns:
    """The ids of a batch of slots as runs: slot i's ascending, distinct bank
    read ids are values[lo[i]:lo[i] + n[i]]. Unpacks as (values, lo, n), and
    its len() is the number of ids, as in _gather(*runs)."""

    values: np.ndarray  # _ID_DTYPE
    lo: np.ndarray  # int64
    n: np.ndarray  # int64

    def __iter__(self):
        return iter((self.values, self.lo, self.n))

    def __len__(self) -> int:
        return int(self.n.sum())


class _IdTable:
    """Slot s's block, its ids, is words offsets[s]:offsets[s + 1] of the table."""

    offsets: np.ndarray  # int64, n_slots + 1

    def blocks(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block start and id count of each slot."""
        lo = self.offsets[slots]
        return lo, self.offsets[slots + 1] - lo


class ReadIdTable(_IdTable):
    """CSR table: slot -> ascending, distinct bank read ids."""

    def __init__(self, offsets: np.ndarray, ids: np.ndarray):
        self.offsets = offsets
        self.ids = ids  # _ID_DTYPE

    @classmethod
    def build(cls, qd: QuasiDictionary, bank) -> "ReadIdTable":
        parts = []  # filled with the one in-memory part before it is unpacked
        return cls(_write_ids(qd, bank, sys.maxsize, None, parts.append), *parts)

    def get(self, slots: np.ndarray) -> IdRuns:
        """Each slot's ascending, distinct bank read ids, as runs of the table."""
        return IdRuns(self.ids, *self.blocks(slots))


class DiskIdTable(_IdTable):
    """Temp-file table: the words of ReadIdTable's ids, so slot s's ascending,
    distinct bank read ids are _ID_DTYPE words offsets[s]:offsets[s + 1].

    Keeps only one offset per slot in RAM, and reads through the descriptor
    of file, an open, flushed file it owns: close() closes it, and the
    system frees an unnamed one.
    """

    def __init__(self, offsets: np.ndarray, file):
        self.offsets = offsets  # block starts in _ID_DTYPE words
        self._file, self._fd = file, file.fileno()
        self.path = file.name  # an unnamed file's name is its descriptor, which os.path.getsize takes

    def get(self, slots: np.ndarray) -> IdRuns:
        """Each slot's ascending, distinct bank read ids, as runs of one
        array that holds each distinct slot's ids once.

        Each distinct block is read once, in file order: those that start in
        one _READ_BYTES window are gathered from one read-only mapping of
        their span, the only one alive, so the kernel reads just the pages
        they lie on. A file that shrinks mid-gather, or failing storage,
        kills the process with SIGBUS instead of raising IOError.
        """
        word = np.dtype(_ID_DTYPE).itemsize
        want = word * int(self.offsets[-1])
        if (size := os.fstat(self._fd).st_size) != want:
            raise IOError(f"link id table file is {size} bytes, not the {want} of its offsets")
        uniq, rank = np.unique(slots, return_inverse=True)  # rank: of each slot's block in uniq
        lo, n = self.blocks(uniq)
        full = np.flatnonzero(n)  # an empty block needs no bytes, nor its window a mapping
        first = np.flatnonzero(np.diff(word * lo[full] // _READ_BYTES, prepend=-1)).tolist()
        parts = [np.empty(0, dtype=_ID_DTYPE)]
        for a, b in zip(first, first[1:] + [len(full)]):
            blocks = full[a:b]
            grain = mmap.ALLOCATIONGRANULARITY  # of a mapping's offset
            start = word * int(lo[blocks[0]]) // grain * grain
            end = word * int(lo[blocks[-1]] + n[blocks[-1]])
            span = mmap.mmap(self._fd, end - start, offset=start, access=mmap.ACCESS_READ)
            parts.append(_gather(np.frombuffer(span, _ID_DTYPE), lo[blocks] - start // word, n[blocks]))
            del span  # its last reference, so it is unmapped before the next window is mapped
        starts = np.cumsum(n) - n  # of each block of uniq in the parts laid end to end
        return IdRuns(np.concatenate(parts), starts[rank], n[rank])

    def close(self) -> None:
        self._file.close()


def _build_disk_table(qd: QuasiDictionary, bank, tmp_dir: str | None = None) -> DiskIdTable:
    """Write the ids slot by slot from one bank pass into an unnamed temp
    file under tmp_dir, closed if the build fails; no pair is buffered in
    RAM, they spill to unnamed temp files there until the pass ends."""
    out = tempfile.TemporaryFile(dir=tmp_dir)
    try:
        offsets = _write_ids(qd, bank, 0, tmp_dir, out.write)
        out.flush()
    except BaseException:
        out.close()
        raise
    return DiskIdTable(offsets, out)


def _greedy_counts(key: np.ndarray, pbits: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each group of keys sorted by group (key >> pbits), then position (the
    low pbits), and the number of its positions that a left-to-right scan
    counts when each must be at least k past the last one counted."""
    group = key >> pbits
    first = np.flatnonzero(np.diff(group, prepend=-1))
    end = np.append(first[1:], len(key))
    count = np.ones(len(first), dtype=np.int64)
    chain, at = np.arange(len(first)), first  # every chain walks at once
    while len(at):
        at = np.searchsorted(key, key[at] + k)  # a position + k stays in its group's range
        live = at < end[chain]
        chain, at = chain[live], at[live]
        count[chain] += 1
    return group[first], count


def _similarity(
    k: int,
    table: ReadIdTable | DiskIdTable,
    read_ids: np.ndarray,
    reads: np.ndarray,
    positions: np.ndarray,
    slots: np.ndarray,
    min_shared: int,
    exclude_self: bool,
) -> MatchRecord:
    """Greedy non-overlapping shared k-mer counts of a batch of reads.

    The indexed k-mers of the batch come in read order as (index in read_ids
    of their read, position in it, dictionary slot). Each expands to one row
    per bank read of its slot, packed as (read << 32 | target) << pbits |
    position; a sort then groups the rows by (read, target), in position
    order. The reads are scored in ranges of at most KEY_CHUNK rows, or of
    one read when it alone has more, and of no more reads than fit those 63
    bits.
    """
    ids, lo, n = table.get(slots)
    row = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=row[1:])
    first = np.searchsorted(reads, np.arange(len(read_ids) + 1))  # of each read's k-mers
    read_row = row[first]
    pbits = (int(positions.max(initial=0)) + k).bit_length()
    range_reads = 1 << (31 - pbits)
    none = np.empty(0, dtype=np.int64)
    read_parts, tid_parts, count_parts = [none], [none], [none]
    r0 = 0
    while r0 < len(read_ids):
        r1 = int(np.searchsorted(read_row, read_row[r0] + KEY_CHUNK, side="right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + range_reads, len(read_ids))
        a, b = first[r0], first[r1]
        key = np.repeat((reads[a:b] - r0) << (32 + pbits) | positions[a:b], n[a:b])
        high = _gather(ids, lo[a:b], n[a:b]).astype(np.int64)
        high <<= pbits
        key |= high
        del high
        key.sort()
        group, count = _greedy_counts(key, pbits, k)
        read, tid = group >> 32, group & 0xFFFFFFFF
        keep = count >= min_shared
        if exclude_self:
            keep &= tid != read_ids[r0 + read]
        read_parts.append(read[keep] + r0)
        tid_parts.append(tid[keep])
        count_parts.append(count[keep])
        r0 = r1
    read = np.concatenate(read_parts)  # ascending, and each read's targets too
    bounds = np.searchsorted(read, np.arange(len(read_ids) + 1))
    return MatchRecord(read_ids, bounds, np.concatenate(tid_parts), np.concatenate(count_parts))


def link_batch(
    qd: QuasiDictionary,
    table: ReadIdTable | DiskIdTable,
    batch: ReadBatch,
    min_shared: int,
    exclude_self: bool,
) -> MatchRecord:
    """The matches of each read of a batch: its k-mers are looked up at once,
    and their counts scored in bounded ranges of reads."""
    read_ids = np.arange(batch.first_id, batch.first_id + len(batch), dtype=np.int64)
    return _similarity(qd.k, table, read_ids, *qd.lookup(batch), min_shared, exclude_self)


def _sidecar_lines(batch: ReadBatch) -> bytes:
    """Each read's id, a tab and its header bytes, one line per read."""
    headers = batch.headers.tobytes().split(b"\n")
    ids = range(batch.first_id, batch.first_id + len(batch))
    return b"".join(map(b"%d\t%b\n".__mod__, zip(ids, headers)))


def run_src_linker(
    qd: QuasiDictionary,
    bank_path: str | Path,
    query_path: str | Path,
    out_path: str | Path,
    min_shared: int = DEFAULT_MIN_SHARED,
    mode: str = "ram",
    threads: int = 1,
    no_self: bool = False,
    tmp_dir: str | None = None,
    sidecar_path: str | Path | None = None,
) -> None:
    """One line of matches per query read, in input order, and with
    sidecar_path a file of each query read's id and header bytes.

    The id table is built from the bank reads, which must be the reads qd
    was built from: building it raises ValueError when they are not. The
    output files are deleted if the run fails.
    """
    if mode not in ("ram", "disk"):
        raise ValueError(f"mode must be 'ram' or 'disk', got {mode!r}")
    if mode == "disk":
        table = _build_disk_table(qd, bank_path, tmp_dir)
    else:
        table = ReadIdTable.build(qd, bank_path)
    try:
        work = lambda batch: (
            link_batch(qd, table, batch, min_shared, no_self).format(),
            _sidecar_lines(batch) if sidecar_path else b"",
        )
        with (
            output_file(out_path) as out,
            output_file(sidecar_path, "wb") if sidecar_path else nullcontext() as sidecar,
        ):
            params = " ".join(map("%s=%s".__mod__, qd.params.items()))
            out.write(f"# src link {params} min_shared={min_shared} mode={mode} N={qd.n_keys}\n")
            out.write("# query_id: target_id-shared_kmers ... (*: no match)\n")
            out.flush()  # before ordered_map forks its workers
            with closing(ordered_map(work, read_batches(query_path), threads)) as texts:
                for text, lines in texts:
                    out.write(text)
                    if sidecar:
                        sidecar.write(lines)
    finally:
        if mode == "disk":
            table.close()
