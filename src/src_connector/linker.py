"""All-vs-all read similarity via non-overlapping shared k-mers (the link tool).

Each dictionary slot maps to the bank reads containing a k-mer with that
slot. A query read is scanned left to right; a shared k-mer at position i
counts for a target only if i is past the target's next free position,
which then advances by k. Targets below the --min-shared threshold are
dropped. The id table lists each slot's bank reads once, ascending, either
in RAM (CSR layout) or in a temp file of blocks that hold each read once as
id+1, then a 0 terminator.

A query batch is scored at once: its indexed k-mers' ids come from one
table gather (on disk, a few coalesced positioned reads of at most
_READ_BYTES each), and one sort of packed (read, target, position) keys
lets every (read, target) pair's greedy count advance together.
"""

import os
import sys
import tempfile
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .kmers import encode_reads, sorted_keys
from .quasidict import QuasiDictionary
from .seqio import BankDigest, ReadBatch, ordered_map, output_file, read_batches

DEFAULT_MIN_SHARED = 2
_SLOT_DTYPE = np.uint32  # read ids, and the words of disk blocks, which hold id+1 up to the max
_GAP_BYTES = 4096  # a disk gather reads through gaps up to this size between blocks
_READ_BYTES = 1 << 20  # and buffers the blocks of one window of this size at a time


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
    ValueError at a read id that _SLOT_DTYPE cannot hold as id+1, and, once
    the whole bank is read, if its reads are not the ones qd was built from.
    """
    digest = BankDigest()
    most = np.iinfo(_SLOT_DTYPE).max
    for batch in read_batches(bank):
        if batch.first_id + len(batch) > most:
            raise ValueError(f"bank has more than {most} reads, the most the id table holds")
        digest.update(batch.seq)
        canon, _, ptr = encode_reads(batch.seq, batch.offsets, qd.k)
        idx = qd.query_batch(canon)
        pos = np.repeat(np.arange(len(batch), dtype=np.int64), np.diff(ptr))
        rids = np.arange(batch.first_id, batch.first_id + len(batch), dtype=_SLOT_DTYPE)
        hit = idx >= 0
        key = np.sort((idx[hit].astype(np.uint64) << np.uint64(32)) | rids[pos[hit]])
        yield key[np.diff(key, prepend=~key[:1]) != 0]  # the first key of each run
    if digest.digest() != qd.bank_digest:
        raise ValueError("bank reads differ from those the index was built from")


def _sorted_pairs(
    qd: QuasiDictionary, bank, memory_budget: int, tmp_dir: str | None = None
) -> Iterator[np.ndarray]:
    """Every distinct pair key of the bank, ascending, as sorted_keys yields them."""
    slot_bits = (qd.n_keys - 1).bit_length()
    return sorted_keys(_bank_pairs(qd, bank), 32 + slot_bits, memory_budget, tmp_dir)


def _gather(values: np.ndarray, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """values[lo[0]:lo[0] + n[0]], values[lo[1]:lo[1] + n[1]], ... concatenated."""
    start = np.cumsum(n) - n  # of each run in the result
    at = np.repeat(lo - start, n)
    at += np.arange(len(at))
    return values[at]


class _IdTable:
    """Slot s's block is words offsets[s]:offsets[s + 1] of the table: its
    ids, then `terminators` zero words."""

    offsets: np.ndarray  # int64, n_slots + 1
    terminators = 0

    def blocks(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block start and id count of each slot."""
        lo = self.offsets[slots]
        return lo, self.offsets[slots + 1] - lo - self.terminators


class ReadIdTable(_IdTable):
    """CSR table: slot -> ascending, distinct bank read ids."""

    def __init__(self, offsets: np.ndarray, ids: np.ndarray):
        self.offsets = offsets
        self.ids = ids  # _SLOT_DTYPE

    @classmethod
    def build(cls, qd: QuasiDictionary, bank) -> "ReadIdTable":
        (keys,) = _sorted_pairs(qd, bank, sys.maxsize)  # one in-memory run
        offsets = np.zeros(qd.n_keys + 1, dtype=np.int64)
        slots = (keys >> np.uint64(32)).view(np.int64)
        np.cumsum(np.bincount(slots, minlength=qd.n_keys), out=offsets[1:])
        del slots
        return cls(offsets, keys.astype(_SLOT_DTYPE))

    def get(self, slots: np.ndarray) -> np.ndarray:
        """Each slot's ascending, distinct bank read ids, concatenated in slots order."""
        return _gather(self.ids, *self.blocks(slots))


class DiskIdTable(_IdTable):
    """Temp-file table: per slot, a block holding each of its bank reads once,
    ascending, as _SLOT_DTYPE id+1 words, then a 0 terminator.

    Keeps only one offset per slot in RAM. Owns the file: close() deletes it.
    """

    terminators = 1

    def __init__(self, offsets: np.ndarray, path: str):
        self.offsets = offsets  # block starts in _SLOT_DTYPE words
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)

    def get(self, slots: np.ndarray) -> np.ndarray:
        """Each slot's ascending, distinct bank read ids, concatenated in slots order.

        Each distinct slot's block is read once, in file order: blocks less
        than _GAP_BYTES apart share one pread, and a buffer holds the blocks
        that start in one _READ_BYTES window of the file.
        """
        order = np.argsort(slots)
        ranked = slots[order]
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        uniq = ranked[first]
        rank = np.empty(len(slots), dtype=np.int64)  # of each slot's block in uniq
        rank[order] = np.cumsum(first) - 1
        lo, n = self.blocks(uniq)
        word = np.dtype(_SLOT_DTYPE).itemsize
        window = lo // (_READ_BYTES // word)
        new_window = np.ones(len(uniq), dtype=bool)
        new_window[1:] = window[1:] != window[:-1]
        end = lo + n + 1  # past the terminator
        new_run = new_window.copy()  # one pread per run of blocks
        new_run[1:] |= word * (lo[1:] - end[:-1]) > _GAP_BYTES
        run = np.cumsum(new_run) - 1
        run_lo = lo[new_run]
        run_len = np.maximum.reduceat(end, np.flatnonzero(new_run)) - run_lo  # end ascends
        run_at = np.cumsum(run_len) - run_len  # in the runs laid end to end
        at = run_at[run] + lo - run_lo[run]  # of each block, likewise
        ids = np.empty(int(n.sum()), dtype=_SLOT_DTYPE)  # of uniq, in order
        done = 0
        starts = np.flatnonzero(new_window).tolist()
        for b0, b1 in zip(starts, starts[1:] + [len(uniq)]):
            r0, r1 = run[b0], run[b1 - 1] + 1
            words = np.frombuffer(
                b"".join(self._pread(run_lo[r], run_len[r]) for r in range(r0, r1)),
                dtype=_SLOT_DTYPE,
            )
            pos, cnt = at[b0:b1] - run_at[r0], n[b0:b1]
            bad = np.flatnonzero(words[pos + cnt] != 0)
            if len(bad):
                raise IOError(f"{self.path}: unterminated id block for slot {uniq[b0 + bad[0]]}")
            got = _gather(words, pos, cnt)
            ids[done : done + len(got)] = got - 1
            done += len(got)
        return _gather(ids, (np.cumsum(n) - n)[rank], n[rank])

    def _pread(self, lo: int, words: int) -> bytes:
        """Words lo:lo + words of the file, in positioned reads of at most
        _READ_BYTES, so concurrent readers share no file position."""
        word = np.dtype(_SLOT_DTYPE).itemsize
        start, size = word * int(lo), word * int(words)
        data = b"".join(
            os.pread(self._fd, min(_READ_BYTES, size - i), start + i)
            for i in range(0, size, _READ_BYTES)
        )
        if len(data) != size:
            raise IOError(f"{self.path}: id table file is truncated")
        return data

    def close(self) -> None:
        os.close(self._fd)
        os.unlink(self.path)


def _build_disk_table(qd: QuasiDictionary, bank, tmp_dir: str | None = None) -> DiskIdTable:
    """Write the blocks slot by slot from one bank pass; no pair is buffered
    in RAM, they spill to temp files under tmp_dir until the pass ends."""
    occ = np.zeros(qd.n_keys, dtype=np.int64)  # distinct reads per slot
    open_slot = 0  # every block before it is written and terminated
    fd, path = tempfile.mkstemp(prefix="src_link_ids_", suffix=".bin", dir=tmp_dir)
    try:
        with open(fd, "wb") as out:
            for keys in _sorted_pairs(qd, bank, 0, tmp_dir):
                if not len(keys):
                    continue
                slots = (keys >> np.uint64(32)).view(np.int64)
                last = int(slots[-1])
                occ[open_slot : last + 1] += np.bincount(slots - open_slot)
                # one terminator for each slot the range closes, zero-filled
                run = np.zeros(len(keys) + last - open_slot, dtype=_SLOT_DTYPE)
                run[np.arange(len(keys)) + slots - open_slot] = keys.astype(_SLOT_DTYPE) + 1
                out.write(run)
                open_slot = last
            out.write(np.zeros(qd.n_keys - open_slot, dtype=_SLOT_DTYPE))
    except BaseException:
        os.unlink(path)
        raise
    offsets = np.zeros(qd.n_keys + 1, dtype=np.int64)
    np.cumsum(occ + 1, out=offsets[1:])
    return DiskIdTable(offsets, path)


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
    position; a single sort then groups the rows by (read, target), in
    position order. A read range is as many reads as fit those 63 bits.
    """
    n = table.blocks(slots)[1]
    tids = table.get(slots)
    row = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=row[1:])
    pbits = (int(positions.max(initial=0)) + k).bit_length()
    range_reads = 1 << (31 - pbits)
    none = np.empty(0, dtype=np.int64)
    read_parts, tid_parts, count_parts = [none], [none], [none]
    for r0 in range(0, len(read_ids), range_reads):
        r1 = min(r0 + range_reads, len(read_ids))
        a, b = np.searchsorted(reads, [r0, r1])
        key = np.repeat((reads[a:b] - r0) << (32 + pbits) | positions[a:b], n[a:b])
        high = tids[row[a] : row[b]].astype(np.int64)
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
    """The matches of each read of a batch: its k-mers are encoded and looked
    up, their bank read ids gathered and their counts scored all at once."""
    canon, positions, ptr = encode_reads(batch.seq, batch.offsets, qd.k)
    slots = qd.query_batch(canon)
    reads = np.repeat(np.arange(len(batch)), np.diff(ptr))
    hit = slots >= 0
    read_ids = np.arange(batch.first_id, batch.first_id + len(batch), dtype=np.int64)
    return _similarity(
        qd.k, table, read_ids, reads[hit], positions[hit], slots[hit], min_shared, exclude_self
    )


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
            out.write(
                f"# src link k={qd.k} t={qd.t} f={qd.f} gamma={qd.mphf.gamma} "
                f"seed={qd.mphf.master_seed} min_shared={min_shared} mode={mode} N={qd.n_keys}\n"
            )
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
