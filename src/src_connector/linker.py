"""All-vs-all read similarity via non-overlapping shared k-mers (the link tool).

Each dictionary slot maps to the bank reads containing a k-mer with that
slot. A query read is scanned left to right; a shared k-mer at position i
counts for a target only if i is past the target's next free position,
which then advances by k. Targets below the --min-shared threshold are
dropped. The id table lists each slot's bank reads once, ascending, either
in RAM (CSR layout) or in a temp file of blocks that hold each read once as
id+1, then a 0 terminator.
"""

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kmers import encode_reads
from .quasidict import QuasiDictionary
from .seqio import BankDigest, ReadRecord, open_reads, ordered_map, read_batches

DEFAULT_MIN_SHARED = 2
DEFAULT_BATCH_READS = 1024
_SLOT_DTYPE = np.uint32  # 4-byte little-endian disk slots; caps bank at 2^32 - 2 reads


@dataclass
class MatchRecord:
    query_read_id: int
    matches: list[tuple[int, int]]  # (target read id, shared non-overlapping k-mers)

    def format(self) -> str:
        if not self.matches:
            return f"{self.query_read_id}:*"
        pairs = " ".join(f"{tid}-{cnt}" for tid, cnt in self.matches)
        return f"{self.query_read_id}: {pairs}"


def _bank_pairs(qd: QuasiDictionary, bank, batch_reads: int):
    """Yield, per batch, (slot, read_id) arrays of its distinct pairs.

    Pairs come ordered by slot, then by read id; read ids are _SLOT_DTYPE.
    A read lies in one batch and ids ascend in bank order, so no pair
    repeats across batches and each slot's ids ascend across them too.
    Once the whole bank is read, raises ValueError if its reads are not the
    ones qd was built from.
    """
    digest = BankDigest()
    for batch in read_batches(bank, batch_reads):
        seqs = [r.sequence for r in batch]
        digest.update(seqs)
        canon, _, ptr = encode_reads(seqs, qd.k)
        idx = qd.query_batch(canon)
        pos = np.repeat(np.arange(len(batch), dtype=np.int64), np.diff(ptr))
        hit = idx >= 0
        # one key per occurrence, ordered by slot then position in the batch
        key = np.sort(idx[hit] * len(batch) + pos[hit])
        key = key[np.diff(key, prepend=-1) != 0]
        rids = np.fromiter((r.id for r in batch), dtype=_SLOT_DTYPE, count=len(batch))
        yield key // len(batch), rids[key % len(batch)]
    if digest.digest() != qd.bank_digest:
        raise ValueError("bank reads differ from those the index was built from")


class ReadIdTable:
    """CSR table: slot -> ascending, distinct bank read ids."""

    def __init__(self, offsets: np.ndarray, ids: np.ndarray):
        self.offsets = offsets  # int64, n_slots + 1
        self.ids = ids  # _SLOT_DTYPE

    @classmethod
    def build(cls, qd: QuasiDictionary, bank, batch_reads: int = 4096) -> "ReadIdTable":
        slots = [np.empty(0, dtype=np.int64)]
        rids = [np.empty(0, dtype=_SLOT_DTYPE)]
        for s, r in _bank_pairs(qd, bank, batch_reads):
            slots.append(s)
            rids.append(r)
        slot = np.concatenate(slots)
        rid = np.concatenate(rids)
        del slots, rids
        offsets = np.zeros(qd.n_keys + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=qd.n_keys), out=offsets[1:])
        # batches come in read order, so a stable sort keeps each slot's ids ascending
        return cls(offsets, rid[np.argsort(slot, kind="stable")])

    def get(self, slot: int) -> np.ndarray:
        return self.ids[self.offsets[slot] : self.offsets[slot + 1]]


class DiskIdTable:
    """Temp-file table: per slot, a block holding each of its bank reads once,
    ascending, as 4-byte id+1 values, then a 0 terminator.

    Keeps only one offset per slot in RAM. Owns the file: close() deletes it.
    """

    def __init__(self, offsets: np.ndarray, path: str):
        self.offsets = offsets  # int64 block starts (in 4-byte slots), n_slots + 1
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)

    def get(self, slot: int) -> np.ndarray:
        """Ascending, distinct bank read ids of a slot."""
        lo, hi = int(self.offsets[slot]), int(self.offsets[slot + 1])
        # one positioned read, so concurrent readers share no file position
        block = np.frombuffer(os.pread(self._fd, 4 * (hi - lo), 4 * lo), dtype=_SLOT_DTYPE)
        if len(block) != hi - lo or block[-1] != 0:
            raise IOError(f"{self.path}: unterminated id block for slot {slot}")
        return block[:-1] - 1

    def close(self) -> None:
        os.close(self._fd)
        os.unlink(self.path)


def _build_disk_table(
    qd: QuasiDictionary, bank, tmp_dir: str | None = None, batch_reads: int = 4096
) -> DiskIdTable:
    n = qd.n_keys
    # pass 1: distinct reads per slot, bank-side false positives included
    occ = np.zeros(n, dtype=np.int64)
    for slot, _ in _bank_pairs(qd, bank, batch_reads):
        np.add.at(occ, slot, 1)

    # pass 2: allocate zero-filled blocks of occ+1 slots each
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(occ + 1, out=offsets[1:])
    total_slots = int(offsets[-1])
    fd, tmp_path = tempfile.mkstemp(prefix="src_link_ids_", suffix=".bin", dir=tmp_dir)
    os.ftruncate(fd, total_slots * 4)
    os.close(fd)
    table = DiskIdTable(offsets, tmp_path)

    # pass 3: write each pair after the ids its slot got from earlier batches
    if not total_slots:
        return table
    try:
        mm = np.memmap(tmp_path, dtype=_SLOT_DTYPE, mode="r+", shape=(total_slots,))
        cursor = np.zeros(n, dtype=np.int64)
        for slot, rid in _bank_pairs(qd, bank, batch_reads):
            # slot is sorted: its rank among this batch's pairs of the same slot
            rank = np.arange(len(slot)) - np.searchsorted(slot, slot)
            mm[offsets[slot] + cursor[slot] + rank] = rid + 1
            np.add.at(cursor, slot, 1)
        mm.flush()
        del mm
    except BaseException:
        table.close()
        raise
    return table


def _similarity(
    qd: QuasiDictionary,
    table: ReadIdTable | DiskIdTable,
    read: ReadRecord,
    min_shared: int,
    exclude_self: bool,
) -> MatchRecord:
    canon, positions, _ = encode_reads([read.sequence], qd.k)
    idx = qd.query_batch(canon)
    k = qd.k
    targets: dict[int, list[int]] = {}
    for i, slot in zip(positions.tolist(), idx.tolist()):
        if slot < 0:
            continue
        for tid in table.get(slot).tolist():
            state = targets.get(tid)
            if state is None:
                targets[tid] = [i + k, 1]
            elif i >= state[0]:
                state[0] = i + k
                state[1] += 1
    matches = sorted(
        (tid, state[1])
        for tid, state in targets.items()
        if state[1] >= min_shared and not (exclude_self and tid == read.id)
    )
    return MatchRecord(read.id, matches)


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
    """One MatchRecord line per query read, in input order.

    The id table is built from the bank reads, which must be the reads qd
    was built from: building it raises ValueError when they are not.
    """
    if mode not in ("ram", "disk"):
        raise ValueError(f"mode must be 'ram' or 'disk', got {mode!r}")
    if mode == "disk":
        table = _build_disk_table(qd, bank_path, tmp_dir)
    else:
        table = ReadIdTable.build(qd, bank_path)
    try:
        work = lambda batch: [
            _similarity(qd, table, read, min_shared, no_self).format() + "\n" for read in batch
        ]
        with open(out_path, "w") as out:
            out.write(
                f"# src link k={qd.k} t={qd.t} f={qd.f} gamma={qd.mphf.gamma} "
                f"seed={qd.mphf.master_seed} min_shared={min_shared} mode={mode} N={qd.n_keys}\n"
            )
            out.write("# query_id: target_id-shared_kmers ... (*: no match)\n")
            for lines in ordered_map(work, read_batches(query_path, DEFAULT_BATCH_READS), threads):
                out.writelines(lines)
    finally:
        if mode == "disk":
            table.close()
    if sidecar_path:
        with open(sidecar_path, "w") as sidecar:
            for rec in open_reads(query_path):
                sidecar.write(f"{rec.id}\t{rec.header}\n")
