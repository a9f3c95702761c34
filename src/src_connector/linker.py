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
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .kmers import encode_reads, sorted_keys
from .quasidict import QuasiDictionary
from .seqio import BankDigest, ReadRecord, ReadStream, ordered_map, read_batches

DEFAULT_MIN_SHARED = 2
DEFAULT_BATCH_READS = 1024  # query reads per worker batch of run_src_linker
BANK_BATCH_READS = 4096  # bank reads encoded per pass of an id-table build
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


def _bank_pairs(qd: QuasiDictionary, bank) -> Iterator[np.ndarray]:
    """Yield, per batch, its distinct (slot, read id) pairs as uint64 keys
    slot << 32 | read id, which sort by slot, then by read id.

    A read lies in one batch, so no pair repeats across batches. Once the
    whole bank is read, raises ValueError if its reads are not the ones qd
    was built from.
    """
    digest = BankDigest()
    for batch in read_batches(bank, BANK_BATCH_READS):
        seqs = [r.sequence for r in batch]
        digest.update(seqs)
        canon, _, ptr = encode_reads(seqs, qd.k)
        idx = qd.query_batch(canon)
        pos = np.repeat(np.arange(len(batch), dtype=np.int64), np.diff(ptr))
        rids = np.fromiter((r.id for r in batch), dtype=_SLOT_DTYPE, count=len(batch))
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


class ReadIdTable:
    """CSR table: slot -> ascending, distinct bank read ids."""

    def __init__(self, offsets: np.ndarray, ids: np.ndarray):
        self.offsets = offsets  # int64, n_slots + 1
        self.ids = ids  # _SLOT_DTYPE

    @classmethod
    def build(cls, qd: QuasiDictionary, bank) -> "ReadIdTable":
        (keys,) = _sorted_pairs(qd, bank, sys.maxsize)  # one in-memory run
        offsets = np.zeros(qd.n_keys + 1, dtype=np.int64)
        slots = (keys >> np.uint64(32)).view(np.int64)
        np.cumsum(np.bincount(slots, minlength=qd.n_keys), out=offsets[1:])
        del slots
        return cls(offsets, keys.astype(_SLOT_DTYPE))

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


def _similarity(
    k: int,
    table: ReadIdTable | DiskIdTable,
    read_id: int,
    positions: list[int],
    slots: list[int],
    min_shared: int,
    exclude_self: bool,
) -> MatchRecord:
    """Greedy non-overlapping shared k-mer counts of one read, from the
    positions of its k-mers and their dictionary slots (-1: not indexed)."""
    targets: dict[int, list[int]] = {}
    for i, slot in zip(positions, slots):
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
        if state[1] >= min_shared and not (exclude_self and tid == read_id)
    )
    return MatchRecord(read_id, matches)


def link_batch(
    qd: QuasiDictionary,
    table: ReadIdTable | DiskIdTable,
    batch: list[ReadRecord],
    min_shared: int,
    exclude_self: bool,
) -> list[MatchRecord]:
    """One MatchRecord per read of a batch, its k-mers encoded and looked up at once."""
    canon, positions, ptr = encode_reads([r.sequence for r in batch], qd.k)
    positions, slots, ptr = positions.tolist(), qd.query_batch(canon).tolist(), ptr.tolist()
    return [
        _similarity(
            qd.k, table, read.id, positions[ptr[r] : ptr[r + 1]], slots[ptr[r] : ptr[r + 1]],
            min_shared, exclude_self,
        )
        for r, read in enumerate(batch)
    ]


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
            rec.format() + "\n" for rec in link_batch(qd, table, batch, min_shared, no_self)
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
            for rec in ReadStream(query_path):
                sidecar.write(f"{rec.id}\t{rec.header}\n")
