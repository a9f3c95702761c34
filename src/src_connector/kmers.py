"""Canonical k-mer encoding, enumeration and solid k-mer counting.

k-mers are 2-bit packed into uint64 codes (A=0, C=1, G=2, T=3, first base in
the most significant bit pair), so integer order equals lexicographic order
and the canonical form is a plain minimum with the reverse complement.
k is capped at 31 so a code always fits 62 bits.
"""

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .seqio import BankDigest, ReadRecord, read_batches

U64 = np.uint64

MAX_K = 31

DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes of buffered k-mer codes before spilling
# reads encoded per pass of count_solid_kmers; encode_reads peaks at about
# 52 bytes per base at k = 1 and 40 at k = 31 (100 bp reads, tracemalloc)
COUNT_CHUNK_READS = 16_384

_CODE_LUT = np.full(256, 255, dtype=np.uint8)  # base value per byte, 255 for non-ACGT
_CODE_LUT[np.frombuffer(b"ACGTacgt", dtype=np.uint8)] = [0, 1, 2, 3, 0, 1, 2, 3]

_M2 = U64(0x3333333333333333)
_M4 = U64(0x0F0F0F0F0F0F0F0F)


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")


def reverse_complement_batch(codes: np.ndarray, k: int) -> np.ndarray:
    """Codes of the reverse complement sequences."""
    x = codes ^ U64((1 << (2 * k)) - 1)
    x = ((x >> U64(2)) & _M2) | ((x & _M2) << U64(2))
    x = ((x >> U64(4)) & _M4) | ((x & _M4) << U64(4))
    x = x.byteswap()
    return x >> U64(64 - 2 * k)


def canonicalize_batch(codes: np.ndarray, k: int) -> np.ndarray:
    """The smaller of each code and its reverse complement code."""
    return np.minimum(codes, reverse_complement_batch(codes, k))


def _window_codes(vals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw forward codes of every length-k window plus a validity mask.

    vals holds one 2-bit base value per character, 255 for non-ACGT; a window
    is valid when it holds no 255. Byte b4[i] packs the four bases from i on,
    so window i's first 32 bases are the big-endian u64 of b4[i], b4[i+4],
    ..., b4[i+28], eight adjacent bytes of the phase copy b4[i % 4::4]. One
    unaligned ">u8" view per phase reads every code (independent of host
    byte order), and a right shift keeps the top 2k bits. Past the end the
    bases are zero-padded; codes of invalid windows are meaningless.
    """
    n = vals.size
    m = n - k + 1
    if m <= 0:
        return np.empty(0, dtype=U64), np.empty(0, dtype=bool)

    v = np.zeros(n + 32, dtype=np.uint8)
    np.bitwise_and(vals, 3, out=v[:n])
    pairs = (v[:-1] << 2) | v[1:]
    b4 = (pairs[:-2] << 4) | pairs[2:]
    codes = np.empty(m, dtype=U64)
    shift = U64(64 - 2 * k)
    for p in range(4):
        phase = np.ascontiguousarray(b4[p::4])
        words = np.ndarray(len(range(p, m, 4)), dtype=">u8", buffer=phase, strides=(1,))
        np.right_shift(words, shift, out=codes[p::4])

    # AND of the ACGT flags over windows of length w, doubling w up to k;
    # a length-k window is the AND of two overlapping length-w ones
    valid = vals != 255
    w = 1
    while 2 * w <= k:
        valid = valid[:-w] & valid[w:]
        w *= 2
    return codes, valid[:m] & valid[k - w : k - w + m]


def encode_reads(seqs: list[str], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode a batch of reads into canonical window codes.

    Returns (canon_codes, window_positions, read_ptr) where read r's windows
    are canon_codes[read_ptr[r]:read_ptr[r+1]] at the in-read positions
    window_positions[...]. Windows containing non-ACGT bases are dropped
    without renumbering the surviving positions.
    """
    _check_k(k)
    if not seqs:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=U64), empty, np.zeros(1, dtype=np.int64)

    joined = "N".join(seqs)
    data = np.frombuffer(joined.encode("latin-1"), dtype=np.uint8)
    vals = _CODE_LUT[data]
    codes, valid = _window_codes(vals, k)
    gvalid = np.flatnonzero(valid)
    canon = canonicalize_batch(codes[gvalid], k)

    lens = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    starts = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum(lens + 1, out=starts[1:])
    read_ptr = np.searchsorted(gvalid, starts).astype(np.int64)
    positions = gvalid - np.repeat(starts[:-1], np.diff(read_ptr))
    return canon, positions, read_ptr


@dataclass(frozen=True)
class SolidKmerSet:
    """Canonical k-mers with occurrence count >= t, codes in ascending order."""

    k: int
    t: int
    codes: np.ndarray  # uint64, ascending
    counts: np.ndarray  # uint64, aligned with codes
    n_distinct_total: int  # distinct canonical k-mers seen, including non-solid
    bank_digest: bytes  # seqio.BankDigest of the reads counted

    @property
    def n(self) -> int:
        return len(self.codes)


def _run_lengths(sorted_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(sorted_codes) == 0:
        return sorted_codes, np.empty(0, dtype=np.uint64)
    change = np.empty(len(sorted_codes), dtype=bool)
    change[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    uniq = sorted_codes[starts]
    counts = np.diff(np.append(starts, len(sorted_codes))).astype(np.uint64)
    return uniq, counts


class _Spill:
    """Temp-file partitions of uint64 keys below 2^key_bits, range-partitioned
    by their high bits so per-partition results concatenate back in ascending
    key order."""

    N_PARTITIONS = 64

    def __init__(self, key_bits: int, tmp_dir: str | None):
        self.shift = U64(max(0, key_bits - 6))
        self.dir = tempfile.TemporaryDirectory(prefix="src_spill_", dir=tmp_dir)
        self.files = [
            open(os.path.join(self.dir.name, f"part_{i:02d}.bin"), "wb")
            for i in range(self.N_PARTITIONS)
        ]

    def write(self, keys: np.ndarray) -> None:
        keys = np.sort(keys)
        bounds = np.arange(1, self.N_PARTITIONS, dtype=U64) << self.shift
        for f, part in zip(self.files, np.split(keys, np.searchsorted(keys, bounds))):
            f.write(part.tobytes())

    def partitions(self) -> Iterator[np.ndarray]:
        for f in self.files:
            f.close()
            yield np.fromfile(f.name, dtype=U64)

    def cleanup(self) -> None:
        for f in self.files:
            f.close()
        self.dir.cleanup()


def sorted_keys(
    batches: Iterable[np.ndarray], key_bits: int, memory_budget: int, tmp_dir: str | None
) -> Iterator[np.ndarray]:
    """Every uint64 key of batches (each below 2^key_bits), ascending, as
    consecutive sorted arrays: one in-memory array or, once the keys pass
    memory_budget bytes, one per range-partition temp file under tmp_dir.
    The files are deleted on every exit path."""
    chunks: list[np.ndarray] = []
    buffered = 0
    spill: _Spill | None = None
    try:
        for keys in batches:
            chunks.append(keys)
            buffered += keys.nbytes
            if buffered > memory_budget:
                spill = spill or _Spill(key_bits, tmp_dir)
                while chunks:
                    spill.write(chunks.pop())
        if spill is None:
            keys = np.empty(sum(map(len, chunks)), dtype=U64)
            end = len(keys)
            while chunks:  # last chunk first, each freed once copied
                start = end - len(chunks[-1])
                keys[start:end] = chunks.pop()
                end = start
            keys.sort()
            yield keys
        else:
            for keys in spill.partitions():
                keys.sort()
                yield keys
    finally:
        if spill is not None:
            spill.cleanup()


def count_solid_kmers(
    reads: str | Path | Iterable[ReadRecord],
    k: int,
    t: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: str | None = None,
) -> SolidKmerSet:
    """Exact canonical k-mer counting over a read set, keeping counts >= t.

    Codes are sorted by sorted_keys, which spills them to temp files under
    tmp_dir once they pass memory_budget bytes. Reads are encoded
    COUNT_CHUNK_READS at a time; the encoder's temporaries grow with that number.
    """
    _check_k(k)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")

    digest = BankDigest()

    def codes(seqs: list[str]) -> np.ndarray:
        digest.update(seqs)
        return encode_reads(seqs, k)[0]

    # map() holds no batch of records while its sequences are encoded
    batches = read_batches(reads, COUNT_CHUNK_READS)
    seqs = map(lambda batch: [r.sequence for r in batch], batches)
    solid_codes = [np.empty(0, dtype=U64)]
    solid_counts = [np.empty(0, dtype=np.uint64)]
    n_distinct = 0
    for part in sorted_keys(map(codes, seqs), 2 * k, memory_budget, tmp_dir):
        uniq, counts = _run_lengths(part)
        n_distinct += len(uniq)
        keep = counts >= np.uint64(t)
        solid_codes.append(uniq[keep])
        solid_counts.append(counts[keep])

    return SolidKmerSet(
        k=k,
        t=t,
        codes=np.concatenate(solid_codes),
        counts=np.concatenate(solid_counts),
        n_distinct_total=n_distinct,
        bank_digest=digest.digest(),
    )
