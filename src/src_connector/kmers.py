"""Canonical k-mer encoding, enumeration and solid k-mer counting.

k-mers are 2-bit packed into uint64 codes (A=0, C=1, G=2, T=3, first base in
the most significant bit pair), so integer order equals lexicographic order
and the canonical form is a plain minimum with the reverse complement.
k is capped at 31 so a code always fits 62 bits.
"""

import mmap
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .bitpack import KEY_CHUNK
from .seqio import BankDigest, ReadBatch, read_batches

U64 = np.uint64

MAX_K = 31

DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes of buffered k-mer codes before spilling

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


def encode_reads(
    seq: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode a batch of reads into canonical window codes.

    seq and offsets are a ReadBatch's columns: read r's bases are
    seq[offsets[r]:offsets[r + 1] - 1], each read followed by a newline.
    Returns (canon_codes, window_positions, read_ptr) where read r's windows
    are canon_codes[read_ptr[r]:read_ptr[r+1]] at the in-read positions
    window_positions[...]. Windows containing non-ACGT bases are dropped
    without renumbering the surviving positions.
    """
    _check_k(k)
    vals = _CODE_LUT[seq]  # the newlines are non-ACGT, so no window spans two reads
    codes, valid = _window_codes(vals, k)
    gvalid = np.flatnonzero(valid)
    canon = canonicalize_batch(codes[gvalid], k)
    read_ptr = np.searchsorted(gvalid, offsets).astype(np.int64)
    positions = gvalid - np.repeat(offsets[:-1], np.diff(read_ptr))
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


def _solid_runs(part: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The codes occurring >= t times in the ascending array part, their
    counts, and the number of distinct codes in part.

    part is walked in KEY_CHUNK slices. A slice's run starts come from
    comparing neighbours, its first code with the one before the slice. A
    run's count is the distance to the next start; the slice's last run may
    go on past the slice, so its end is found by one searchsorted. So no
    temporary is as long as part or as its distinct codes: each is bounded
    by one slice. The solid codes and counts are appended to mappings of
    their own (_put), so none of them lands in malloc's heap.
    """
    codes, counts, n = _mapping(0), _mapping(0), 0  # n solid codes put
    n_distinct = 0
    for lo in range(0, len(part), KEY_CHUNK):
        block = part[lo : lo + KEY_CHUNK]
        first = np.empty(len(block) + 1, dtype=bool)  # first-of-run flags and an end mark
        first[0] = lo == 0 or block[0] != part[lo - 1]
        np.not_equal(block[1:], block[:-1], out=first[1:-1])
        first[-1] = True
        bounds = np.flatnonzero(first)
        bounds[-1] = np.searchsorted(part, block[-1], side="right") - lo
        n_distinct += len(bounds) - 1
        lengths = np.diff(bounds)
        solid = np.flatnonzero(lengths >= t)
        codes = _put(codes, n, block[bounds[solid]])
        counts = _put(counts, n, lengths[solid])
        n += len(solid)
    return np.frombuffer(codes, U64, n), np.frombuffer(counts, U64, n), n_distinct


# Windows has no mmap flags: its anonymous mappings are private already
_ANONYMOUS = {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS} if hasattr(mmap, "MAP_ANONYMOUS") else {}


def _mapping(nbytes: int) -> mmap.mmap:
    """At least nbytes of zeroed memory on an anonymous mapping of its own,
    outside malloc's heap: it is unmapped, and its pages go back to the
    system, as soon as nothing refers to it (an np.frombuffer array does)."""
    return mmap.mmap(-1, max(nbytes, mmap.PAGESIZE), **_ANONYMOUS)


def _grown(buf: mmap.mmap, nbytes: int) -> mmap.mmap:
    """buf, or a mapping that holds its bytes, with room for nbytes or twice
    its size. Linux moves the pages with mremap; where there is no mremap
    (macOS), resize raises SystemError and the bytes are copied, so buf and
    its copy are briefly held together. No view of buf may be alive."""
    size = max(nbytes, 2 * len(buf))
    try:
        buf.resize(size)
        return buf
    except SystemError:
        grown = _mapping(size)
        grown[: len(buf)] = buf
        return grown


def _put(buf: mmap.mmap, n: int, values: np.ndarray) -> mmap.mmap:
    """buf, grown by _grown if it is too small, with values written as its
    uint64 words n, n + 1, ... No view of buf may be alive."""
    if 8 * (n + len(values)) > len(buf):
        buf = _grown(buf, 8 * (n + len(values)))
    np.frombuffer(buf, U64, len(values), 8 * n)[:] = values
    return buf


def _concatenated(parts: list[np.ndarray]) -> np.ndarray:
    """The uint64 arrays of parts laid end to end, on a mapping of their own."""
    n = sum(map(len, parts))
    return np.concatenate(parts, out=np.frombuffer(_mapping(8 * n), U64, n))


def _spill(keys: np.ndarray, parts: list, key_bits: int) -> None:
    """Sort keys in place and append each of its 64 ranges by top 6 bits to
    its partition file."""
    keys.sort()
    bounds = np.arange(1, len(parts), dtype=U64) << U64(max(0, key_bits - 6))
    for f, part in zip(parts, np.split(keys, np.searchsorted(keys, bounds))):
        f.write(part)


def _read_part(f) -> np.ndarray:
    """A partition file's keys, sorted, on a mapping of their own. f is
    closed, and its space freed, once it is read."""
    nbytes = f.seek(0, os.SEEK_END)
    f.seek(0)
    buf = _mapping(nbytes)
    f.readinto(buf)
    f.close()
    keys = np.frombuffer(buf, U64, nbytes // 8)
    keys.sort()
    return keys


def sorted_keys(
    batches: Iterable[np.ndarray], key_bits: int, memory_budget: int, tmp_dir: str | None
) -> Iterator[np.ndarray]:
    """Every uint64 key of batches (each below 2^key_bits), ascending, as
    consecutive sorted arrays: one in-memory array or, once the keys pass
    memory_budget bytes, one per range partition by the keys' top 6 bits.

    The keys are appended to one buffer on a mapping of its own (_mapping),
    not to malloc's heap. In memory the buffer is sorted in place and
    yielded. Once the next batch would take it past memory_budget bytes,
    the buffer is sorted, split into the 64 partitions and refilled, so it
    holds at most memory_budget bytes or one batch. Each array yielded is on
    a mapping of its own, unmapped as soon as the caller drops it.

    The 64 partitions are unnamed temp files under tmp_dir, so the system
    frees them however the run ends; each is closed, and its space freed,
    once it is read back, before it is yielded."""
    buf, n = _mapping(0), 0  # n keys filled
    parts: list = []
    try:
        for batch in batches:
            if 8 * (n + len(batch)) > memory_budget:
                parts = parts or [tempfile.TemporaryFile(dir=tmp_dir) for _ in range(64)]
                _spill(np.frombuffer(buf, U64, n), parts, key_bits)
                n = 0
            buf = _put(buf, n, batch)
            n += len(batch)
        batch = None  # the last batch is not held while the keys are sorted
        keys = np.frombuffer(buf, U64, n)
        del buf  # keys now holds the mapping alone
        if not parts:
            keys.sort()
            yield keys
            return
        _spill(keys, parts, key_bits)
        del keys  # unmaps the buffer before the partitions are read
        for f in parts:
            yield _read_part(f)
    finally:
        for f in parts:
            f.close()


def count_solid_kmers(
    reads: str | Path | list[str],
    k: int,
    t: int,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: str | None = None,
) -> SolidKmerSet:
    """Exact canonical k-mer counting over a read set, keeping counts >= t.

    Codes are sorted by sorted_keys, which spills them to 64 unnamed temp
    files under tmp_dir once they pass memory_budget bytes; no spill file
    outlives the call, however it ends. So the build holds 8 bytes
    per buffered k-mer occurrence, up to memory_budget (or one spilled
    partition), on a mapping that goes back to the system once the solid
    k-mers are selected from it, plus per-slice temporaries: _solid_runs
    selects the solid codes KEY_CHUNK occurrences at a time, and only the
    solid codes and counts, 16 bytes each, are kept, on mappings of their
    own, so they too go back to the system once the result is dropped.
    Reads are encoded one read_batches batch at a time (a list is one
    batch), so for a file the encoder's temporaries, about 52 bytes per base
    at k = 1 and 40 at k = 31 (100 bp reads, tracemalloc), stay near
    52 * seqio.BLOCK_BYTES unless a single read is longer.
    """
    _check_k(k)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")

    digest = BankDigest()

    def codes(batch: ReadBatch) -> np.ndarray:
        digest.update(batch.seq)
        return encode_reads(batch.seq, batch.offsets, k)[0]

    solid_codes, solid_counts = [np.empty(0, dtype=U64)], [np.empty(0, dtype=U64)]
    n_distinct = 0
    for part in sorted_keys(map(codes, read_batches(reads)), 2 * k, memory_budget, tmp_dir):
        part_codes, part_counts, part_distinct = _solid_runs(part, t)
        del part  # unmaps its 8 bytes per occurrence before the next part or the concatenation
        solid_codes.append(part_codes)
        solid_counts.append(part_counts)
        n_distinct += part_distinct

    return SolidKmerSet(
        k=k,
        t=t,
        codes=_concatenated(solid_codes),
        counts=_concatenated(solid_counts),
        n_distinct_total=n_distinct,
        bank_digest=digest.digest(),
    )
