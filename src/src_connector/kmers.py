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
    """Codes of the reverse complement sequences, as a new array built in
    place with one scratch array."""
    x = codes ^ U64((1 << (2 * k)) - 1)
    scratch = np.empty_like(x)
    for shift, mask in ((U64(2), _M2), (U64(4), _M4)):  # swap bases, then base pairs
        np.right_shift(x, shift, out=scratch)
        scratch &= mask
        x &= mask
        x <<= shift
        x |= scratch
    del scratch
    x.byteswap(inplace=True)
    x >>= U64(64 - 2 * k)
    return x


def canonicalize_batch(codes: np.ndarray, k: int) -> np.ndarray:
    """The smaller of each code and its reverse complement code, as a new array."""
    rc = reverse_complement_batch(codes, k)
    return np.minimum(codes, rc, out=rc)


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
    # the newlines are non-ACGT, so no window spans two reads
    codes, valid = _window_codes(_CODE_LUT[seq], k)
    gvalid = np.flatnonzero(valid)
    del valid
    canon = codes[gvalid]
    del codes
    canon = canonicalize_batch(canon, k)
    read_ptr = np.searchsorted(gvalid, offsets).astype(np.int64)
    positions = gvalid  # batch offsets, made in-read positions in place
    positions -= np.repeat(offsets[:-1], np.diff(read_ptr))
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
    counts, and the number of distinct codes in part. The solid codes are
    written over the front of part, which they take as their own pages, and
    returned as a view of it; their counts are put on a mapping of their own
    (_put), so none of them lands in malloc's heap.

    part is walked in KEY_CHUNK slices. A slice's run starts come from
    comparing neighbours, its first code with the one before the slice. A
    run's count is the distance to the next start; the slice's last run may
    go on past the slice, so its end is found by one searchsorted. So no
    temporary is as long as part or as its distinct codes: each is bounded
    by one slice. Each solid code is the first of a run at or after the
    place it is written to, so a slice's writes end at or before its own end
    and what is still to be read is intact. No read looks at the rewritten
    front: the code before a slice is kept from the slice before, and the
    searchsorted looks only at part from the slice on.
    """
    counts, n = _mapping(0), 0  # n solid codes written
    n_distinct = 0
    last = None  # the code before the slice
    for lo in range(0, len(part), KEY_CHUNK):
        block = part[lo : lo + KEY_CHUNK]
        first = np.empty(len(block) + 1, dtype=bool)  # first-of-run flags and an end mark
        first[0] = lo == 0 or block[0] != last
        np.not_equal(block[1:], block[:-1], out=first[1:-1])
        first[-1] = True
        bounds = np.flatnonzero(first)
        bounds[-1] = np.searchsorted(part[lo:], block[-1], side="right")
        n_distinct += len(bounds) - 1
        lengths = np.diff(bounds)
        solid = np.flatnonzero(lengths >= t)
        last = block[-1]
        part[n : n + len(solid)] = block[bounds[solid]]
        counts = _put(counts, n, lengths[solid])
        n += len(solid)
    return part[:n], np.frombuffer(counts, U64, n), n_distinct


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


def _release_past(keys: np.ndarray, n: int) -> None:
    """Give the pages of keys' mapping past its first n uint64 words back to
    the system, which reads them as zeros from then on. keys is a
    sorted_keys array, a view of its _mapping from the start. Does nothing
    where mmap has no madvise (Windows)."""
    mapping = keys.base.obj  # np.frombuffer's memoryview of the mapping
    at = -(-8 * n // mmap.PAGESIZE) * mmap.PAGESIZE
    if at < len(mapping) and hasattr(mapping, "madvise"):
        mapping.madvise(mmap.MADV_DONTNEED, at)


def _concatenated(parts: list[np.ndarray]) -> np.ndarray:
    """The uint64 arrays of parts laid end to end: the one part itself, or a
    copy on a mapping of its own."""
    if len(parts) == 1:
        return parts[0]
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
    partition), on a mapping, plus per-slice temporaries: _solid_runs
    selects the solid codes KEY_CHUNK occurrences at a time and writes them
    over the front of that mapping, whose other pages then go back to the
    system, and puts their counts on a mapping of their own. So only 16
    bytes per solid k-mer are kept, outside malloc's heap, and they go back
    to the system once the result is dropped; spilled partitions' solid
    codes and counts are copied into one mapping each at the end.
    Reads are encoded one read_batches batch at a time (a list is one
    batch), so for a file the encoder's temporaries, about 32 bytes per base
    at k = 1 and 22 at k = 31 (100 bp reads, tracemalloc), stay near
    32 * seqio.BLOCK_BYTES unless a single read is longer.
    """
    _check_k(k)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")

    digest = BankDigest()

    def codes(batch: ReadBatch) -> np.ndarray:
        digest.update(batch.seq)
        return encode_reads(batch.seq, batch.offsets, k)[0]

    solid_codes, solid_counts = [], []
    n_distinct = 0
    for part in sorted_keys(map(codes, read_batches(reads)), 2 * k, memory_budget, tmp_dir):
        part_codes, part_counts, part_distinct = _solid_runs(part, t)
        _release_past(part, len(part_codes))  # keeps the solid codes' pages alone
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
