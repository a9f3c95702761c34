"""Probabilistic dictionary over canonical k-mer codes.

An MPHF assigns each indexed k-mer a slot in [0, N-1]; an f-bit fingerprint
stored at the slot rejects most alien k-mers that the MPHF fails to catch.
Indexed k-mers always resolve to their own slot (no false negatives); an
alien slips through with probability about 1/2^f times the MPHF accept rate.

With f = 2k the fingerprint is the raw code itself, which is injective, so
false positives are impossible (exact mode).
"""

import math
import struct
from functools import partial
from pathlib import Path

import numpy as np

from .bitpack import KEY_CHUNK, WORD_BITS, PackedArray
from .kmers import DEFAULT_MEMORY_BUDGET, MAX_K, SolidKmerSet, count_solid_kmers, encode_reads
from .mphf import DEFAULT_GAMMA, DEFAULT_MASTER_SEED, Mphf
from .seqio import ReadBatch, blake2b, output_file

U64 = np.uint64

NOT_INDEXED = -1
COUNT_SATURATION = 255  # a count table's entries stop here
MAGIC = b"QDIX0003"

# magic, k, t, f, n_keys, gamma, master_seed, n_levels, n_fallback, flags,
# bank digest, checksum: 112 bytes, so every array section after it is
# 8-byte aligned. The checksum is the 16-byte blake2b of every other byte.
_HEADER = struct.Struct("<8sQQQQdQQQQ16s16s")
_CHECKSUM_AT = _HEADER.size - 16
_LEVEL_SIZE = struct.Struct("<Q")
_FLAG_COUNTS = 1  # index file carries the per-slot count table


class IndexFormatError(Exception):
    pass


def fingerprint_batch(codes: np.ndarray, f: int) -> np.ndarray:
    """Low f bits of the xorshift64 (13, 7, 17) mix of each code.

    Quirk: code 0 maps to 0, since xorshift fixes 0.
    """
    x = codes.astype(U64, copy=True)
    x ^= x << U64(13)
    x ^= x >> U64(7)
    x ^= x << U64(17)
    return x & U64((1 << f) - 1)


def _fingerprints(codes: np.ndarray, f: int, exact: bool) -> np.ndarray:
    """The f-bit fingerprint the dictionary stores for each code."""
    if exact:
        return codes.astype(U64, copy=False)  # raw code: injective, zero FP
    return fingerprint_batch(codes, f)


class QuasiDictionary:
    """Immutable after construction; safe for concurrent queries."""

    def __init__(
        self, k: int, t: int, f: int, mphf: Mphf, fingerprints: PackedArray, bank_digest: bytes
    ):
        self.k = k
        self.t = t  # solidity threshold the indexed k-mers passed
        self.f = f
        self.mphf = mphf
        self.fingerprints = fingerprints
        self.bank_digest = bank_digest  # seqio.BankDigest of the indexed bank's reads
        self.n_keys = mphf.n_keys
        self.exact = f == 2 * k

    @classmethod
    def create(
        cls,
        solid: SolidKmerSet,
        f: int,
        gamma: float = DEFAULT_GAMMA,
        master_seed: int = DEFAULT_MASTER_SEED,
        count_table: np.ndarray | None = None,
    ) -> "QuasiDictionary":
        """The dictionary of solid's k-mers. The fingerprints are allocated
        first and filled as the MPHF build settles each k-mer (Mphf.build's
        settle), so no k-mer is looked up again. A count_table, zeroed uint8
        of solid.n entries, is filled in the same pass: each k-mer's count,
        saturated at COUNT_SATURATION, at its slot."""
        if not 1 <= f <= min(2 * solid.k, 62):
            raise ValueError(f"f must be in [1, {min(2 * solid.k, 62)}] for k={solid.k}")
        fingerprints = PackedArray(solid.n, f)
        exact = f == 2 * solid.k

        def settle(at: np.ndarray, index: np.ndarray) -> None:
            fingerprints.set_many(index, _fingerprints(np.take(solid.codes, at), f, exact))
            if count_table is not None:
                count_table[index] = np.minimum(np.take(solid.counts, at), COUNT_SATURATION)

        mphf = Mphf.build(solid.codes, gamma=gamma, master_seed=master_seed, settle=settle)
        return cls(solid.k, solid.t, f, mphf, fingerprints, solid.bank_digest)

    def query_batch(self, codes: np.ndarray) -> np.ndarray:
        """Slot per canonical code, NOT_INDEXED (-1) where rejected. The MPHF
        walks all codes at once; fingerprints are checked per KEY_CHUNK block."""
        codes = np.asarray(codes, dtype=U64)
        idx = self.mphf.query_batch(codes)
        for lo in range(0, len(codes), KEY_CHUNK):
            block = idx[lo : lo + KEY_CHUNK]
            found = np.flatnonzero(block >= 0)
            if len(found) == 0:
                continue
            stored = self.fingerprints.get_many(np.take(block, found))
            stored ^= _fingerprints(np.take(codes[lo : lo + KEY_CHUNK], found), self.f, self.exact)
            block[found[stored != 0]] = NOT_INDEXED
        return idx

    def lookup(self, batch: ReadBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(read, position, slot), all int64, of each indexed k-mer of batch in
        read order: the read's index in the batch, the k-mer's position in it, its slot."""
        canon, positions, ptr = encode_reads(batch.seq, batch.offsets, self.k)
        slots = self.query_batch(canon)
        hit = np.flatnonzero(slots >= 0)
        n_hits = np.diff(np.searchsorted(hit, ptr))  # per read: no per-k-mer read array is made
        return np.repeat(np.arange(len(batch), dtype=np.int64), n_hits), positions[hit], slots[hit]

    @property
    def params(self) -> dict:
        """The build parameters, in the order the output headers give them."""
        return dict(k=self.k, t=self.t, f=self.f, gamma=self.mphf.gamma, seed=self.mphf.master_seed)

    @property
    def payload_bits(self) -> int:
        return self.fingerprints.payload_bits

    def size_bits(self) -> int:
        return self.mphf.size_bits() + 64 * len(self.fingerprints.words)

    def save(self, path: str | Path, counts: np.ndarray | None = None) -> None:
        """Write the index file: the _HEADER fields; per MPHF level its size
        and its occupied and collided words; the fallback keys, ascending;
        the fingerprint words; the count table when given. Every section
        length follows from the header and the level sizes."""
        if counts is not None and (len(counts) != self.n_keys or counts.dtype != np.uint8):
            raise ValueError("count table must be n_keys uint8 entries")
        mphf = self.mphf
        head = _HEADER.pack(
            MAGIC, self.k, self.t, self.f, self.n_keys, mphf.gamma, mphf.master_seed,
            len(mphf.levels), len(mphf.fallback),
            _FLAG_COUNTS if counts is not None else 0, self.bank_digest, bytes(16),
        )[:_CHECKSUM_AT]
        sections = []
        for level in mphf.levels:
            sections += [_LEVEL_SIZE.pack(level.size), level.occupied, level.collided]
        sections += [mphf.fallback, self.fingerprints.words]
        if counts is not None:
            sections.append(counts)
        checksum = blake2b(head, digest_size=16)
        for section in sections:
            checksum.update(section)
        with output_file(path, "wb") as fh:  # a failed write leaves no file
            fh.write(head + checksum.digest())
            for section in sections:
                fh.write(section)


def build_bank_index(
    bank,
    k: int,
    t: int,
    f: int,
    gamma: float = DEFAULT_GAMMA,
    master_seed: int = DEFAULT_MASTER_SEED,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: str | None = None,
) -> tuple[QuasiDictionary, np.ndarray]:
    """Count the solid k-mers of a bank (a path or a list of reads) and index
    them: the dictionary and its count table (uint8, saturated at
    COUNT_SATURATION), the pair load_index returns. Both are filled in the
    MPHF build's one pass, and the solid set is dropped before this returns."""
    solid = count_solid_kmers(bank, k, t, memory_budget=memory_budget, tmp_dir=tmp_dir)
    counts = np.zeros(solid.n, dtype=np.uint8)
    qd = QuasiDictionary.create(solid, f, gamma=gamma, master_seed=master_seed, count_table=counts)
    return qd, counts


def load_index(path: str | Path) -> tuple[QuasiDictionary, np.ndarray | None]:
    """Read a file written by QuasiDictionary.save: the dictionary and its
    count table (None if it has none), as read-only views of one buffer.
    Raises IndexFormatError unless the file is exactly what its header says."""
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        if data[:4] == MAGIC[:4]:
            raise IndexFormatError(
                f"unsupported index version {data[:8].decode('latin-1')} "
                f"(this version reads {MAGIC.decode()}); rebuild the index"
            )
        raise IndexFormatError("bad index magic")
    if len(data) < _HEADER.size:
        raise _truncated(len(data), _HEADER.size)
    _, k, t, f, n_keys, gamma, seed, n_levels, n_fallback, flags, digest, checksum = (
        _HEADER.unpack_from(data)
    )
    for ok, problem in (
        (1 <= k <= MAX_K, f"k={k} is outside [1, {MAX_K}]"),
        (1 <= f <= min(2 * k, 62), f"f={f} is outside [1, {min(2 * k, 62)}]"),
        (t >= 1, f"t={t} is below 1"),
        (math.isfinite(gamma) and gamma > 1.0, f"gamma={gamma} is not a finite number above 1"),
        (not flags & ~_FLAG_COUNTS, f"unknown flag bits {flags:#x}"),
    ):
        if not ok:
            raise IndexFormatError(f"corrupt index file: {problem}")

    off = _HEADER.size
    levels = []  # (size, offset of its occupied words, words per bitvector)
    for i in range(n_levels):
        if off + _LEVEL_SIZE.size > len(data):
            raise _truncated(len(data), off + _LEVEL_SIZE.size)
        (size,) = _LEVEL_SIZE.unpack_from(data, off)
        if size < 1:
            raise IndexFormatError(f"corrupt index file: MPHF level {i} has no slots")
        n_words = (size + WORD_BITS - 1) // WORD_BITS
        levels.append((size, off + _LEVEL_SIZE.size, n_words))
        off += _LEVEL_SIZE.size + 16 * n_words
    n_fp_words = PackedArray.n_words(n_keys, f)
    counts_at = off + 8 * (n_fallback + n_fp_words)
    end = counts_at + (n_keys if flags & _FLAG_COUNTS else 0)
    if end > len(data):
        raise _truncated(len(data), end)
    if end < len(data):
        raise IndexFormatError(f"corrupt index file: {len(data) - end} bytes after the last section")

    words = partial(np.frombuffer, data, U64)  # words(count, offset)
    fallback = words(n_fallback, off)
    if (fallback[1:] <= fallback[:-1]).any():
        raise IndexFormatError("corrupt index file: MPHF fallback keys are not strictly ascending")
    mphf = Mphf(
        gamma, seed, [(size, words(n, at), words(n, at + 8 * n)) for size, at, n in levels], fallback
    )
    if mphf.n_keys != n_keys:
        raise IndexFormatError(f"corrupt index file: {n_keys} keys in the header, {mphf.n_keys} in the MPHF")
    view = memoryview(data)
    actual = blake2b(view[:_CHECKSUM_AT], digest_size=16)
    actual.update(view[_HEADER.size :])
    if actual.digest() != checksum:
        raise IndexFormatError("corrupt index file: checksum mismatch")
    fingerprints = PackedArray(n_keys, f, words(n_fp_words, off + 8 * n_fallback))
    counts = np.frombuffer(data, np.uint8, n_keys, counts_at) if flags & _FLAG_COUNTS else None
    return QuasiDictionary(k, t, f, mphf, fingerprints, digest), counts


def _truncated(size: int, need: int) -> IndexFormatError:
    return IndexFormatError(f"truncated index file: {size} bytes of at least {need}")
