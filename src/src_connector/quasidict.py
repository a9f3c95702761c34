"""Probabilistic dictionary over canonical k-mer codes.

An MPHF assigns each indexed k-mer a slot in [0, N-1]; an f-bit fingerprint
stored at the slot rejects most alien k-mers that the MPHF fails to catch.
Indexed k-mers always resolve to their own slot (no false negatives); an
alien slips through with probability about 1/2^f times the MPHF accept rate.

With f = 2k the fingerprint is the raw code itself, which is injective, so
false positives are impossible (exact mode).
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitpack import PackedArray
from .kmers import DEFAULT_MEMORY_BUDGET, SolidKmerSet, count_solid_kmers
from .mphf import DEFAULT_GAMMA, DEFAULT_MASTER_SEED, Mphf

U64 = np.uint64

NOT_INDEXED = -1
MAGIC = b"QDIX0001"

_MASK64 = (1 << 64) - 1

_FLAG_COUNTS = 1  # index file carries the per-slot count table


class IndexFormatError(Exception):
    pass


def _xorshift64(x: int) -> int:
    x &= _MASK64
    x ^= (x << 13) & _MASK64
    x ^= x >> 7
    x ^= (x << 17) & _MASK64
    return x


def fingerprint(code: int, f: int) -> int:
    """Low f bits of the xorshift64 (13, 7, 17) mix of a code.

    Quirk: fingerprint(0, f) == 0 since xorshift fixes 0.
    """
    if not 1 <= f <= 62:
        raise ValueError(f"f must be in [1, 62], got {f}")
    return _xorshift64(code) & ((1 << f) - 1)


def fingerprint_batch(codes: np.ndarray, f: int) -> np.ndarray:
    x = codes.astype(U64, copy=True)
    x ^= x << U64(13)
    x ^= x >> U64(7)
    x ^= x << U64(17)
    return x & U64((1 << f) - 1)


@dataclass
class QueryResult:
    index: int  # slot in [0, N-1], or NOT_INDEXED


class QuasiDictionary:
    """Immutable after construction; safe for concurrent queries."""

    def __init__(self, k: int, f: int, mphf: Mphf, fingerprints: PackedArray):
        self.k = k
        self.f = f
        self.mphf = mphf
        self.fingerprints = fingerprints
        self.n_keys = mphf.n_keys
        self.exact = f == 2 * k

    def _fingerprints_of(self, codes: np.ndarray) -> np.ndarray:
        if self.exact:
            return codes.astype(U64, copy=False)  # raw code: injective, zero FP
        return fingerprint_batch(codes, self.f)

    @classmethod
    def create(
        cls,
        solid: SolidKmerSet,
        f: int,
        gamma: float = DEFAULT_GAMMA,
        master_seed: int = DEFAULT_MASTER_SEED,
    ) -> "QuasiDictionary":
        if not 1 <= f <= min(2 * solid.k, 62):
            raise ValueError(f"f must be in [1, {min(2 * solid.k, 62)}] for k={solid.k}")
        mphf = Mphf.build(solid.codes, gamma=gamma, master_seed=master_seed)
        qd = cls(solid.k, f, mphf, PackedArray(solid.n, f))
        chunk = 1 << 21  # keys per fill pass, bounds temporary allocations
        for lo in range(0, solid.n, chunk):
            part = solid.codes[lo : lo + chunk]
            idx = mphf.query_batch(part)
            qd.fingerprints.set_many(idx, qd._fingerprints_of(part))
        return qd

    def query_batch(self, codes: np.ndarray) -> np.ndarray:
        """Slot per canonical code, NOT_INDEXED (-1) where rejected."""
        codes = np.asarray(codes, dtype=U64)
        idx = self.mphf.query_batch(codes)
        found = idx >= 0
        if found.any():
            stored = self.fingerprints.get_many(idx[found])
            bad = stored != self._fingerprints_of(codes[found])
            if bad.any():
                reject = np.flatnonzero(found)[bad]
                idx[reject] = NOT_INDEXED
        return idx

    def query(self, code: int) -> QueryResult:
        idx = self.mphf.query(code)
        if idx < 0:
            return QueryResult(NOT_INDEXED)
        if self.exact:
            expect = code
        else:
            expect = fingerprint(code, self.f)
        if self.fingerprints.get(idx) != expect:
            return QueryResult(NOT_INDEXED)
        return QueryResult(idx)

    @property
    def payload_bits(self) -> int:
        return self.fingerprints.payload_bits

    def size_bits(self) -> int:
        return self.mphf.size_bits() + 64 * len(self.fingerprints.words)

    # ---- persistence -------------------------------------------------

    def to_bytes(self, counts: np.ndarray | None = None) -> bytes:
        flags = _FLAG_COUNTS if counts is not None else 0
        blob = self.mphf.serialize()
        parts = [
            MAGIC,
            struct.pack(
                "<IIQdQB",
                self.k,
                self.f,
                self.n_keys,
                self.mphf.gamma,
                self.mphf.master_seed,
                flags,
            ),
            struct.pack("<Q", len(blob)),
            blob,
            struct.pack("<Q", len(self.fingerprints.words)),
            self.fingerprints.words.tobytes(),
        ]
        if counts is not None:
            if len(counts) != self.n_keys or counts.dtype != np.uint8:
                raise ValueError("count table must be n_keys uint8 entries")
            parts.append(counts.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["QuasiDictionary", np.ndarray | None]:
        try:
            if data[:8] != MAGIC:
                raise IndexFormatError("bad index magic")
            off = 8
            k, f, n_keys, _gamma, _seed, flags = struct.unpack_from("<IIQdQB", data, off)
            off += struct.calcsize("<IIQdQB")
            (blob_len,) = struct.unpack_from("<Q", data, off)
            off += 8
            mphf = Mphf.deserialize(data[off : off + blob_len])
            off += blob_len
            (n_words,) = struct.unpack_from("<Q", data, off)
            off += 8
            words = np.frombuffer(data, dtype=U64, count=n_words, offset=off).copy()
            off += 8 * n_words
            counts = None
            if flags & _FLAG_COUNTS:
                counts = np.frombuffer(data, dtype=np.uint8, count=n_keys, offset=off).copy()
                off += n_keys
        except (struct.error, ValueError) as exc:
            raise IndexFormatError(f"corrupt index file: {exc}") from exc
        if off != len(data):
            raise IndexFormatError(
                f"corrupt index file: {len(data) - off} bytes after the last section"
            )
        if mphf.n_keys != n_keys:
            raise IndexFormatError("index header disagrees with embedded MPHF")
        qd = cls(k, f, mphf, PackedArray(n_keys, f, words))
        return qd, counts

    def save(self, path: str | Path, counts: np.ndarray | None = None) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes(counts))


def build_bank_index(
    bank,
    k: int,
    t: int,
    f: int,
    gamma: float = DEFAULT_GAMMA,
    master_seed: int = DEFAULT_MASTER_SEED,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    tmp_dir: str | None = None,
) -> tuple[QuasiDictionary, SolidKmerSet]:
    """Count the solid k-mers of a bank (path or iterable of reads) and index them.

    The solid set comes back for callers that build a count table from it;
    others should drop it before building anything large.
    """
    solid = count_solid_kmers(bank, k, t, memory_budget=memory_budget, tmp_dir=tmp_dir)
    return QuasiDictionary.create(solid, f, gamma=gamma, master_seed=master_seed), solid


def load_index(path: str | Path) -> tuple[QuasiDictionary, np.ndarray | None]:
    with open(path, "rb") as fh:
        return QuasiDictionary.from_bytes(fh.read())
