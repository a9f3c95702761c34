"""Seeded synthetic shotgun read sets, generated with numpy.

Reads are 100 bp windows of a uniform random genome, taken from either
strand with 1% substitutions, written as FASTA with fixed-width headers so
the whole file is one (n, stride) byte array. The same seed gives
byte-identical files.
"""

from dataclasses import dataclass

import numpy as np

READ_LEN = 100
ERROR_RATE = 0.01
_ASCII = np.frombuffer(b"ACGT", dtype=np.uint8)
_ID_DIGITS = 8


@dataclass
class ReadSet:
    """Reads as 2-bit base values, one row per read."""

    bases: np.ndarray  # uint8 (n, READ_LEN), values 0..3
    alien: np.ndarray  # bool (n,), True for reads not drawn from the genome

    def __len__(self) -> int:
        return len(self.bases)


def random_genome(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.integers(0, 4, length, dtype=np.uint8)


def shotgun_reads(rng: np.random.Generator, genome: np.ndarray, n: int) -> ReadSet:
    """n reads from uniform positions on either strand, with substitutions."""
    starts = rng.integers(0, len(genome) - READ_LEN + 1, n)
    bases = genome[starts[:, None] + np.arange(READ_LEN)]
    reverse = rng.random(n) < 0.5
    bases[reverse] = 3 - bases[reverse, ::-1]
    errors = rng.random(bases.shape) < ERROR_RATE
    # a substitution always changes the base: add 1..3 modulo 4
    bases[errors] = (bases[errors] + rng.integers(1, 4, int(errors.sum()), dtype=np.uint8)) % 4
    return ReadSet(bases, np.zeros(n, dtype=bool))


def alien_reads(rng: np.random.Generator, n: int) -> ReadSet:
    return ReadSet(
        rng.integers(0, 4, (n, READ_LEN), dtype=np.uint8), np.ones(n, dtype=bool)
    )


def shuffled_union(rng: np.random.Generator, a: ReadSet, b: ReadSet) -> ReadSet:
    order = rng.permutation(len(a) + len(b))
    return ReadSet(
        np.concatenate([a.bases, b.bases])[order],
        np.concatenate([a.alien, b.alien])[order],
    )


def fasta_bytes(reads: ReadSet) -> bytes:
    """'>r<8-digit id>' header line and one sequence line per read."""
    n = len(reads)
    if n >= 10**_ID_DIGITS:
        raise ValueError(f"at most {10**_ID_DIGITS - 1} reads per file")
    head = 2 + _ID_DIGITS + 1
    rows = np.empty((n, head + READ_LEN + 1), dtype=np.uint8)
    rows[:, 0] = ord(">")
    rows[:, 1] = ord("r")
    ids = np.arange(n)
    for d in range(_ID_DIGITS):
        rows[:, 2 + d] = ord("0") + ids // 10 ** (_ID_DIGITS - 1 - d) % 10
    rows[:, head - 1] = ord("\n")
    rows[:, head : head + READ_LEN] = _ASCII[reads.bases]
    rows[:, -1] = ord("\n")
    return rows.tobytes()


def write_fasta(path, reads: ReadSet) -> int:
    data = fasta_bytes(reads)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
