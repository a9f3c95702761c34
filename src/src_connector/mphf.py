"""Minimal perfect hash over a static set of 64-bit keys.

Construction cascades bit levels: at each level every remaining key hashes to
a slot; slots hit exactly once are marked occupied and their key is settled,
slots hit more than once are marked collided and their keys move down a level.
Survivors after MAX_LEVELS levels land in a small exact fallback map.

A query walks the levels: occupied slot -> rank gives the index, collided
slot -> try the next level, empty slot -> NOT_FOUND. Keys outside the build
set therefore get rejected whenever they probe an empty slot, which at
gamma=2 happens for well over half of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bitpack import KEY_CHUNK, bits_from_bool, build_rank_blocks, get_bits, popcount, rank1

U64 = np.uint64

NOT_FOUND = -1
DEFAULT_GAMMA = 2.0
DEFAULT_MASTER_SEED = 1337
MAX_LEVELS = 32  # levels before the remaining keys go to the fallback map

_MIX_C1 = 0xFF51AFD7ED558CCD
_MIX_C2 = 0xC4CEB9FE1A85EC53
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class MphfError(Exception):
    pass


def mix64(x: int) -> int:
    """64-bit avalanche (murmur3 finalizer) of one integer, for level seeds."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * _MIX_C1) & _MASK64
    x ^= x >> 33
    x = (x * _MIX_C2) & _MASK64
    x ^= x >> 33
    return x


def mix64_batch(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> U64(33)
    x *= U64(_MIX_C1)
    x ^= x >> U64(33)
    x *= U64(_MIX_C2)
    x ^= x >> U64(33)
    return x


def level_seed(master_seed: int, level: int) -> int:
    return mix64((master_seed + (level + 1) * _GOLDEN) & _MASK64)


@dataclass
class _Level:
    size: int  # slots
    seed: int
    occupied: np.ndarray  # bitvector: settled slots
    collided: np.ndarray  # bitvector: slots hit by >= 2 keys
    rank_directory: np.ndarray  # Rank9 directory of occupied
    index_offset: int  # indices assigned by earlier levels

    def bits(self) -> int:
        return 64 * (len(self.occupied) + len(self.collided) + self.rank_directory.size)


class Mphf:
    """Immutable after construction; safe for concurrent queries."""

    def __init__(
        self,
        gamma: float,
        master_seed: int,
        level_bits: list[tuple[int, np.ndarray, np.ndarray]],
        fallback_keys: np.ndarray,
    ):
        """level_bits holds each level's (size, occupied, collided), fallback_keys
        the keys no level settled, in index order. The rest is derived here for
        built and loaded MPHFs alike: level seeds, index offsets (keys settled
        by earlier levels), rank directories and n_keys."""
        self.gamma = gamma
        self.master_seed = master_seed
        self.levels: list[_Level] = []
        offset = 0
        for i, (size, occupied, collided) in enumerate(level_bits):
            self.levels.append(
                _Level(size, level_seed(master_seed, i), occupied, collided,
                       build_rank_blocks(occupied), offset)
            )
            offset += int(popcount(occupied).sum())
        # insertion order is index order, which is the order the keys are saved in
        self.fallback = {key: offset + j for j, key in enumerate(fallback_keys.tolist())}
        self.n_keys = offset + len(self.fallback)

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        gamma: float = DEFAULT_GAMMA,
        master_seed: int = DEFAULT_MASTER_SEED,
    ) -> "Mphf":
        if not (math.isfinite(gamma) and gamma > 1.0):
            raise ValueError(f"gamma must be a finite number > 1, got {gamma}")
        keys = np.asarray(keys, dtype=U64)
        if len(keys) > 1:
            # callers usually pass ascending codes; avoid the sort copy then
            srt = keys if (keys[1:] >= keys[:-1]).all() else np.sort(keys)
            if (srt[1:] == srt[:-1]).any():
                raise MphfError("duplicate keys in MPHF construction set")
            del srt

        level_bits = []
        remaining = keys
        for lvl in range(MAX_LEVELS):
            if len(remaining) == 0:
                break
            size = max(math.ceil(gamma * len(remaining)), 1)
            seed = level_seed(master_seed, lvl)
            counts = np.zeros(size, dtype=np.uint16)
            for lo in range(0, len(remaining), KEY_CHUNK):
                part = remaining[lo : lo + KEY_CHUNK]
                pos = (mix64_batch(part ^ U64(seed)) % U64(size)).astype(np.int64)
                np.add.at(counts, pos, np.uint16(1))  # a Python 1 misses add.at's fast path

            level_bits.append((size, bits_from_bool(counts == 1), bits_from_bool(counts > 1)))

            survivors = []
            for lo in range(0, len(remaining), KEY_CHUNK):
                part = remaining[lo : lo + KEY_CHUNK]
                pos = (mix64_batch(part ^ U64(seed)) % U64(size)).astype(np.int64)
                survivors.append(part[counts[pos] > 1])
            remaining = (
                np.concatenate(survivors) if survivors else np.empty(0, dtype=U64)
            )
            del counts

        return cls(gamma, master_seed, level_bits, remaining)

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Index in [0, n_keys-1] per key, NOT_FOUND (-1) for rejected aliens."""
        keys = np.asarray(keys, dtype=U64)
        res = np.full(len(keys), NOT_FOUND, dtype=np.int64)
        active_idx = np.arange(len(keys), dtype=np.int64)
        active_keys = keys
        for level in self.levels:
            if len(active_idx) == 0:
                return res
            pos = (mix64_batch(active_keys ^ U64(level.seed)) % U64(level.size)).astype(
                np.int64
            )
            hit = get_bits(level.occupied, pos)
            if hit.any():
                res[active_idx[hit]] = level.index_offset + rank1(
                    level.occupied, level.rank_directory, pos[hit]
                )
            cont = ~hit & get_bits(level.collided, pos)
            active_idx = active_idx[cont]
            active_keys = active_keys[cont]
        for i, key in zip(active_idx.tolist(), active_keys.tolist()):
            res[i] = self.fallback.get(key, NOT_FOUND)
        return res

    def size_bits(self) -> int:
        return sum(level.bits() for level in self.levels) + 128 * len(self.fallback)
