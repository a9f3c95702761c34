"""Minimal perfect hash over a static set of 64-bit keys.

Construction cascades bit levels: at each level every remaining key hashes to
a slot; slots hit exactly once are marked occupied and their key is settled,
slots hit more than once are marked collided and their keys move down a level.
Survivors after MAX_LEVELS levels land in a small exact fallback: their
keys, ascending, looked up by binary search.

A query walks the levels: occupied slot -> rank gives the index, collided
slot -> try the next level, empty slot -> NOT_FOUND. Keys outside the build
set therefore get rejected whenever they probe an empty slot, which at
gamma=2 happens for well over half of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bitpack import KEY_CHUNK, bits_from_bool, build_rank_blocks, popcount, rank1

U64 = np.uint64

NOT_FOUND = -1
DEFAULT_GAMMA = 2.0
DEFAULT_MASTER_SEED = 1337
MAX_LEVELS = 32  # levels before the remaining keys go to the fallback

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


def slot_hash(keys: np.ndarray, seed: int, size: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Slot of each key in a level of `size` slots: the 64-bit avalanche of
    key ^ seed, mod size. Computed in place in out (returned as an int64
    view); tmp is scratch of the same length."""
    x = np.bitwise_xor(keys, U64(seed), out=out)
    x ^= np.right_shift(x, U64(33), out=tmp)
    x *= U64(_MIX_C1)
    x ^= np.right_shift(x, U64(33), out=tmp)
    x *= U64(_MIX_C2)
    x ^= np.right_shift(x, U64(33), out=tmp)
    x %= U64(size)
    return x.view(np.int64)


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
        the keys no level settled, ascending: key j has index
        n_keys - len(fallback) + j. The rest is derived here for built and
        loaded MPHFs alike: level seeds, index offsets (keys settled by earlier
        levels), rank directories and n_keys."""
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
        self.fallback = fallback_keys
        self.n_keys = offset + len(fallback_keys)

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
        if (keys[1:] <= keys[:-1]).any():
            raise MphfError("MPHF keys must be strictly ascending (sorted, no duplicates)")

        level_bits = []
        remaining = keys
        h, t = np.empty((2, min(len(keys), KEY_CHUNK)), dtype=U64)  # slot_hash buffers
        for lvl in range(MAX_LEVELS):
            if len(remaining) == 0:
                break
            size = max(math.ceil(gamma * len(remaining)), 1)
            seed = level_seed(master_seed, lvl)
            counts = np.zeros(size, dtype=np.uint16)
            for lo in range(0, len(remaining), KEY_CHUNK):
                part = remaining[lo : lo + KEY_CHUNK]
                pos = slot_hash(part, seed, size, h[: len(part)], t[: len(part)])
                np.add.at(counts, pos, np.uint16(1))  # a Python 1 misses add.at's fast path

            level_bits.append((size, bits_from_bool(counts == 1), bits_from_bool(counts > 1)))

            survivors = []
            for lo in range(0, len(remaining), KEY_CHUNK):
                part = remaining[lo : lo + KEY_CHUNK]
                pos = slot_hash(part, seed, size, h[: len(part)], t[: len(part)])
                survivors.append(part[counts[pos] > 1])
            remaining = (
                np.concatenate(survivors) if survivors else np.empty(0, dtype=U64)
            )
            del counts

        return cls(gamma, master_seed, level_bits, remaining)

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Index in [0, n_keys-1] per key, NOT_FOUND (-1) for rejected aliens.

        Walks the keys in blocks of KEY_CHUNK, so every per-level temporary
        of a block stays in cache."""
        keys = np.asarray(keys, dtype=U64)
        res = np.full(len(keys), NOT_FOUND, dtype=np.int64)
        bufs = np.empty((2, min(len(keys), KEY_CHUNK)), dtype=U64)
        for lo in range(0, len(keys), KEY_CHUNK):
            self._query_block(keys[lo : lo + KEY_CHUNK], res[lo : lo + KEY_CHUNK], bufs)
        return res

    def _query_block(self, keys: np.ndarray, res: np.ndarray, bufs: np.ndarray) -> None:
        """Fill res (a view) with the index of each key in keys."""
        at = None  # where the active keys sit in the block; None: everywhere
        for level in self.levels:
            n = len(keys)
            if n == 0:
                return
            pos = slot_hash(keys, level.seed, level.size, bufs[0, :n], bufs[1, :n])
            word = np.right_shift(pos, 6, out=bufs[1, :n].view(np.int64))
            pos &= 63
            mask = np.left_shift(1, pos, out=pos)  # bit 63's mask is negative
            occupied = np.take(level.occupied.view(np.int64), word)
            occupied &= mask
            hit = np.flatnonzero(occupied != 0)  # about 5x faster on bools than on int64
            if len(hit):
                rank = rank1(
                    level.occupied, level.rank_directory, np.take(word, hit), np.take(mask, hit)
                )
                rank += level.index_offset
                res[hit if at is None else np.take(at, hit)] = rank
            # a slot is occupied or collided, never both
            collided = np.take(level.collided.view(np.int64), word)
            collided &= mask
            cont = np.flatnonzero(collided != 0)
            keys = np.take(keys, cont)
            at = cont if at is None else np.take(at, cont)
        if len(self.fallback):
            j = np.searchsorted(self.fallback, keys)
            hit = np.flatnonzero(np.take(self.fallback, j, mode="clip") == keys)
            res[hit if at is None else np.take(at, hit)] = self.n_keys - len(self.fallback) + j[hit]

    def size_bits(self) -> int:
        return sum(level.bits() for level in self.levels) + 64 * len(self.fallback)
