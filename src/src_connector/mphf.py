"""Minimal perfect hash over a static set of 64-bit keys.

Construction cascades bit levels: at each level every remaining key hashes to
a slot; slots hit exactly once are marked occupied and their key is settled,
slots hit more than once are marked collided and their keys move down a level.
Survivors after MAX_LEVELS levels land in a small exact fallback: their
keys, ascending, looked up by binary search.

A settled key's index is its level's offset (the keys settled by earlier
levels) plus the rank of its slot among the level's occupied slots, as in
BBHash; fallback key j has index n_keys - len(fallback) + j. The build
reports each key's index as its level settles it, so a caller fills what it
keeps per key without querying the MPHF again.

A query walks the levels: occupied slot -> rank gives the index, collided
slot -> try the next level, empty slot -> NOT_FOUND. Keys outside the build
set therefore get rejected whenever they probe an empty slot, which at
gamma=2 happens for well over half of them.
"""

import math
from dataclasses import dataclass
from typing import Callable

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

    def probe(self, keys: np.ndarray, bufs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where in keys a key hits an occupied slot, the index that slot
        gives it, and where a key hits a collided slot, so goes on to the
        next level; all int64. bufs is (2, >= len(keys)) uint64 scratch."""
        n = len(keys)
        pos = slot_hash(keys, self.seed, self.size, bufs[0, :n], bufs[1, :n])
        word = np.right_shift(pos, 6, out=bufs[1, :n].view(np.int64))
        pos &= 63
        mask = np.left_shift(1, pos, out=pos)  # bit 63's mask is negative
        occupied = np.take(self.occupied.view(np.int64), word)
        occupied &= mask
        hit = np.flatnonzero(occupied != 0)  # about 5x faster on bools than on int64
        index = rank1(self.occupied, self.rank_directory, np.take(word, hit), np.take(mask, hit))
        index += self.index_offset
        # a slot is occupied or collided, never both
        collided = np.take(self.collided.view(np.int64), word)
        collided &= mask
        return hit, index, np.flatnonzero(collided != 0)


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
        self.n_keys = 0  # while levels are added: the keys they settle
        for size, occupied, collided in level_bits:
            self._add_level(size, occupied, collided)
        self.fallback = fallback_keys
        self.n_keys += len(fallback_keys)

    def _add_level(self, size: int, occupied: np.ndarray, collided: np.ndarray) -> _Level:
        level = _Level(
            size, level_seed(self.master_seed, len(self.levels)), occupied, collided,
            build_rank_blocks(occupied), self.n_keys,
        )
        self.levels.append(level)
        self.n_keys += int(popcount(occupied).sum())
        return level

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        gamma: float = DEFAULT_GAMMA,
        master_seed: int = DEFAULT_MASTER_SEED,
        settle: Callable[[np.ndarray, np.ndarray], None] | None = None,
    ) -> "Mphf":
        """The MPHF of keys, which must be strictly ascending. With settle,
        each key is reported once, as its level settles it: settle(at, index)
        gets the positions in keys of settled keys and the indices
        query_batch gives them, a level's keys up to KEY_CHUNK at a time and
        the fallback keys all at once, at the end.

        Each level walks its keys KEY_CHUNK at a time, twice: once to count
        the keys per slot (uint16) for its bitvectors, then to settle the
        keys on occupied slots and keep the positions of the others, uint32
        below 2^32 keys, for the next level. Level 0's keys are slices of
        keys, so no array with an entry per key is made."""
        if not (math.isfinite(gamma) and gamma > 1.0):
            raise ValueError(f"gamma must be a finite number > 1, got {gamma}")
        keys = np.asarray(keys, dtype=U64)
        if (keys[1:] <= keys[:-1]).any():
            raise MphfError("MPHF keys must be strictly ascending (sorted, no duplicates)")

        mphf = cls(gamma, master_seed, [], keys[:0])
        left = None  # positions of the keys no level has settled yet; None: all of keys
        position_type = np.uint32 if len(keys) < 1 << 32 else np.int64
        bufs = np.empty((2, min(len(keys), KEY_CHUNK)), dtype=U64)
        while len(mphf.levels) < MAX_LEVELS:
            n_left = len(keys) if left is None else len(left)
            if n_left == 0:
                break
            size = max(math.ceil(gamma * n_left), 1)
            seed = level_seed(master_seed, len(mphf.levels))
            counts = np.zeros(size, dtype=np.uint16)
            for part, _, _ in _chunks(keys, left):
                pos = slot_hash(part, seed, size, bufs[0, : len(part)], bufs[1, : len(part)])
                np.add.at(counts, pos, np.uint16(1))  # a Python 1 misses add.at's fast path
            settled = mphf.n_keys
            level = mphf._add_level(size, bits_from_bool(counts == 1), bits_from_bool(counts > 1))
            del counts

            survivors = np.empty(n_left - (mphf.n_keys - settled), dtype=position_type)
            end = 0
            for part, offset, at in _chunks(keys, left):
                hit, index, cont = level.probe(part, bufs)
                if at is None:
                    hit += offset
                    cont += offset
                else:
                    hit, cont = np.take(at, hit), np.take(at, cont)
                if settle is not None:
                    settle(hit, index)
                survivors[end : end + len(cont)] = cont
                end += len(cont)
            left = survivors

        if left is None:  # no level was built
            left = np.arange(len(keys))
        mphf.fallback = np.take(keys, left)  # ascending, since left is
        if settle is not None and len(left):
            settle(left, np.arange(mphf.n_keys, mphf.n_keys + len(left)))
        mphf.n_keys += len(left)
        return mphf

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
            if len(keys) == 0:
                return
            hit, index, cont = level.probe(keys, bufs)
            res[hit if at is None else np.take(at, hit)] = index
            keys = np.take(keys, cont)
            at = cont if at is None else np.take(at, cont)
        if len(self.fallback):
            j = np.searchsorted(self.fallback, keys)
            hit = np.flatnonzero(np.take(self.fallback, j, mode="clip") == keys)
            res[hit if at is None else np.take(at, hit)] = self.n_keys - len(self.fallback) + j[hit]

    def size_bits(self) -> int:
        return sum(level.bits() for level in self.levels) + 64 * len(self.fallback)


def _chunks(keys: np.ndarray, left: np.ndarray | None):
    """(keys, offset, positions) per KEY_CHUNK of the keys at positions left,
    or of all keys if left is None: those are slices at an offset, with no
    positions, the others are gathered."""
    for lo in range(0, len(keys) if left is None else len(left), KEY_CHUNK):
        if left is None:
            yield keys[lo : lo + KEY_CHUNK], lo, None
        else:
            at = left[lo : lo + KEY_CHUNK]
            yield np.take(keys, at), 0, at

