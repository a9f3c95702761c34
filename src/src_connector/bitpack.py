"""Bit-level helpers: popcounts, plain bitvectors and packed fixed-width arrays.

Everything operates on numpy uint64 word arrays so the big structures stay
vectorized end to end.
"""

import numpy as np

WORD_BITS = 64
U64 = np.uint64

_ONE = U64(1)
_WORD_MASK = U64(63)


def popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words)


def bits_from_bool(mask: np.ndarray) -> np.ndarray:
    """Bitvector words from a dense boolean mask (bit i = mask[i])."""
    packed = np.packbits(mask, bitorder="little")
    buf = np.zeros(((len(packed) + 7) // 8) * 8, dtype=np.uint8)
    buf[: len(packed)] = packed
    return buf.view(U64)


def get_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Boolean array: bit value at each position."""
    pos = positions.astype(np.uint64, copy=False)
    w = words[(pos >> U64(6)).astype(np.int64)]
    return ((w >> (pos & _WORD_MASK)) & _ONE).astype(bool)


RANK_BLOCK_WORDS = 8  # 512-bit rank blocks
RANK_BLOCK_BITS = RANK_BLOCK_WORDS * WORD_BITS


def build_rank_blocks(words: np.ndarray) -> np.ndarray:
    """Exclusive cumulative popcount per 512-bit block of a bitvector."""
    n_blocks = (len(words) + RANK_BLOCK_WORDS - 1) // RANK_BLOCK_WORDS
    padded = np.zeros(n_blocks * RANK_BLOCK_WORDS, dtype=U64)
    padded[: len(words)] = words
    per_block = popcount(padded).reshape(n_blocks, RANK_BLOCK_WORDS).sum(axis=1, dtype=np.uint64)
    blocks = np.zeros(n_blocks, dtype=U64)
    np.cumsum(per_block[:-1], out=blocks[1:])
    return blocks


_RANK_CHUNK = 1 << 17  # positions per pass; keeps the (n, 8) gathers small


def rank1(words: np.ndarray, blocks: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Number of set bits strictly before each position (position bits must exist)."""
    if len(positions) > _RANK_CHUNK:
        out = np.empty(len(positions), dtype=np.int64)
        for lo in range(0, len(positions), _RANK_CHUNK):
            out[lo : lo + _RANK_CHUNK] = _rank1_dense(
                words, blocks, positions[lo : lo + _RANK_CHUNK]
            )
        return out
    return _rank1_dense(words, blocks, positions)


def _rank1_dense(words: np.ndarray, blocks: np.ndarray, positions: np.ndarray) -> np.ndarray:
    pos = positions.astype(np.int64, copy=False)
    word_idx = pos >> 6
    block_idx = pos >> 9
    out = blocks[block_idx].astype(np.int64)

    # whole words of the block that precede the position's word
    base = block_idx * RANK_BLOCK_WORDS
    gather = base[:, None] + np.arange(RANK_BLOCK_WORDS, dtype=np.int64)
    block_words = np.zeros((len(pos), RANK_BLOCK_WORDS), dtype=U64)
    in_range = gather < len(words)
    block_words[in_range] = words[gather[in_range]]
    counts = popcount(block_words).astype(np.int64)
    before = np.arange(RANK_BLOCK_WORDS, dtype=np.int64)[None, :] < (word_idx - base)[:, None]
    out += np.where(before, counts, 0).sum(axis=1)

    # partial word
    offset = (positions.astype(np.uint64, copy=False)) & _WORD_MASK
    partial = words[word_idx] & ((_ONE << offset) - _ONE)
    out += popcount(partial).astype(np.int64)
    return out


class PackedArray:
    """n fixed-width (<= 62 bit) values packed into a uint64 word array."""

    def __init__(self, n: int, width: int, words: np.ndarray | None = None):
        if not 1 <= width <= 62:
            raise ValueError(f"width must be in [1, 62], got {width}")
        self.n = n
        self.width = width
        n_words = self.n_words(n, width)
        if words is None:
            words = np.zeros(n_words, dtype=U64)
        elif len(words) != n_words:
            raise ValueError("packed payload has the wrong length")
        self.words = words
        self._mask = U64((1 << width) - 1)

    @staticmethod
    def n_words(n: int, width: int) -> int:
        return (n * width + WORD_BITS - 1) // WORD_BITS + 1  # +1 guard word

    @property
    def payload_bits(self) -> int:
        return self.n * self.width

    _CHUNK = 1 << 20  # indices per pass, bounds temporary allocations

    def set_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Write values at indices; the touched slots must still be zero."""
        if len(indices) > self._CHUNK:
            for lo in range(0, len(indices), self._CHUNK):
                self.set_many(indices[lo : lo + self._CHUNK], values[lo : lo + self._CHUNK])
            return
        width = U64(self.width)
        bitpos = indices.astype(np.uint64, copy=False) * width
        word = (bitpos >> U64(6)).astype(np.int64)
        off = bitpos & _WORD_MASK
        vals = values.astype(np.uint64, copy=False) & self._mask
        np.bitwise_or.at(self.words, word, vals << off)
        spill = off > U64(0)
        hi = np.where(spill, vals >> ((U64(64) - off) & _WORD_MASK), U64(0))
        np.bitwise_or.at(self.words, word + 1, hi)

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        if len(indices) > self._CHUNK:
            out = np.empty(len(indices), dtype=U64)
            for lo in range(0, len(indices), self._CHUNK):
                out[lo : lo + self._CHUNK] = self.get_many(indices[lo : lo + self._CHUNK])
            return out
        width = U64(self.width)
        bitpos = indices.astype(np.uint64, copy=False) * width
        word = (bitpos >> U64(6)).astype(np.int64)
        off = bitpos & _WORD_MASK
        lo = self.words[word] >> off
        hi = np.where(
            off > U64(0),
            self.words[word + 1] << ((U64(64) - off) & _WORD_MASK),
            U64(0),
        )
        return (lo | hi) & self._mask
