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


KEY_CHUNK = 1 << 20  # keys per pass of a build or fill loop; bounds its temporaries

RANK_BLOCK_WORDS = 8  # 512-bit rank blocks
_SUB_BITS = 9  # in-block prefix count field; at most 7 * 64 = 448 set bits
_SUB_MASK = (1 << _SUB_BITS) - 1
_SUB_SHIFTS = np.arange(RANK_BLOCK_WORDS - 1, dtype=U64) * U64(_SUB_BITS)


def build_rank_blocks(words: np.ndarray) -> np.ndarray:
    """Rank9 directory of a bitvector: one (2,) uint64 row per 512-bit block.

    Row b holds the set bits before block b, then the set bits before each of
    the block's words 1..7 in 9-bit fields (word j's field at bit 9 * (j - 1)).
    """
    n_blocks = (len(words) + RANK_BLOCK_WORDS - 1) // RANK_BLOCK_WORDS
    padded = np.zeros(n_blocks * RANK_BLOCK_WORDS, dtype=U64)
    padded[: len(words)] = words
    within = np.cumsum(popcount(padded).reshape(n_blocks, RANK_BLOCK_WORDS), axis=1, dtype=U64)
    directory = np.zeros((n_blocks, 2), dtype=U64)
    np.cumsum(within[:-1, -1], out=directory[1:, 0])
    directory[:, 1] = (within[:, :-1] << _SUB_SHIFTS).sum(axis=1, dtype=U64)
    return directory


def rank1(words: np.ndarray, directory: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Number of set bits strictly before each position (position bits must exist)."""
    pos = positions.astype(np.int64, copy=False)
    word = pos >> 6
    # np.take gathers rows several times faster than fancy indexing; bit 63 of
    # a directory word is never set, so the int64 view is exact
    block = np.take(directory, word >> 3, axis=0).view(np.int64)
    shift = ((word - 1) & (RANK_BLOCK_WORDS - 1)) * _SUB_BITS  # word 0: 63, past every field
    sub = (block[:, 1] >> shift) & _SUB_MASK
    partial = np.take(words, word) & ((_ONE << (pos & 63).astype(U64)) - _ONE)
    return block[:, 0] + sub + popcount(partial)


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

    def set_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Write values at indices; the touched slots must still be zero."""
        width = U64(self.width)
        bitpos = indices.astype(np.uint64, copy=False) * width
        word = (bitpos >> U64(6)).astype(np.int64)
        off = bitpos & _WORD_MASK
        vals = values.astype(np.uint64, copy=False) & self._mask
        # the fields are disjoint and their bits zero, so adding them is or-ing them
        np.add.at(self.words, word, vals << off)
        spill = off > U64(0)
        hi = np.where(spill, vals >> ((U64(64) - off) & _WORD_MASK), U64(0))
        np.add.at(self.words, word + 1, hi)

    def get_many(self, indices: np.ndarray) -> np.ndarray:
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
