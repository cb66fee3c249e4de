"""Word-packed bit rows: the representation the bit-exact datapath runs on.

Every wordline, latch row and data-in pattern is one Python int with bit
``c`` holding column ``c``.  A circuit layer then acts on every column
group of a row at once through a few masks, shifts and adds on whole
words — the software form of composing narrow bit-level lanes into one
wide operation.  A per-group flag (a carry, a shift condition, a link
bit) sits at its group's LSB column.

Element values enter and leave the model only through
:func:`segment_words` / :func:`segment_values`, which transpose a whole
vector register between elements and S-CIM segment rows in one pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from ..errors import SramError


class Lanes:
    """Lane masks of a ``cols``-column row split into ``factor``-bit groups.

    ``full`` covers every column, ``lsb`` / ``msb`` each group's lowest /
    highest column, and ``low = full ^ msb`` the columns whose carries
    stay inside their group.
    """

    __slots__ = ("cols", "factor", "full", "lsb", "msb", "low")

    def __init__(self, cols: int, factor: int) -> None:
        if factor <= 0 or cols % factor:
            raise SramError(f"{cols} columns not divisible by factor {factor}")
        self.cols = cols
        self.factor = factor
        self.full = (1 << cols) - 1
        # (2^(groups*n) - 1) / (2^n - 1) = sum of 2^(k*n): one bit per group.
        self.lsb = self.full // ((1 << factor) - 1)
        self.msb = self.lsb << (factor - 1)
        self.low = self.full ^ self.msb

    def spread(self, flags: int) -> int:
        """Replicate each group's LSB flag across the whole group."""
        return (flags << self.factor) - flags


@lru_cache(maxsize=None)
def lane_masks(cols: int, factor: int) -> Lanes:
    """The shared :class:`Lanes` of one (cols, factor) geometry."""
    return Lanes(cols, factor)


def segment_words(values: np.ndarray, factor: int,
                  element_bits: int) -> List[int]:
    """Transpose elements into segment rows, one word per segment.

    Word ``s`` holds bits ``s*factor .. s*factor + factor - 1`` of element
    ``e`` at columns ``e*factor ..`` (the S-CIM layout of Figure 1).
    """
    values = np.asarray(values, dtype=np.int64)
    count = len(values)
    segments = element_bits // factor
    unsigned = values & ((1 << element_bits) - 1)
    bits = ((unsigned[:, None] >> np.arange(element_bits)) & 1).astype(np.uint8)
    planes = (bits.reshape(count, segments, factor).transpose(1, 0, 2)
              .reshape(segments, count * factor))
    packed = np.packbits(planes, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def segment_values(words: Sequence[int], count: int, factor: int,
                   element_bits: int) -> np.ndarray:
    """Inverse of :func:`segment_words`: the first ``count`` elements
    held in ``words`` (one per segment), as signed int64."""
    segments = element_bits // factor
    width = count * factor
    nbytes = (width + 7) // 8
    keep = (1 << width) - 1
    raw = np.frombuffer(b"".join((word & keep).to_bytes(nbytes, "little")
                                 for word in words), dtype=np.uint8)
    planes = np.unpackbits(raw.reshape(segments, nbytes), axis=1,
                           count=width, bitorder="little")
    bits = (planes.reshape(segments, count, factor).transpose(1, 0, 2)
            .reshape(count, element_bits).astype(np.int64))
    result = (bits << np.arange(element_bits)).sum(axis=1)
    sign = 1 << (element_bits - 1)
    return (result ^ sign) - sign
