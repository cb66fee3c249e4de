"""A 6T SRAM array with bit-line compute (Section III).

The array supports the two vanilla operations (read / write) plus the
dual-wordline *bit-line compute* read: asserting two wordlines at once with
the sense amplifiers reconfigured to single-ended mode yields, per column,

* ``BL``  senses ``a AND b`` (both cells must pull the bit-line high), and
* ``BLB`` senses ``(NOT a) AND (NOT b)`` = ``a NOR b``.

Inverting these gives ``nand`` and ``or``, so one access produces all four
bit-wise logical operations, exactly as in Jeloka et al. and VRAM.

Each wordline is held as one word (:mod:`repro.sram.words`), bit ``c``
holding column ``c``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import SramError


class SramArray:
    """A rows x cols array of bit cells, one word per wordline."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise SramError(f"invalid geometry {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.full = (1 << cols) - 1
        #: One word per wordline, bit ``c`` = column ``c``.
        self.words = [0] * rows

    def _check_row(self, row: int) -> int:
        if not 0 <= row < self.rows:
            raise SramError(f"row {row} out of range 0..{self.rows - 1}")
        return row

    # -- vanilla operations -------------------------------------------------

    def read_word(self, row: int) -> int:
        """Differential read of one wordline."""
        return self.words[self._check_row(row)]

    def write_word(self, row: int, word: int,
                   enable: Optional[int] = None) -> None:
        """Write ``word`` into ``row``; set bits of ``enable`` pick the
        columns whose write drivers fire (all of them when ``None``)."""
        self._check_row(row)
        if enable is None:
            self.words[row] = word
        else:
            old = self.words[row]
            self.words[row] = old ^ ((old ^ word) & enable)

    def flip(self, row: int, col: int) -> None:
        """Invert one stored bit in place (the fault-injection surface:
        a transient upset of a single cell, bypassing the write drivers)."""
        self._check_row(row)
        if not 0 <= col < self.cols:
            raise SramError(f"column {col} out of range 0..{self.cols - 1}")
        self.words[row] ^= 1 << col

    # -- bit-line compute -----------------------------------------------------

    def bitline_words(self, row_a: int, row_b: int) -> Tuple[int, int]:
        """Dual-wordline single-ended read: the ``(BL, BLB)`` words
        ``a AND b`` and ``a NOR b``; their inverses are ``nand`` / ``or``.

        ``row_a`` and ``row_b`` may be equal (a self-compute simply senses
        the row itself, a trick micro-programs use to copy a row into the
        peripheral circuits).
        """
        a = self.words[self._check_row(row_a)]
        b = self.words[self._check_row(row_b)]
        return a & b, self.full ^ (a | b)

    def clear(self) -> None:
        self.words = [0] * self.rows
