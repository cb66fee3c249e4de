"""A 6T SRAM array with bit-line compute (Section III).

The array supports the two vanilla operations (read / write) plus the
dual-wordline *bit-line compute* read: asserting two wordlines at once with
the sense amplifiers reconfigured to single-ended mode yields, per column,

* ``BL``  senses ``a AND b`` (both cells must pull the bit-line high), and
* ``BLB`` senses ``(NOT a) AND (NOT b)`` = ``a NOR b``.

Inverting these gives ``nand`` and ``or``, so one access produces all four
bit-wise logical operations, exactly as in Jeloka et al. and VRAM.

Each wordline is held as one word (:mod:`repro.sram.words`): the
``*_word`` / ``*_words`` methods are the datapath, and the numpy methods
convert at the host boundary around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import SramError
from .words import pack, unpack


@dataclass(frozen=True)
class BitLineResult:
    """Per-column outcome of one bit-line compute operation."""

    and_: np.ndarray
    nand: np.ndarray
    or_: np.ndarray
    nor: np.ndarray

    @property
    def width(self) -> int:
        return len(self.and_)


class SramArray:
    """A rows x cols array of bit cells storing 0/1 values."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise SramError(f"invalid geometry {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.full = (1 << cols) - 1
        #: One word per wordline, bit ``c`` = column ``c``.
        self.words = [0] * rows

    # -- bounds helpers ---------------------------------------------------

    def _check_row(self, row: int) -> int:
        if not 0 <= row < self.rows:
            raise SramError(f"row {row} out of range 0..{self.rows - 1}")
        return row

    # -- word datapath ------------------------------------------------------

    def read_word(self, row: int) -> int:
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

    def bitline_words(self, row_a: int, row_b: int) -> Tuple[int, int]:
        """Dual-wordline read: the ``(BL, BLB)`` words ``a AND b`` and
        ``a NOR b``."""
        a = self.words[self._check_row(row_a)]
        b = self.words[self._check_row(row_b)]
        return a & b, self.full ^ (a | b)

    # -- vanilla operations (host boundary) ----------------------------------

    def read(self, row: int) -> np.ndarray:
        """Differential read of one wordline; returns a copy of the row."""
        return unpack(self.read_word(row), self.cols)

    def write(self, row: int, bits: np.ndarray, col_enable: np.ndarray | None = None) -> None:
        """Write ``bits`` into ``row``; ``col_enable`` masks columns."""
        self._check_row(row)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.cols,):
            raise SramError(
                f"write width {bits.shape} does not match {self.cols} columns")
        if np.any(bits > 1):
            raise SramError("write data must be 0/1")
        enable = None
        if col_enable is not None:
            enable_bits = np.asarray(col_enable, dtype=bool)
            if enable_bits.shape != (self.cols,):
                raise SramError("column-enable width mismatch")
            enable = pack(enable_bits)
        self.write_word(row, pack(bits), enable)

    def flip(self, row: int, col: int) -> None:
        """Invert one stored bit in place (the fault-injection surface:
        a transient upset of a single cell, bypassing the write drivers)."""
        self._check_row(row)
        if not 0 <= col < self.cols:
            raise SramError(f"column {col} out of range 0..{self.cols - 1}")
        self.words[row] ^= 1 << col

    # -- bit-line compute -----------------------------------------------------

    def bitline_compute(self, row_a: int, row_b: int) -> BitLineResult:
        """Dual-wordline single-ended read computing AND/NAND/OR/NOR.

        ``row_a`` and ``row_b`` may be equal (a self-compute simply senses
        the row itself, a trick micro-programs use to copy a row into the
        peripheral circuits).
        """
        and_, nor = self.bitline_words(row_a, row_b)
        full, cols = self.full, self.cols
        return BitLineResult(and_=unpack(and_, cols),
                             nand=unpack(full ^ and_, cols),
                             or_=unpack(full ^ nor, cols),
                             nor=unpack(nor, cols))

    # -- whole-array helpers used by the engine / tests -------------------------

    def snapshot(self) -> np.ndarray:
        nbytes = (self.cols + 7) // 8
        raw = np.frombuffer(b"".join(word.to_bytes(nbytes, "little")
                                     for word in self.words), dtype=np.uint8)
        return np.unpackbits(raw.reshape(self.rows, nbytes), axis=1,
                             count=self.cols, bitorder="little")

    def load(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.rows, self.cols):
            raise SramError("load shape mismatch")
        if np.any(data > 1):
            raise SramError("load data must be 0/1")
        packed = np.packbits(data, axis=1, bitorder="little")
        self.words = [int.from_bytes(row.tobytes(), "little") for row in packed]

    def clear(self) -> None:
        self.words = [0] * self.rows
