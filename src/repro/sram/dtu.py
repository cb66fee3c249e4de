"""Functional model of a data-transpose unit (DTU, Section V / VII-B).

A DTU sits between the VMU and the EVE SRAMs.  On a load it takes one
cache line (sixteen 32-bit elements in normal memory layout) and scatters
its bits into the S-CIM layout: bit ``b`` of element ``e`` lands in column
``(e * n + b mod n)`` of segment row ``b div n``.  On a store it gathers
the bits back.  Each line therefore touches every segment row once, using
partial-row (column-enabled) writes — which is why the timing model
charges ``segments`` cycles per line, and why bit-parallel EVE-32 (whose
segment rows *are* the memory layout) needs no transpose at all.

This model performs the real bit reshuffling against the bit-level
:class:`~repro.sram.EveSram`; tests prove a line-by-line DTU load is
exactly equivalent to the whole-register host transpose.
"""

from __future__ import annotations

import numpy as np

from ..errors import SramError
from .eve_sram import EveSram
from .layout import RegisterLayout
from .words import segment_values, segment_words

#: 32-bit elements per 64-byte cache line.
ELEMENTS_PER_LINE = 16


class DataTransposeUnit:
    """Transposes cache lines into (and out of) the S-CIM bit layout."""

    def __init__(self, layout: RegisterLayout) -> None:
        if layout.groups_per_element != 1:
            raise SramError(
                "DTU model requires a single-group register layout")
        self.layout = layout

    # -- load path: memory line -> bit planes -------------------------------

    def load_line(self, sram: EveSram, vreg: int, first_element: int,
                  values: np.ndarray) -> int:
        """Write one line's elements into ``vreg`` starting at
        ``first_element``; returns the number of row writes performed."""
        layout = self.layout
        values = np.asarray(values, dtype=np.int64)
        count = len(values)
        if count > ELEMENTS_PER_LINE:
            raise SramError("a line holds at most 16 32-bit elements")
        if first_element + count > layout.elements_per_array:
            raise SramError("line extends past the array's elements")
        start_col = first_element * layout.factor
        # Partial-row write: only this line's columns are enabled.
        enable = ((1 << (count * layout.factor)) - 1) << start_col
        words = segment_words(values, layout.factor, layout.element_bits)
        for seg, word in enumerate(words):
            sram.array.write_word(layout.row_of(vreg, seg), word << start_col,
                                  enable)
        return len(words)

    # -- store path: bit planes -> memory line -------------------------------

    def store_line(self, sram: EveSram, vreg: int, first_element: int,
                   count: int = ELEMENTS_PER_LINE) -> np.ndarray:
        """Gather ``count`` elements of ``vreg`` back into memory layout."""
        layout = self.layout
        if first_element + count > layout.elements_per_array:
            raise SramError("line extends past the array's elements")
        start_col = first_element * layout.factor
        words = [sram.array.read_word(layout.row_of(vreg, seg)) >> start_col
                 for seg in range(layout.segments)]
        return segment_values(words, count, layout.factor,
                              layout.element_bits)

    # -- cost model hook ---------------------------------------------------------

    @property
    def cycles_per_line(self) -> int:
        """Row-write slots one line occupies (0 at full bit-parallelism,
        where the row layout already is the memory layout)."""
        if self.layout.factor == self.layout.element_bits:
            return 0
        return self.layout.segments
