"""The composed EVE-n SRAM: array + peripheral stacks (Section III).

:class:`EveSram` executes the *arithmetic* micro-operations of Table II
bit-exactly across every column group in parallel.  Control and counter
micro-operations belong to the VSU (:mod:`repro.uops.executor`).

Modes by parallelization factor:

* ``factor == 1`` — bit-serial (EVE-1): the XRegister stores the carry.
* ``1 < factor < element width`` — bit-hybrid (EVE-n): the carry lives in a
  spare-shifter flip-flop; the XRegister is free for shift/multiply duty.
* ``factor == element width`` — bit-parallel (EVE-32): one segment per
  element; the spare shifter is still modelled (its link bit is simply
  never needed across segments).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from ..errors import SramError
from ..faults.inject import NULL_FAULTS
from .array import SramArray
from .circuits import (
    AddLogic,
    ConstantShifter,
    MaskLogic,
    SpareShifter,
    XorLayer,
    XRegister,
)
from .layout import RegisterLayout
from .words import lane_masks, segment_values, segment_words

#: Write-back destinations besides a wordline.
DEST_MASK = "mask"
DEST_MASK_GROUPS = "mask_groups"
DEST_XREG = "xreg"
DEST_CARRY = "carry"
DEST_LINK = "link"

WB_SOURCES = ("and", "nand", "or", "nor", "xor", "xnor", "add", "shift",
              "data_in", "mask")


class EveSram:
    """One EVE SRAM array with its full circuit stack.

    Rows, latches and the data-in port are words (:mod:`repro.sram.words`);
    every μop is a few word operations across all column groups, and the
    fault hook sees the same words.
    """

    def __init__(self, rows: int, cols: int, factor: int) -> None:
        if factor <= 0 or cols % factor != 0:
            raise SramError(f"factor {factor} must divide column count {cols}")
        self.rows = rows
        self.cols = cols
        self.factor = factor
        self.groups = cols // factor
        self.lanes = lane_masks(cols, factor)
        self.array = SramArray(rows, cols)
        self.add_logic = AddLogic(self.groups, factor)
        self.xreg = XRegister(self.groups, factor)
        self.mask = MaskLogic(cols, factor)
        self.cshift = ConstantShifter(self.groups, factor)
        self.spare = SpareShifter(self.groups, factor)
        self.data_in_word = 0
        self._values: Dict[str, int] = {}
        self._pending_carry: Optional[int] = None
        #: Fault-injection hook (zero-cost null default, like the obs
        #: hooks); armed by :mod:`repro.faults.inject`.
        self.faults = NULL_FAULTS

    # -- carry store (mode-dependent) ------------------------------------

    @property
    def bit_serial(self) -> bool:
        return self.factor == 1

    def _carry_in(self) -> int:
        """The carry-in flags (at factor 1 every column is a group LSB,
        so the whole XRegister is the carry store)."""
        if self.bit_serial:
            return self.xreg.word
        return self.spare.carry_flags

    def _commit_carry(self, carry: int) -> None:
        if self.faults.enabled:
            carry = self.faults.filter_carry(carry)
        if self.bit_serial:
            self.xreg.word = carry
        else:
            self.spare.carry_flags = carry

    def clear_carry(self) -> None:
        if self.bit_serial:
            self.xreg.word = 0
        else:
            self.spare.clear_carry()

    # -- arithmetic micro-operations ------------------------------------------

    def u_rd(self, row: int) -> None:
        """``rd``: read a wordline into the constant shifter (the
        shifter's load path)."""
        self.cshift.word = self.array.read_word(row)

    def u_wr(self, row: int, masked: bool = False) -> None:
        """``wr``: write the data-in port into a wordline."""
        self.array.write_word(row, self.data_in_word,
                              self.mask.word if masked else None)

    def u_blc(self, row_a: int, row_b: int) -> None:
        """``blc``: dual-wordline compute; feeds the whole stack."""
        full = self.lanes.full
        and_, nor = self.array.bitline_words(row_a, row_b)
        nand, or_ = full ^ and_, full ^ nor
        xor, xnor = XorLayer.word(nand, or_, full)
        sums, carry_out = self.add_logic.word(and_, xor, self._carry_in())
        self._values.update({
            "and": and_, "nand": nand, "or": or_, "nor": nor,
            "xor": xor, "xnor": xnor, "add": sums,
        })
        self._pending_carry = carry_out

    def _source(self, src: str) -> int:
        if src == "data_in":
            return self.data_in_word
        if src == "shift":
            return self.cshift.word
        if src == "mask":
            return self.mask.word
        try:
            return self._values[src]
        except KeyError:
            raise SramError(
                f"write-back source {src!r} not available (no blc executed?)"
            ) from None

    def u_wb(self, dest: Union[int, str], src: str, masked: bool = False) -> None:
        """``wb``: write a computed value back to the array or a latch.

        ``dest`` may be a wordline number or one of the latch destinations
        (``mask``, ``mask_groups``, ``xreg``, ``carry``).  Writing the
        ``add`` source also commits the group carry-out to the carry store.
        """
        if src not in WB_SOURCES:
            raise SramError(f"unknown write-back source {src!r}")
        value = self._source(src)
        if src == "add":
            if self._pending_carry is None:
                raise SramError("add write-back without a preceding blc")
            self._commit_carry(self._pending_carry)
        if self.faults.enabled:
            # The carry flip-flop update above belongs to the adder and
            # has already happened; a dropped/latched write-back only
            # perturbs the destination write itself.
            value = self.faults.filter_wb(self, dest, src, value)
            if value is None:
                return
        lanes = self.lanes
        if isinstance(dest, (int, np.integer)):
            self.array.write_word(int(dest), value,
                                  self.mask.word if masked else None)
        elif dest == DEST_MASK:
            self.mask.word = value
        elif dest == DEST_MASK_GROUPS:
            # Replicate each group's LSB-column bit across the group.
            self.mask.load_group_flags(value & lanes.lsb)
        elif dest == DEST_XREG:
            self.xreg.word = value
        elif dest == DEST_CARRY:
            self._commit_carry(value & lanes.lsb)
        elif dest == DEST_LINK:
            # Load the ferry bit from each group's MSB column (used to seed
            # the sign bit for arithmetic right shifts).
            self.spare.link_flags = (value & lanes.msb) >> (self.factor - 1)
        else:
            raise SramError(f"unknown write-back destination {dest!r}")

    # -- shifter micro-operations -------------------------------------------

    def _condition(self, conditional: bool) -> int:
        if conditional:
            return self.mask.group_flags
        return self.lanes.lsb

    def u_lshift(self, conditional: bool = True) -> None:
        """``lshift``: constant shifter left by one; the spare shifter
        ferries the outgoing MSB to the next segment (bit-hybrid)."""
        cond = self._condition(conditional)
        out = self.cshift.shift_left_word(cond, self.spare.link_flags)
        self.spare.exchange_word(out, cond)

    def u_rshift(self, conditional: bool = True) -> None:
        """``rshift``: constant shifter right by one, spare ferrying LSBs."""
        cond = self._condition(conditional)
        out = self.cshift.shift_right_word(cond, self.spare.link_flags)
        self.spare.exchange_word(out, cond)

    def u_lrotate(self, conditional: bool = True) -> None:
        self.cshift.rotate_left_word(self._condition(conditional))

    def u_rrotate(self, conditional: bool = True) -> None:
        self.cshift.rotate_right_word(self._condition(conditional))

    def u_spare_clear(self) -> None:
        """``sclr``: reset the spare shifter's ferry bit before a new
        multi-segment shift sweep (part of our circuit template)."""
        self.spare.clear_link()

    def u_mask_shft(self) -> None:
        """``mask_shft``: load the mask latches from the XRegister LSB
        column, then shift the XRegister right by one (Section IV-A)."""
        self.mask.load_group_flags(self.xreg.shift_right_word())

    def u_mask_shftl(self) -> None:
        """``mask_shftl``: load the mask latches from the XRegister MSB
        column, then shift the XRegister left by one.  The MSB-first walk
        lets multiplication accumulate in place (no scratch rows), which is
        what keeps 32 registers resident at factor 4 (Table III)."""
        self.mask.load_group_flags(self.xreg.shift_left_word())

    def u_mask_from_carry(self, invert: bool = False,
                          lsb_only: bool = False) -> None:
        """``mask_carry``: load the mask latches from each group's carry
        flip-flop (optionally inverted) — the compare / divide restore path.

        With ``lsb_only`` the flag is gated onto each group's LSB column
        only (an AND with the column-position signal), letting a masked
        write set a single quotient bit without disturbing its neighbours.
        """
        flag = self._carry_in()
        if invert:
            flag ^= self.lanes.lsb
        if lsb_only:
            self.mask.word = flag
        else:
            self.mask.load_group_flags(flag)

    # -- host helpers (not micro-operations) -----------------------------------

    def write_vreg(self, layout: RegisterLayout, vreg: int,
                   values: np.ndarray) -> None:
        """Host-side load of a whole vector register (used by tests and the
        DTU model, which performs the transpose in hardware)."""
        self._check_layout(layout)
        values = np.asarray(values, dtype=np.int64)
        n_elem = layout.elements_per_array
        if values.shape != (n_elem,):
            raise SramError(f"expected {n_elem} elements, got {values.shape}")
        words = segment_words(values, layout.factor, layout.element_bits)
        for seg, word in enumerate(words):
            self.array.write_word(layout.row_of(vreg, seg), word)

    def read_vreg(self, layout: RegisterLayout, vreg: int) -> np.ndarray:
        """Host-side read of a whole vector register as signed integers."""
        self._check_layout(layout)
        words = [self.array.read_word(layout.row_of(vreg, seg))
                 for seg in range(layout.segments)]
        return segment_values(words, layout.elements_per_array,
                              layout.factor, layout.element_bits)

    def _check_layout(self, layout: RegisterLayout) -> None:
        if layout.rows > self.rows or layout.cols != self.cols or layout.factor != self.factor:
            raise SramError("layout does not match this array")
        if layout.groups_per_element != 1:
            raise SramError(
                "bit-exact execution requires the register file to fit one "
                "column group (reduce num_vregs or raise the factor)")
