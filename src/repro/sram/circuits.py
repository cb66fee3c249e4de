"""EVE peripheral circuit stacks (Section III, Figure 3c-e).

Each class models one layer of the stack bit-exactly.  All layers operate on
every column group of the array simultaneously (SIMD across in-situ ALUs):
a layer's state and operands are words (:mod:`repro.sram.words`), bit ``c``
holding column ``c``, with bit ``j`` of a segment in column ``j`` of its
group (LSB at ``j = 0``) and a per-group flag at its group's LSB column.

Layer inventory per design (Figure 3):

* EVE-1 (bit-serial): bus logic, XOR/XNOR logic, add logic, XRegister
  (stores the serial carry), mask logic.
* EVE-32 (bit-parallel): the above plus a constant shifter; XRegister is a
  shift-right register spanning the 32 columns.
* EVE-n (bit-hybrid): all seven layers; the inter-segment carry lives in a
  spare-shifter flip-flop so the XRegister stays free for shift duty.
"""

from __future__ import annotations

from typing import Tuple

from .words import lane_masks


class XorLayer:
    """Computes xor / xnor of the two operands from nand and or.

    ``xor = nand AND or``; ``xnor = NOT xor``.  Purely combinational.
    """

    @staticmethod
    def word(nand: int, or_: int, full: int) -> Tuple[int, int]:
        xor = nand & or_
        return xor, full ^ xor


class AddLogic:
    """An n-bit Manchester carry chain per column group.

    generate = ``a AND b`` (the bit-line ``and``), propagate = ``a XOR b``.
    The carry-in of each group comes from the carry store (XRegister in
    bit-serial mode, a spare-shifter flip-flop otherwise); the carry-out is
    latched back there when an ``add`` write-back commits.

    The word kernel adds every group at once.  Over a group's low ``n-1``
    columns ``a + b + c = p + 2g + c`` is at most ``2^n - 1``, so one
    integer add of ``p&low``, ``(g&low) << 1`` and the carry-in flags
    never crosses a group boundary; its result holds the low sum bits and,
    at each MSB column, the carry into the MSB.
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor
        self.lanes = lane_masks(groups * factor, factor)

    def word(self, generate: int, propagate: int,
             carry_in: int) -> Tuple[int, int]:
        """Return (sum word, carry-out flags) for carry-in flags."""
        low, msb = self.lanes.low, self.lanes.msb
        t = (propagate & low) + ((generate & low) << 1) + carry_in
        sums = (t & low) | ((propagate ^ t) & msb)
        carry = ((generate | t & propagate) & msb) >> (self.factor - 1)
        return sums, carry


class XRegister:
    """Per-column flip-flops; a shift-right register within each group.

    In bit-serial mode the single flip-flop per (one-column) group stores
    the carry.  In bit-parallel / bit-hybrid mode the register is loaded
    with a segment and shifted right bit by bit, exposing successive bits of
    a multiplier / shift-amount at the LSB column (Section III-B/C).
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor
        self.lanes = lane_masks(groups * factor, factor)
        self.word = 0

    def shift_right_word(self) -> int:
        """Shift right by one; returns the LSB flags shifted out."""
        out = self.word & self.lanes.lsb
        self.word = (self.word >> 1) & self.lanes.low
        return out

    def shift_left_word(self) -> int:
        """Shift left by one; returns the MSB bits shifted out, as flags.

        The direction is a mux on the same flip-flop chain; the left
        direction enables MSB-first walks (in-place multiplication) without
        scratch rows.
        """
        lanes = self.lanes
        out = (self.word & lanes.msb) >> (self.factor - 1)
        self.word = (self.word & lanes.low) << 1
        return out


class MaskLogic:
    """One latch per column storing the write-back predicate.

    The latch can be loaded from a value computed by the stack, from the
    data-in port, or (bit-hybrid / bit-parallel) from the LSB or MSB column
    of the XRegister, replicated across the group (Section III-C).
    """

    def __init__(self, cols: int, factor: int) -> None:
        self.cols = cols
        self.factor = factor
        self.lanes = lane_masks(cols, factor)
        self.word = self.lanes.full  # reset = all columns active

    def load_group_flags(self, flags: int) -> None:
        """Replicate each group's LSB flag across its columns."""
        self.word = self.lanes.spread(flags)

    @property
    def group_flags(self) -> int:
        """Each group's LSB-column mask bit, as flags."""
        return self.word & self.lanes.lsb


class ConstantShifter:
    """Per-group register supporting conditional one-bit shifts/rotates.

    Loaded from a row read; shifted conditionally on the mask latch; its
    contents can be written back through the bus logic (``shift`` source).
    Variable shifts are built by binary decomposition of the shift amount
    (Section III-B).  Conditions, inserted bits and returned bits are
    per-group flags.
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor
        self.lanes = lane_masks(groups * factor, factor)
        self.word = 0

    def _commit(self, shifted: int, condition: int) -> None:
        """Latch ``shifted`` in the groups whose condition flag is set."""
        self.word ^= (self.word ^ shifted) & self.lanes.spread(condition)

    def shift_left_word(self, condition: int, bit_in: int) -> int:
        """Conditionally shift left; returns the old MSB of every group.

        Groups whose condition is 0 are untouched (and report their
        current MSB unchanged into the return value, which callers must
        gate on the same condition).
        """
        lanes = self.lanes
        out = (self.word & lanes.msb) >> (self.factor - 1)
        self._commit(((self.word & lanes.low) << 1) | bit_in, condition)
        return out

    def shift_right_word(self, condition: int, bit_in: int) -> int:
        """Conditionally shift right; returns the old LSB of every group."""
        lanes = self.lanes
        out = self.word & lanes.lsb
        self._commit(((self.word >> 1) & lanes.low)
                     | (bit_in << (self.factor - 1)), condition)
        return out

    def rotate_left_word(self, condition: int) -> None:
        self.shift_left_word(
            condition, (self.word & self.lanes.msb) >> (self.factor - 1))

    def rotate_right_word(self, condition: int) -> None:
        self.shift_right_word(condition, self.word & self.lanes.lsb)


class SpareShifter:
    """Bit-hybrid-only layer: per-group flip-flops shifting opposite to the
    constant shifter, carrying bits across segment boundaries.

    One of its flip-flops doubles as the inter-segment carry store for the
    add logic (Section III-C).  Both flip-flops are held as flags.
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor
        #: Bit ferried between segments during multi-segment shifts.
        self.link_flags = 0
        #: The "unused flip-flop" holding the inter-segment add carry.
        self.carry_flags = 0

    def exchange_word(self, outgoing: int, condition: int) -> int:
        """Swap the ferried bit with a segment's outgoing bit.

        Returns the previously stored bit (to be inserted into the constant
        shifter) and stores ``outgoing`` in groups where ``condition`` holds.
        """
        incoming = self.link_flags
        self.link_flags = incoming ^ ((incoming ^ outgoing) & condition)
        return incoming

    def clear_link(self) -> None:
        self.link_flags = 0

    def clear_carry(self) -> None:
        self.carry_flags = 0
