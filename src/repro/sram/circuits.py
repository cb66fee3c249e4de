"""EVE peripheral circuit stacks (Section III, Figure 3c-e).

Each class models one layer of the stack bit-exactly.  All layers operate on
every column group of the array simultaneously (SIMD across in-situ ALUs);
state arrays are shaped ``(groups, n)`` with bit ``j`` of a segment in
column ``j`` of its group (LSB at ``j = 0``).

Layer inventory per design (Figure 3):

* EVE-1 (bit-serial): bus logic, XOR/XNOR logic, add logic, XRegister
  (stores the serial carry), mask logic.
* EVE-32 (bit-parallel): the above plus a constant shifter; XRegister is a
  shift-right register spanning the 32 columns.
* EVE-n (bit-hybrid): all seven layers; the inter-segment carry lives in a
  spare-shifter flip-flop so the XRegister stays free for shift duty.
"""

from __future__ import annotations

import numpy as np

from ..errors import SramError
from .array import BitLineResult


def group_view(bits: np.ndarray, factor: int) -> np.ndarray:
    """Reshape a (cols,) bit vector into (groups, factor)."""
    if bits.size % factor:
        raise SramError(f"{bits.size} columns not divisible by factor {factor}")
    return bits.reshape(-1, factor)


class XorLayer:
    """Computes xor / xnor of the two operands from nand and or.

    ``xor = nand AND or``; ``xnor = NOT xor``.  Purely combinational.
    """

    @staticmethod
    def compute(blr: BitLineResult) -> tuple[np.ndarray, np.ndarray]:
        xor = blr.nand & blr.or_
        return xor, 1 - xor


class AddLogic:
    """An n-bit Manchester carry chain per column group.

    generate = ``a AND b`` (the bit-line ``and``), propagate = ``a XOR b``.
    The carry-in of each group comes from the carry store (XRegister in
    bit-serial mode, a spare-shifter flip-flop otherwise); the carry-out is
    latched back there when an ``add`` write-back commits.
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor

    def compute(self, generate: np.ndarray, propagate: np.ndarray,
                carry_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (sum bits shaped (groups, factor), carry-out per group)."""
        g = group_view(generate, self.factor)
        p = group_view(propagate, self.factor)
        carry = np.asarray(carry_in, dtype=np.uint8)
        if carry.shape != (self.groups,):
            raise SramError("carry-in shape mismatch")
        sums = np.empty_like(g)
        c = carry.copy()
        for j in range(self.factor):  # ripple through the chain, LSB first
            sums[:, j] = p[:, j] ^ c
            c = g[:, j] | (p[:, j] & c)
        return sums, c


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
        self.bits = np.zeros((groups, factor), dtype=np.uint8)

    def load(self, bits: np.ndarray) -> None:
        self.bits = group_view(np.asarray(bits, dtype=np.uint8).copy(), self.factor)

    def shift_right(self) -> np.ndarray:
        """Shift right by one; returns the bits shifted out of the LSB."""
        out = self.bits[:, 0].copy()
        self.bits[:, :-1] = self.bits[:, 1:]
        self.bits[:, -1] = 0
        return out

    def shift_left(self) -> np.ndarray:
        """Shift left by one; returns the bits shifted out of the MSB.

        The direction is a mux on the same flip-flop chain; the left
        direction enables MSB-first walks (in-place multiplication) without
        scratch rows.
        """
        out = self.bits[:, -1].copy()
        self.bits[:, 1:] = self.bits[:, :-1]
        self.bits[:, 0] = 0
        return out

    @property
    def lsb(self) -> np.ndarray:
        return self.bits[:, 0]

    @property
    def msb(self) -> np.ndarray:
        return self.bits[:, -1]


class MaskLogic:
    """One latch per column storing the write-back predicate.

    The latch can be loaded from a value computed by the stack, from the
    data-in port, or (bit-hybrid / bit-parallel) from the LSB or MSB column
    of the XRegister, replicated across the group (Section III-C).
    """

    def __init__(self, cols: int, factor: int) -> None:
        self.cols = cols
        self.factor = factor
        self.bits = np.ones(cols, dtype=np.uint8)  # reset = all columns active

    def load_columns(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.cols,):
            raise SramError("mask width mismatch")
        self.bits = bits.copy()

    def load_groups(self, group_bits: np.ndarray) -> None:
        """Replicate one bit per group across its columns."""
        group_bits = np.asarray(group_bits, dtype=np.uint8)
        if group_bits.size * self.factor != self.cols:
            raise SramError("group-mask width mismatch")
        self.bits = np.repeat(group_bits, self.factor)

    @property
    def group_bits(self) -> np.ndarray:
        """The (identical) mask bit of each group's LSB column."""
        return group_view(self.bits, self.factor)[:, 0]


class ConstantShifter:
    """Per-group register supporting conditional one-bit shifts/rotates.

    Loaded from a row read; shifted conditionally on the mask latch; its
    contents can be written back through the bus logic (``shift`` source).
    Variable shifts are built by binary decomposition of the shift amount
    (Section III-B).
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor
        self.bits = np.zeros((groups, factor), dtype=np.uint8)

    def load(self, bits: np.ndarray) -> None:
        self.bits = group_view(np.asarray(bits, dtype=np.uint8).copy(), self.factor)

    def flat(self) -> np.ndarray:
        return self.bits.reshape(-1)

    def shift_left(self, condition: np.ndarray, bit_in: np.ndarray) -> np.ndarray:
        """Conditionally shift left; returns the old MSB of every group.

        Groups where ``condition`` is 0 are untouched (and report their
        current MSB unchanged into the return value, which callers must
        gate on the same condition).
        """
        out = self.bits[:, -1].copy()
        shifted = np.empty_like(self.bits)
        shifted[:, 1:] = self.bits[:, :-1]
        shifted[:, 0] = np.asarray(bit_in, dtype=np.uint8)
        cond = np.asarray(condition, dtype=bool)
        self.bits[cond] = shifted[cond]
        return out

    def shift_right(self, condition: np.ndarray, bit_in: np.ndarray) -> np.ndarray:
        """Conditionally shift right; returns the old LSB of every group."""
        out = self.bits[:, 0].copy()
        shifted = np.empty_like(self.bits)
        shifted[:, :-1] = self.bits[:, 1:]
        shifted[:, -1] = np.asarray(bit_in, dtype=np.uint8)
        cond = np.asarray(condition, dtype=bool)
        self.bits[cond] = shifted[cond]
        return out

    def rotate_left(self, condition: np.ndarray) -> None:
        self.shift_left(condition, self.bits[:, -1].copy())

    def rotate_right(self, condition: np.ndarray) -> None:
        self.shift_right(condition, self.bits[:, 0].copy())


class SpareShifter:
    """Bit-hybrid-only layer: per-group flip-flops shifting opposite to the
    constant shifter, carrying bits across segment boundaries.

    One of its flip-flops doubles as the inter-segment carry store for the
    add logic (Section III-C).
    """

    def __init__(self, groups: int, factor: int) -> None:
        self.groups = groups
        self.factor = factor
        #: Bit ferried between segments during multi-segment shifts.
        self.link = np.zeros(groups, dtype=np.uint8)
        #: The "unused flip-flop" holding the inter-segment add carry.
        self.carry = np.zeros(groups, dtype=np.uint8)

    def exchange(self, outgoing: np.ndarray, condition: np.ndarray) -> np.ndarray:
        """Swap the ferried bit with a segment's outgoing bit.

        Returns the previously stored bit (to be inserted into the constant
        shifter) and stores ``outgoing`` in groups where ``condition`` holds.
        """
        incoming = self.link.copy()
        cond = np.asarray(condition, dtype=bool)
        self.link = np.where(cond, np.asarray(outgoing, dtype=np.uint8), self.link)
        return incoming

    def clear_link(self) -> None:
        self.link[:] = 0

    def set_carry(self, bits: np.ndarray) -> None:
        self.carry = np.asarray(bits, dtype=np.uint8).copy()

    def clear_carry(self) -> None:
        self.carry[:] = 0
