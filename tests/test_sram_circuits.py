"""Peripheral circuit-stack tests (Section III layers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SramError
from repro.sram import SramArray
from repro.sram.array import BitLineResult
from repro.sram.circuits import (
    AddLogic,
    ConstantShifter,
    MaskLogic,
    SpareShifter,
    XorLayer,
    XRegister,
    group_view,
)
from repro.sram.words import lane_masks, pack, unpack


def bits(values):
    return np.asarray(values, dtype=np.uint8)


def blr(a, b):
    a, b = bits(a), bits(b)
    return BitLineResult(and_=a & b, nand=1 - (a & b), or_=a | b,
                         nor=1 - (a | b))


class TestGroupView:
    def test_reshape(self):
        v = group_view(bits(range(8)), 4)
        assert v.shape == (2, 4)

    def test_indivisible_rejected(self):
        with pytest.raises(SramError):
            group_view(bits([0] * 10), 4)


class TestXorLayer:
    def test_truth_table(self):
        xor, xnor = XorLayer.compute(blr([0, 0, 1, 1], [0, 1, 0, 1]))
        assert list(xor) == [0, 1, 1, 0]
        assert list(xnor) == [1, 0, 0, 1]


class TestAddLogic:
    def encode(self, value, n):
        return bits([(value >> j) & 1 for j in range(n)])

    def decode(self, row):
        return sum(int(b) << j for j, b in enumerate(row))

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 255), b=st.integers(0, 255),
           carry=st.integers(0, 1))
    def test_manchester_chain_adds(self, a, b, carry):
        logic = AddLogic(groups=1, factor=8)
        av, bv = self.encode(a, 8), self.encode(b, 8)
        result = blr(av, bv)
        xor, _ = XorLayer.compute(result)
        sums, carry_out = logic.compute(result.and_, xor,
                                        np.array([carry], dtype=np.uint8))
        total = a + b + carry
        assert self.decode(sums[0]) == total & 0xFF
        assert carry_out[0] == total >> 8

    def test_parallel_groups_independent(self):
        logic = AddLogic(groups=2, factor=4)
        a = np.concatenate([self.encode(0xF, 4), self.encode(0x1, 4)])
        b = np.concatenate([self.encode(0x1, 4), self.encode(0x2, 4)])
        result = blr(a, b)
        xor, _ = XorLayer.compute(result)
        sums, carry = logic.compute(result.and_, xor, bits([0, 0]))
        assert self.decode(sums[0]) == 0x0  # 0xF + 1 wraps
        assert self.decode(sums[1]) == 0x3
        assert list(carry) == [1, 0]

    def test_carry_shape_checked(self):
        logic = AddLogic(groups=2, factor=4)
        with pytest.raises(SramError):
            logic.compute(bits([0] * 8), bits([0] * 8), bits([0]))


class TestXRegister:
    def test_shift_right_walks_lsb_first(self):
        x = XRegister(groups=1, factor=4)
        x.load(bits([1, 0, 1, 1]))  # value 0b1101
        seen = [int(x.lsb[0])]
        for _ in range(3):
            x.shift_right()
            seen.append(int(x.lsb[0]))
        assert seen == [1, 0, 1, 1]

    def test_shift_left_walks_msb_first(self):
        x = XRegister(groups=1, factor=4)
        x.load(bits([1, 0, 1, 1]))
        seen = [int(x.msb[0])]
        for _ in range(3):
            x.shift_left()
            seen.append(int(x.msb[0]))
        assert seen == [1, 1, 0, 1]

    def test_zero_fill(self):
        x = XRegister(groups=1, factor=2)
        x.load(bits([1, 1]))
        x.shift_right()
        x.shift_right()
        assert x.bits.sum() == 0


class TestMaskLogic:
    def test_reset_all_active(self):
        mask = MaskLogic(cols=8, factor=4)
        assert mask.bits.sum() == 8

    def test_load_groups_replicates(self):
        mask = MaskLogic(cols=8, factor=4)
        mask.load_groups(bits([1, 0]))
        assert list(mask.bits) == [1, 1, 1, 1, 0, 0, 0, 0]
        assert list(mask.group_bits) == [1, 0]

    def test_width_checked(self):
        mask = MaskLogic(cols=8, factor=4)
        with pytest.raises(SramError):
            mask.load_columns(bits([1] * 4))
        with pytest.raises(SramError):
            mask.load_groups(bits([1] * 3))


class TestConstantShifter:
    def test_conditional_left_shift(self):
        shifter = ConstantShifter(groups=2, factor=4)
        shifter.load(bits([1, 0, 0, 0] * 2))  # both groups hold value 1
        out = shifter.shift_left(condition=np.array([True, False]),
                                 bit_in=bits([0, 0]))
        assert list(shifter.bits[0]) == [0, 1, 0, 0]  # shifted: value 2
        assert list(shifter.bits[1]) == [1, 0, 0, 0]  # untouched
        assert list(out) == [0, 0]

    def test_shift_right_returns_lsb(self):
        shifter = ConstantShifter(groups=1, factor=4)
        shifter.load(bits([1, 1, 0, 0]))
        out = shifter.shift_right(condition=np.array([True]), bit_in=bits([1]))
        assert out[0] == 1
        assert list(shifter.bits[0]) == [1, 0, 0, 1]

    def test_rotate_roundtrip(self):
        shifter = ConstantShifter(groups=1, factor=4)
        pattern = bits([1, 1, 0, 1])
        shifter.load(pattern)
        for _ in range(4):
            shifter.rotate_left(np.array([True]))
        assert np.array_equal(shifter.bits[0], pattern)


class TestSpareShifter:
    def test_exchange_ferries_bits(self):
        spare = SpareShifter(groups=1, factor=4)
        incoming = spare.exchange(bits([1]), np.array([True]))
        assert incoming[0] == 0  # link started clear
        incoming = spare.exchange(bits([0]), np.array([True]))
        assert incoming[0] == 1  # previous out-bit comes back

    def test_exchange_conditional(self):
        spare = SpareShifter(groups=2, factor=4)
        spare.exchange(bits([1, 1]), np.array([True, False]))
        assert list(spare.link) == [1, 0]

    def test_carry_storage(self):
        spare = SpareShifter(groups=2, factor=4)
        spare.set_carry(bits([1, 0]))
        assert list(spare.carry) == [1, 0]
        spare.clear_carry()
        assert spare.carry.sum() == 0

    def test_link_and_carry_independent(self):
        spare = SpareShifter(groups=1, factor=4)
        spare.set_carry(bits([1]))
        spare.clear_link()
        assert spare.carry[0] == 1


# -- word kernels against their per-group definitions -------------------------

WORD_FACTORS = st.sampled_from([1, 2, 4, 8, 16, 32])


@st.composite
def lane_words(draw, count):
    """(factor, groups, [word, ...]) for a random row geometry."""
    factor = draw(WORD_FACTORS)
    groups = draw(st.integers(1, 6))
    top = (1 << (factor * groups)) - 1
    return factor, groups, [draw(st.integers(0, top)) for _ in range(count)]


def split(word, factor, groups):
    """Per-group values of a word, group 0 first."""
    mask = (1 << factor) - 1
    return [(word >> (g * factor)) & mask for g in range(groups)]


def flags_of(pattern, factor, groups):
    """Flags (one per group, at its LSB column) from a group bit pattern."""
    return sum(((pattern >> g) & 1) << (g * factor) for g in range(groups))


def flag_bits(flags, factor, groups):
    return [v & 1 for v in split(flags, factor, groups)]


class TestWordAdd:
    @settings(max_examples=200, deadline=None)
    @given(lane_words(2), st.integers(0, 63))
    def test_groupwise_add_with_carry(self, geometry, pattern):
        factor, groups, (a, b) = geometry
        carry_in = flags_of(pattern, factor, groups)
        sums, carry_out = AddLogic(groups, factor).word(a & b, a ^ b,
                                                        carry_in)
        cins = flag_bits(carry_in, factor, groups)
        for g, (x, y) in enumerate(zip(split(a, factor, groups),
                                       split(b, factor, groups))):
            total = x + y + cins[g]
            assert split(sums, factor, groups)[g] == total % (1 << factor)
            assert flag_bits(carry_out, factor, groups)[g] == total >> factor
        assert carry_out & ~lane_masks(factor * groups, factor).lsb == 0


class TestWordShifters:
    @settings(max_examples=200, deadline=None)
    @given(lane_words(1), st.integers(0, 63), st.integers(0, 63),
           st.sampled_from(["shift_left", "shift_right", "rotate_left",
                            "rotate_right"]))
    def test_constant_shifter(self, geometry, cond_pattern, in_pattern, op):
        factor, groups, (word,) = geometry
        top = (1 << factor) - 1
        cond = flags_of(cond_pattern, factor, groups)
        bit_in = flags_of(in_pattern, factor, groups)
        shifter = ConstantShifter(groups, factor)
        shifter.word = word
        if op.startswith("shift"):
            out = getattr(shifter, op + "_word")(cond, bit_in)
        else:
            out = None
            getattr(shifter, op + "_word")(cond)
        olds = split(word, factor, groups)
        news = split(shifter.word, factor, groups)
        for g, old in enumerate(olds):
            ins = (in_pattern >> g) & 1
            expected = {
                "shift_left": ((old << 1) & top) | ins,
                "shift_right": (old >> 1) | (ins << (factor - 1)),
                "rotate_left": ((old << 1) & top) | (old >> (factor - 1)),
                "rotate_right": (old >> 1) | ((old & 1) << (factor - 1)),
            }[op]
            assert news[g] == (expected if (cond_pattern >> g) & 1 else old)
        if op == "shift_left":
            assert flag_bits(out, factor, groups) == [
                old >> (factor - 1) for old in olds]
        elif op == "shift_right":
            assert flag_bits(out, factor, groups) == [old & 1 for old in olds]

    @settings(max_examples=100, deadline=None)
    @given(lane_words(1))
    def test_xregister_walks(self, geometry):
        factor, groups, (word,) = geometry
        top = (1 << factor) - 1
        olds = split(word, factor, groups)
        x = XRegister(groups, factor)
        x.word = word
        assert flag_bits(x.shift_right_word(), factor, groups) == [
            v & 1 for v in olds]
        assert split(x.word, factor, groups) == [v >> 1 for v in olds]
        x.word = word
        assert flag_bits(x.shift_left_word(), factor, groups) == [
            v >> (factor - 1) for v in olds]
        assert split(x.word, factor, groups) == [(v << 1) & top
                                                 for v in olds]

    @settings(max_examples=100, deadline=None)
    @given(WORD_FACTORS, st.integers(1, 6), st.integers(0, 63),
           st.integers(0, 63), st.integers(0, 63))
    def test_spare_exchange(self, factor, groups, link, out, cond):
        spare = SpareShifter(groups, factor)
        spare.link_flags = flags_of(link, factor, groups)
        incoming = spare.exchange_word(flags_of(out, factor, groups),
                                       flags_of(cond, factor, groups))
        assert incoming == flags_of(link, factor, groups)
        for g in range(groups):
            chosen = out if (cond >> g) & 1 else link
            assert flag_bits(spare.link_flags, factor, groups)[g] == \
                (chosen >> g) & 1

    @settings(max_examples=60, deadline=None)
    @given(WORD_FACTORS, st.integers(1, 6), st.integers(0, 63))
    def test_spread_fills_each_flagged_group(self, factor, groups, pattern):
        lanes = lane_masks(factor * groups, factor)
        spread = lanes.spread(flags_of(pattern, factor, groups))
        assert split(spread, factor, groups) == [
            (1 << factor) - 1 if (pattern >> g) & 1 else 0
            for g in range(groups)]


class TestPacking:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 100).flatmap(
        lambda cols: st.lists(st.integers(0, 1), min_size=cols,
                              max_size=cols)))
    def test_pack_unpack_round_trip(self, column_bits):
        cols = len(column_bits)
        word = pack(bits(column_bits))
        assert word == sum(b << c for c, b in enumerate(column_bits))
        assert unpack(word, cols).tolist() == column_bits
        assert unpack(word, cols).dtype == np.uint8

    def test_odd_column_count(self):
        pattern = bits([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1])  # 11 columns
        assert unpack(pack(pattern), 11).tolist() == pattern.tolist()
        array = SramArray(3, 11)
        array.write(1, pattern)
        assert array.snapshot()[1].tolist() == pattern.tolist()
        assert array.read(1).tolist() == pattern.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 2 ** 32), st.data())
    def test_flip_toggles_exactly_one_cell(self, cols, seed, data):
        rows = 4
        array = SramArray(rows, cols)
        array.load(np.random.default_rng(seed).integers(0, 2, (rows, cols)))
        row = data.draw(st.integers(0, rows - 1))
        col = data.draw(st.integers(0, cols - 1))
        before = array.snapshot()
        array.flip(row, col)
        changed = np.argwhere(array.snapshot() != before)
        assert changed.tolist() == [[row, col]]
