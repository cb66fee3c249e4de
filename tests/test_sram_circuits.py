"""Peripheral circuit-stack tests (Section III layers)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram import SramArray
from repro.sram.circuits import (
    AddLogic,
    ConstantShifter,
    MaskLogic,
    SpareShifter,
    XorLayer,
    XRegister,
)
from repro.sram.words import lane_masks


def word(bits):
    """A row given column by column (column 0 first) as a word."""
    return sum(b << c for c, b in enumerate(bits))


class TestXorLayer:
    def test_truth_table(self):
        a, b = word([0, 0, 1, 1]), word([0, 1, 0, 1])
        xor, xnor = XorLayer.word(0xF ^ (a & b), a | b, 0xF)
        assert xor == word([0, 1, 1, 0])
        assert xnor == word([1, 0, 0, 1])


class TestAddLogic:
    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 255), b=st.integers(0, 255),
           carry=st.integers(0, 1))
    def test_manchester_chain_adds(self, a, b, carry):
        logic = AddLogic(groups=1, factor=8)
        xor, _ = XorLayer.word(0xFF ^ (a & b), a | b, 0xFF)
        sums, carry_out = logic.word(a & b, xor, carry)
        total = a + b + carry
        assert sums == total & 0xFF
        assert carry_out == total >> 8

    def test_parallel_groups_independent(self):
        logic = AddLogic(groups=2, factor=4)
        a = 0xF | 0x1 << 4
        b = 0x1 | 0x2 << 4
        xor, _ = XorLayer.word(0xFF ^ (a & b), a | b, 0xFF)
        sums, carry = logic.word(a & b, xor, 0)
        assert sums & 0xF == 0x0  # 0xF + 1 wraps
        assert sums >> 4 == 0x3
        assert carry == word([1, 0, 0, 0, 0, 0, 0, 0])  # group 0 only


class TestXRegister:
    def test_shift_right_walks_lsb_first(self):
        x = XRegister(groups=1, factor=4)
        x.word = word([1, 0, 1, 1])  # value 0b1101
        seen = [x.word & 1]
        for _ in range(3):
            x.shift_right_word()
            seen.append(x.word & 1)
        assert seen == [1, 0, 1, 1]

    def test_shift_left_walks_msb_first(self):
        x = XRegister(groups=1, factor=4)
        x.word = word([1, 0, 1, 1])
        seen = [x.word >> 3]
        for _ in range(3):
            x.shift_left_word()
            seen.append(x.word >> 3)
        assert seen == [1, 1, 0, 1]

    def test_zero_fill(self):
        x = XRegister(groups=1, factor=2)
        x.word = word([1, 1])
        x.shift_right_word()
        x.shift_right_word()
        assert x.word == 0


class TestMaskLogic:
    def test_reset_all_active(self):
        mask = MaskLogic(cols=8, factor=4)
        assert mask.word == word([1] * 8)

    def test_load_groups_replicates(self):
        mask = MaskLogic(cols=8, factor=4)
        mask.load_group_flags(word([1, 0, 0, 0, 0, 0, 0, 0]))
        assert mask.word == word([1, 1, 1, 1, 0, 0, 0, 0])
        assert mask.group_flags == word([1, 0, 0, 0, 0, 0, 0, 0])


class TestConstantShifter:
    def test_conditional_left_shift(self):
        shifter = ConstantShifter(groups=2, factor=4)
        shifter.word = word([1, 0, 0, 0] * 2)  # both groups hold value 1
        out = shifter.shift_left_word(condition=word([1, 0, 0, 0]),
                                      bit_in=0)
        assert shifter.word & 0xF == word([0, 1, 0, 0])  # shifted: value 2
        assert shifter.word >> 4 == word([1, 0, 0, 0])  # untouched
        assert out == 0

    def test_shift_right_returns_lsb(self):
        shifter = ConstantShifter(groups=1, factor=4)
        shifter.word = word([1, 1, 0, 0])
        out = shifter.shift_right_word(condition=1, bit_in=1)
        assert out == 1
        assert shifter.word == word([1, 0, 0, 1])

    def test_rotate_roundtrip(self):
        shifter = ConstantShifter(groups=1, factor=4)
        pattern = word([1, 1, 0, 1])
        shifter.word = pattern
        for _ in range(4):
            shifter.rotate_left_word(1)
        assert shifter.word == pattern


class TestSpareShifter:
    def test_exchange_ferries_bits(self):
        spare = SpareShifter(groups=1, factor=4)
        incoming = spare.exchange_word(1, 1)
        assert incoming == 0  # link started clear
        incoming = spare.exchange_word(0, 1)
        assert incoming == 1  # previous out-bit comes back

    def test_exchange_conditional(self):
        spare = SpareShifter(groups=2, factor=4)
        spare.exchange_word(word([1, 0, 0, 0] * 2), word([1, 0, 0, 0]))
        assert spare.link_flags == word([1, 0, 0, 0])  # group 0 only

    def test_carry_storage(self):
        spare = SpareShifter(groups=2, factor=4)
        spare.carry_flags = word([1, 0, 0, 0])
        spare.clear_carry()
        assert spare.carry_flags == 0

    def test_link_and_carry_independent(self):
        spare = SpareShifter(groups=1, factor=4)
        spare.carry_flags = 1
        spare.clear_link()
        assert spare.carry_flags == 1


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
    def test_odd_column_count(self):
        pattern = word([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1])  # 11 columns
        array = SramArray(3, 11)
        array.write_word(1, pattern)
        assert array.words[1] == pattern
        assert array.read_word(1) == pattern
        assert array.bitline_words(1, 1) == (pattern, 0x7FF ^ pattern)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.data())
    def test_flip_toggles_exactly_one_cell(self, cols, data):
        rows = 4
        array = SramArray(rows, cols)
        array.words = data.draw(st.lists(st.integers(0, (1 << cols) - 1),
                                         min_size=rows, max_size=rows))
        row = data.draw(st.integers(0, rows - 1))
        col = data.draw(st.integers(0, cols - 1))
        before = list(array.words)
        array.flip(row, col)
        changed = [(r, c) for r in range(rows) for c in range(cols)
                   if (array.words[r] ^ before[r]) >> c & 1]
        assert changed == [(row, col)]
