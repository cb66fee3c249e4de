"""EveSram micro-operation tests (the composed array + stacks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SramError
from repro.sram import EveSram, RegisterLayout


def word(bits):
    """A row given column by column (column 0 first) as a word."""
    return sum(b << c for c, b in enumerate(bits))


@pytest.fixture
def sram():
    return EveSram(rows=32, cols=16, factor=4)


def layout_for(sram, regs=4):
    return RegisterLayout(rows=sram.rows, cols=sram.cols, element_bits=32,
                          factor=sram.factor, num_vregs=regs)


class TestBasicOps:
    def test_wr_rd_roundtrip(self, sram):
        pattern = word([1, 0] * 8)
        sram.data_in_word = pattern
        sram.u_wr(5)
        sram.u_rd(5)
        sram.u_wb(6, "shift")  # what rd read goes back out unchanged
        assert sram.array.read_word(6) == pattern

    def test_rd_loads_constant_shifter(self, sram):
        pattern = word([1] + [0] * 15)
        sram.data_in_word = pattern
        sram.u_wr(0)
        sram.u_rd(0)
        assert sram.cshift.word == pattern

    def test_masked_wr(self, sram):
        sram.data_in_word = word([1] * 16)
        sram.u_wr(0)
        sram.mask.load_group_flags(word([1, 0, 0, 0, 0, 0, 0, 0] * 2))
        sram.data_in_word = word([0] * 16)
        sram.u_wr(0, masked=True)
        row = sram.array.read_word(0)
        assert row == word([0] * 4 + [1] * 4 + [0] * 4 + [1] * 4)


class TestBlcAndWriteback:
    def setup_rows(self, sram):
        sram.data_in_word = word([0, 0, 1, 1] * 4)
        sram.u_wr(0)
        sram.data_in_word = word([0, 1, 0, 1] * 4)
        sram.u_wr(1)

    @pytest.mark.parametrize("src,expected", [
        ("and", [0, 0, 0, 1]), ("or", [0, 1, 1, 1]), ("xor", [0, 1, 1, 0]),
        ("nand", [1, 1, 1, 0]), ("nor", [1, 0, 0, 0]), ("xnor", [1, 0, 0, 1]),
    ])
    def test_logic_sources(self, sram, src, expected):
        self.setup_rows(sram)
        sram.u_blc(0, 1)
        sram.u_wb(2, src)
        assert sram.array.read_word(2) == word(expected * 4)

    def test_wb_unknown_source(self, sram):
        with pytest.raises(SramError):
            sram.u_wb(0, "sum")

    def test_wb_source_requires_blc(self, sram):
        with pytest.raises(SramError):
            sram.u_wb(0, "xor")

    def test_wb_add_requires_blc(self, sram):
        with pytest.raises(SramError):
            sram.u_wb(0, "add")

    def test_wb_unknown_dest(self, sram):
        self.setup_rows(sram)
        sram.u_blc(0, 1)
        with pytest.raises(SramError):
            sram.u_wb("nowhere", "and")

    def test_wb_to_mask_latches(self, sram):
        self.setup_rows(sram)
        sram.u_blc(0, 1)
        sram.u_wb("mask", "and")
        assert sram.mask.word == word([0, 0, 0, 1] * 4)

    def test_wb_mask_groups_uses_lsb_column(self, sram):
        sram.data_in_word = word([1, 0, 0, 0, 0, 1, 1, 1] + [0] * 8)
        sram.u_wr(0)
        sram.u_blc(0, 0)
        sram.u_wb("mask_groups", "and")
        assert sram.mask.group_flags == word([1])  # group 0 only

    def test_wb_to_xreg(self, sram):
        self.setup_rows(sram)
        sram.u_blc(0, 0)
        sram.u_wb("xreg", "and")
        assert sram.xreg.word == word([0, 0, 1, 1] * 4)

    def test_mask_as_source(self, sram):
        sram.mask.load_group_flags(word([1, 0, 0, 0, 0, 0, 0, 0] * 2))
        sram.u_wb(3, "mask")
        assert sram.array.read_word(3) == word(
            [1] * 4 + [0] * 4 + [1] * 4 + [0] * 4)


class TestCarryPath:
    def test_add_commits_carry(self, sram):
        sram.data_in_word = word([1, 1, 1, 1] + [0] * 12)  # group 0 = 0xF
        sram.u_wr(0)
        sram.u_blc(0, 0)  # 0xF + 0xF = 0x1E
        sram.u_wb(1, "add")
        assert sram.spare.carry_flags == word([1])  # group 0 only

    def test_carry_feeds_next_add(self, sram):
        sram.data_in_word = word([1, 1, 1, 1] + [0] * 12)
        sram.u_wr(0)
        sram.data_in_word = word([0] * 16)
        sram.u_wr(1)
        sram.u_blc(0, 0)
        sram.u_wb(2, "add")            # carry out = 1 in group 0
        sram.u_blc(1, 1)               # 0 + 0 + carry
        sram.u_wb(3, "add")
        assert sram.array.read_word(3) & 0xF == word([1, 0, 0, 0])

    def test_set_carry_via_data_in(self, sram):
        sram.data_in_word = word([1] * 16)
        sram.u_wb("carry", "data_in")
        assert sram.spare.carry_flags == word([1, 0, 0, 0] * 4)
        sram.clear_carry()
        assert sram.spare.carry_flags == 0

    def test_bit_serial_carry_lives_in_xreg(self):
        serial = EveSram(rows=32, cols=4, factor=1)
        serial.data_in_word = word([1, 1, 0, 0])
        serial.u_wr(0)
        serial.u_blc(0, 0)  # 1+1 per column
        serial.u_wb(1, "add")
        assert serial.xreg.word == word([1, 1, 0, 0])

    def test_mask_from_carry(self, sram):
        groups_0_2 = word([1, 0, 0, 0, 0, 0, 0, 0] * 2)
        sram.spare.carry_flags = groups_0_2
        sram.u_mask_from_carry()
        assert sram.mask.group_flags == groups_0_2
        sram.u_mask_from_carry(invert=True)
        assert sram.mask.group_flags == word([0, 0, 0, 0, 1, 0, 0, 0] * 2)

    def test_mask_from_carry_lsb_only(self, sram):
        sram.spare.carry_flags = word([1, 0, 0, 0] * 2)
        sram.u_mask_from_carry(lsb_only=True)
        assert sram.mask.word == word([1, 0, 0, 0, 1, 0, 0, 0] + [0] * 8)


class TestMaskWalks:
    def test_mask_shft_lsb_walk(self, sram):
        sram.xreg.word = word([1, 0, 1, 0] * 4)  # every group value 0b0101
        sram.u_mask_shft()
        assert sram.mask.group_flags == word([1, 0, 0, 0] * 4)
        sram.u_mask_shft()
        assert sram.mask.group_flags == 0

    def test_mask_shftl_msb_walk(self, sram):
        sram.xreg.word = word([0, 0, 0, 1] + [0, 0, 0, 0] * 3)
        sram.u_mask_shftl()
        assert sram.mask.group_flags == word([1])  # group 0 only
        sram.u_mask_shftl()
        assert sram.mask.group_flags == 0


class TestVregAccess:
    @settings(max_examples=25, deadline=None)
    @given(factor=st.sampled_from([1, 2, 4, 8, 16, 32]),
           seed=st.integers(0, 1000))
    def test_roundtrip_property(self, factor, seed):
        rng = np.random.default_rng(seed)
        sram = EveSram(rows=256, cols=32, factor=factor)
        layout = RegisterLayout(rows=256, cols=32, element_bits=32,
                                factor=factor,
                                num_vregs=max(1, min(4, 256 // (32 // factor))))
        n = layout.elements_per_array
        values = rng.integers(-2 ** 31, 2 ** 31, n)
        sram.write_vreg(layout, 0, values)
        assert np.array_equal(sram.read_vreg(layout, 0), values)

    def test_write_read_roundtrip(self):
        rng = np.random.default_rng(3)
        for factor in (1, 2, 4, 8, 16, 32):
            sram = EveSram(rows=256, cols=64, factor=factor)
            layout = RegisterLayout(rows=256, cols=64, element_bits=32,
                                    factor=factor,
                                    num_vregs=max(1, 256 // (32 // factor)))
            n = layout.elements_per_array
            values = rng.integers(-2 ** 31, 2 ** 31, n)
            sram.write_vreg(layout, 0, values)
            assert np.array_equal(sram.read_vreg(layout, 0), values)

    def test_registers_do_not_interfere(self):
        sram = EveSram(rows=64, cols=16, factor=4)
        layout = layout_for(sram, regs=8)
        n = layout.elements_per_array
        sram.write_vreg(layout, 0, np.full(n, 111))
        sram.write_vreg(layout, 1, np.full(n, -222))
        assert (sram.read_vreg(layout, 0) == 111).all()
        assert (sram.read_vreg(layout, 1) == -222).all()

    def test_layout_mismatch_rejected(self, sram):
        wrong = RegisterLayout(rows=32, cols=32, element_bits=32, factor=4,
                               num_vregs=4)
        with pytest.raises(SramError):
            sram.write_vreg(wrong, 0, np.zeros(8))

    def test_multi_group_layout_rejected(self):
        sram = EveSram(rows=64, cols=64, factor=1)
        layout = RegisterLayout(rows=64, cols=64, element_bits=32, factor=1,
                                num_vregs=4)  # needs 128 rows per column
        with pytest.raises(SramError):
            sram.write_vreg(layout, 0, np.zeros(layout.elements_per_array))

    def test_wrong_length_rejected(self, sram):
        layout = layout_for(sram)
        with pytest.raises(SramError):
            sram.write_vreg(layout, 0, np.zeros(99))
