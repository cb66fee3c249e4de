"""Data-transpose-unit functional tests (the load/store bit reshuffle)."""

import numpy as np
import pytest

from repro.errors import SramError
from repro.sram import EveSram, RegisterLayout
from repro.sram.dtu import ELEMENTS_PER_LINE, DataTransposeUnit


def setup(factor, capacity=32):
    segments = 32 // factor
    rows = max(64, 8 * segments)
    cols = capacity * factor
    layout = RegisterLayout(rows=rows, cols=cols, element_bits=32,
                            factor=factor, num_vregs=8)
    return EveSram(rows, cols, factor), layout, DataTransposeUnit(layout)


@pytest.mark.parametrize("factor", [1, 2, 4, 8, 16, 32])
class TestRoundTrip:
    def test_line_roundtrip(self, factor, rng):
        sram, layout, dtu = setup(factor)
        values = rng.integers(-2 ** 31, 2 ** 31, ELEMENTS_PER_LINE)
        dtu.load_line(sram, 0, 0, values)
        assert np.array_equal(dtu.store_line(sram, 0, 0), values)

    def test_equivalent_to_host_transpose(self, factor, rng):
        """Loading line by line equals the whole-register transpose."""
        sram_a, layout, dtu = setup(factor)
        sram_b = EveSram(sram_a.rows, sram_a.cols, factor)
        values = rng.integers(-2 ** 31, 2 ** 31, layout.elements_per_array)
        for first in range(0, layout.elements_per_array, ELEMENTS_PER_LINE):
            chunk = values[first:first + ELEMENTS_PER_LINE]
            dtu.load_line(sram_a, 3, first, chunk)
        sram_b.write_vreg(layout, 3, values)
        assert sram_a.array.words == sram_b.array.words

    def test_partial_line(self, factor, rng):
        sram, layout, dtu = setup(factor)
        values = rng.integers(-1000, 1000, 5)
        dtu.load_line(sram, 1, 0, values)
        assert np.array_equal(dtu.store_line(sram, 1, 0, count=5), values)


class TestIsolation:
    def test_line_write_does_not_disturb_neighbours(self, rng):
        sram, layout, dtu = setup(8, capacity=32)
        base = rng.integers(-1000, 1000, layout.elements_per_array)
        sram.write_vreg(layout, 0, base)
        new = rng.integers(-1000, 1000, ELEMENTS_PER_LINE)
        dtu.load_line(sram, 0, ELEMENTS_PER_LINE, new)
        got = sram.read_vreg(layout, 0)
        assert np.array_equal(got[:ELEMENTS_PER_LINE], base[:ELEMENTS_PER_LINE])
        assert np.array_equal(got[ELEMENTS_PER_LINE:2 * ELEMENTS_PER_LINE], new)

    def test_other_registers_untouched(self, rng):
        sram, layout, dtu = setup(4, capacity=32)
        keep = rng.integers(-1000, 1000, layout.elements_per_array)
        sram.write_vreg(layout, 5, keep)
        dtu.load_line(sram, 2, 0, rng.integers(-1000, 1000, 16))
        assert np.array_equal(sram.read_vreg(layout, 5), keep)


class TestCostModel:
    def test_cycles_per_line_matches_timing_model(self):
        for factor in (1, 2, 4, 8, 16):
            _, _, dtu = setup(factor)
            assert dtu.cycles_per_line == 32 // factor

    def test_bit_parallel_needs_no_transpose_cycles(self):
        _, _, dtu = setup(32)
        assert dtu.cycles_per_line == 0

    def test_row_writes_counted(self, rng):
        sram, layout, dtu = setup(8)
        writes = dtu.load_line(sram, 0, 0, rng.integers(0, 100, 16))
        assert writes == layout.segments


class TestValidation:
    def test_oversized_line_rejected(self, rng):
        sram, _, dtu = setup(8)
        with pytest.raises(SramError):
            dtu.load_line(sram, 0, 0, np.zeros(17))

    def test_out_of_range_rejected(self, rng):
        sram, layout, dtu = setup(8, capacity=16)
        with pytest.raises(SramError):
            dtu.load_line(sram, 0, 8, np.zeros(16))

    def test_multi_group_layout_rejected(self):
        layout = RegisterLayout(rows=64, cols=64, element_bits=32, factor=1,
                                num_vregs=4)  # spans two column groups
        with pytest.raises(SramError):
            DataTransposeUnit(layout)
