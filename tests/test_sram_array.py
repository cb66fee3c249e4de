"""Bit-line-compute SRAM array tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SramError
from repro.sram import SramArray


@pytest.fixture
def array():
    return SramArray(8, 16)


def word(bits):
    """A row given column by column (column 0 first) as a word."""
    return sum(b << c for c, b in enumerate(bits))


class TestReadWrite:
    def test_roundtrip(self, array):
        pattern = word([i % 2 for i in range(16)])
        array.write_word(3, pattern)
        assert array.read_word(3) == pattern

    def test_column_enable(self, array):
        array.write_word(0, word([1] * 16))
        array.write_word(0, word([0] * 16), enable=word([1, 0] * 8))
        assert array.read_word(0) == word([0, 1] * 8)

    def test_row_bounds(self, array):
        with pytest.raises(SramError):
            array.read_word(8)
        with pytest.raises(SramError):
            array.write_word(-1, word([0] * 16))

    def test_bad_geometry(self):
        with pytest.raises(SramError):
            SramArray(0, 16)


class TestBitLineCompute:
    def test_truth_table(self, array):
        array.write_word(0, word([0, 0, 1, 1] * 4))
        array.write_word(1, word([0, 1, 0, 1] * 4))
        and_, nor = array.bitline_words(0, 1)
        assert and_ == word([0, 0, 0, 1] * 4)
        assert array.full ^ nor == word([0, 1, 1, 1] * 4)  # or
        assert array.full ^ and_ == word([1, 1, 1, 0] * 4)  # nand
        assert nor == word([1, 0, 0, 0] * 4)

    def test_self_compute_senses_row(self, array):
        pattern = word([1, 0] * 8)
        array.write_word(2, pattern)
        and_, nor = array.bitline_words(2, 2)
        assert and_ == pattern
        assert array.full ^ nor == pattern

    def test_does_not_disturb_cells(self, array):
        a, b = word([1] * 16), word([0, 1] * 8)
        array.write_word(0, a)
        array.write_word(1, b)
        array.bitline_words(0, 1)
        assert array.read_word(0) == a
        assert array.read_word(1) == b

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=16, max_size=16),
           st.lists(st.integers(0, 1), min_size=16, max_size=16))
    def test_property_matches_boolean_algebra(self, a, b):
        array = SramArray(2, 16)
        array.write_word(0, word(a))
        array.write_word(1, word(b))
        and_, nor = array.bitline_words(0, 1)
        for c in range(16):
            assert (and_ >> c) & 1 == a[c] & b[c]
            assert (nor >> c) & 1 == 1 - (a[c] | b[c])


class TestBulkState:
    def test_clear(self, array):
        array.write_word(0, word([1] * 16))
        array.clear()
        assert array.words == [0] * 8
