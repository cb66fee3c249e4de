"""Tests for trace events: MemAccess patterns, VectorInstr, ScalarBlock."""

import copyreg
import pickle

import numpy as np
import pytest

from repro.errors import IsaError
from repro.isa import MemAccess, ScalarBlock, Trace, VectorInstr
from repro.isa.opcodes import Category, OPCODES, opinfo


class TestMemAccess:
    def test_unit_stride_element_addresses(self):
        acc = MemAccess(base=0x1000, stride=4, count=4)
        assert list(acc.element_addresses()) == [0x1000, 0x1004, 0x1008, 0x100C]

    def test_unit_stride_single_line(self):
        acc = MemAccess(base=0x1000, stride=4, count=16)
        assert list(acc.line_addresses()) == [0x1000]

    def test_unit_stride_line_count(self):
        acc = MemAccess(base=0x1000, stride=4, count=64)
        assert len(acc.line_addresses()) == 4

    def test_unaligned_base_spans_extra_line(self):
        acc = MemAccess(base=0x1000 + 60, stride=4, count=16)
        assert len(acc.line_addresses()) == 2

    def test_large_stride_one_line_per_element(self):
        """The backprop pathology: 64-byte stride isolates every element."""
        acc = MemAccess(base=0x1000, stride=64, count=32)
        assert len(acc.line_addresses()) == 32

    def test_line_addresses_first_touch_order(self):
        addrs = np.array([0x2000, 0x1000, 0x2004], dtype=np.int64)
        acc = MemAccess(addresses=addrs, count=3)
        assert list(acc.line_addresses()) == [0x2000, 0x1000]
        assert acc.request_lines(False) == [0x2000, 0x1000]
        assert acc.request_lines(True) == [0x2000, 0x1000, 0x2000]

    @pytest.mark.parametrize("base,stride,count,distinct", [
        (0x1000, 4, 0, []),
        (0x1008, 0, 1, [0x1000]),
        (0x203C, -4, 40, [0x2000, 0x1FC0, 0x1F80]),
        (0x1000, 63, 3, [0x1000, 0x1040]),  # two elements share a line
        (0x1000, 64, 3, [0x1000, 0x1040, 0x1080]),
        (0x1004, 65, 3, [0x1000, 0x1040, 0x1080]),
        (0x1000 + 60, 4, 16, [0x1000, 0x1040]),
    ], ids=["count0", "count1-stride0", "stride-4", "stride63",
            "stride64", "stride65", "unaligned"])
    def test_request_lines_match_the_numpy_derivation(self, base, stride,
                                                      count, distinct):
        acc = MemAccess(base=base, stride=stride, count=count)
        assert acc.request_lines(False) == distinct
        assert acc.request_lines(False) == acc.line_addresses().tolist()
        assert acc.request_lines(True) == \
            (acc.element_addresses() // 64 * 64).tolist()
        assert all(type(line) is int
                   for line in acc.request_lines(False)
                   + acc.request_lines(True))

    def test_explicit_addresses(self):
        acc = MemAccess(addresses=np.array([0x40, 0x80]), count=2)
        assert acc.num_accesses == 2
        assert acc.total_bytes() == 8

    def test_zero_stride_multi_count_rejected(self):
        with pytest.raises(IsaError):
            MemAccess(base=0, stride=0, count=2)

    def test_total_bytes(self):
        assert MemAccess(base=0, stride=4, count=10).total_bytes() == 40


class TestVectorInstr:
    def test_memory_instr_requires_pattern(self):
        with pytest.raises(IsaError):
            VectorInstr(op="vle32", vl=8, vd=1)

    def test_unknown_opcode(self):
        with pytest.raises(IsaError):
            VectorInstr(op="vfmadd", vl=8)

    def test_negative_vl(self):
        with pytest.raises(IsaError):
            VectorInstr(op="vadd", vl=-1)

    def test_sources_include_index_register(self):
        instr = VectorInstr(op="vluxei32", vl=4, vd=3, vidx=7,
                            mem=MemAccess(addresses=np.zeros(4, dtype=np.int64),
                                          count=4))
        assert 7 in instr.sources

    def test_store_reads_its_data_register(self):
        instr = VectorInstr(op="vse32", vl=4, vd=5,
                            mem=MemAccess(base=0, stride=4, count=4,
                                          is_store=True))
        assert 5 in instr.sources
        assert instr.dest == -1

    def test_load_dest(self):
        instr = VectorInstr(op="vle32", vl=4, vd=5,
                            mem=MemAccess(base=0, stride=4, count=4))
        assert instr.dest == 5

    def test_scalar_writer_has_no_vector_dest(self):
        instr = VectorInstr(op="vmv.x.s", vl=1, vs1=2)
        assert instr.dest == -1

    def test_category(self):
        assert VectorInstr(op="vadd", vl=4, vd=1, vs1=2, vs2=3).category \
            is Category.IALU


class TestScalarBlock:
    def test_mem_count(self):
        block = ScalarBlock(n_instr=10, accesses=(
            MemAccess(base=0, stride=4, count=5),
            MemAccess(base=0x100, stride=4, count=3, is_store=True),
        ))
        assert block.n_mem == 8

    def test_negative_size_rejected(self):
        with pytest.raises(IsaError):
            ScalarBlock(n_instr=-1)


def _records():
    """One of each record, with every field away from its default where
    a field has one."""
    gather = MemAccess(addresses=np.array([0x40, 0x1000, 0x44],
                                          dtype=np.int64), count=3)
    strided = MemAccess(base=0x2000, stride=-8, count=4, is_store=True)
    return {
        "MemAccess": (gather, ("base", "stride", "count", "elem_bytes",
                               "is_store", "addresses")),
        "VectorInstr": (
            VectorInstr(op="vluxei32", vl=3, vd=4, vs1=5, vs2=6, scalar=7,
                        masked=True, mem=gather, vidx=8, vold=9),
            ("op", "vl", "vd", "vs1", "vs2", "scalar", "masked", "mem",
             "vidx", "vold")),
        "ScalarBlock": (ScalarBlock(n_instr=5, accesses=(strided, gather)),
                        ("n_instr", "accesses")),
    }


class TestRecordContract:
    """Trace events are immutable records that survive pickling."""

    @pytest.mark.parametrize("kind", ["MemAccess", "VectorInstr",
                                      "ScalarBlock"])
    def test_every_field_is_read_only(self, kind):
        record, fields = _records()[kind]
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_events_repickle_to_the_same_bytes(self):
        records = _records()
        trace = Trace("contract")
        trace.append(VectorInstr(op="vsetvl", vl=3, scalar=3))
        trace.append(records["VectorInstr"][0])
        trace.append(records["ScalarBlock"][0])
        trace.append(VectorInstr(
            op="vsse32", vl=4, vd=2,
            mem=MemAccess(base=0x80, stride=16, count=4, is_store=True)))
        trace.append(VectorInstr(op="vredsum", vl=3, vs1=2, masked=True))
        blob = pickle.dumps(trace.events)
        assert pickle.dumps(pickle.loads(blob)) == blob

    def test_unpickled_events_keep_their_opcode_facts(self):
        instr = _records()["VectorInstr"][0]
        loaded = pickle.loads(pickle.dumps(instr))
        assert loaded.info is instr.info
        assert loaded.category is Category.MEM_INDEX
        assert loaded.sources == instr.sources == (5, 6, 8)
        assert loaded.dest == 4
        assert loaded.mem.addresses.tolist() == [0x40, 0x1000, 0x44]

    def test_records_pickle_as_their_constructor_arguments(self):
        for record, fields in _records().values():
            rebuild, args = record.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[:2]
            assert rebuild is copyreg.__newobj__
            assert args == (type(record),) + tuple(getattr(record, name)
                                                   for name in fields)

    @pytest.mark.parametrize("args", [
        (0x10, -8, 4, 4, False, None),
        (0, 0, 2, 4, False, np.array([0.0, 4.0])),
        (0, 0, 2, 4, False, np.array([0, -4], dtype=np.int64)),
    ], ids=["strided-below-zero", "float-gather", "negative-gather"])
    def test_unpickling_runs_the_validations(self, args):
        """Unpickling rebuilds a record as ``cls.__new__(cls, *args)``
        (``copyreg.__newobj__``), so bad arguments fail there as they do
        in the constructor (``tests/test_analysis.py`` covers that)."""
        with pytest.raises(IsaError):
            MemAccess.__new__(MemAccess, *args)


class TestOpcodeTable:
    def test_every_opcode_has_category_and_macro(self):
        for name, info in OPCODES.items():
            assert info.name == name
            assert info.macro
            assert isinstance(info.category, Category)

    def test_memory_flags_consistent(self):
        for info in OPCODES.values():
            if info.is_load or info.is_store:
                assert info.category.is_memory
            if info.category.is_memory:
                assert info.is_load != info.is_store  # exactly one

    def test_reductions_are_cross_element(self):
        for info in OPCODES.values():
            if info.is_reduction:
                assert info.category is Category.XELEM

    def test_opinfo_unknown(self):
        with pytest.raises(IsaError):
            opinfo("vnope")

    def test_table4_categories_all_present(self):
        """Every Table IV mix column has at least one opcode behind it."""
        present = {info.category for info in OPCODES.values()}
        assert present == set(Category)
