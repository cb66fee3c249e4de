"""Functional semantics of the vector intrinsics layer."""

import numpy as np
import pytest

from repro.errors import IsaError, MemoryModelError
from repro.isa import VectorContext
from repro.isa.intrinsics import BINARY_SEMANTICS, COMPARE_SEMANTICS, wrap32

I32MIN, I32MAX = -(2 ** 31), 2 ** 31 - 1


@pytest.fixture
def ctx():
    context = VectorContext(vlmax=16, name="t")
    context.setvl(16)
    return context


def vec(ctx, values, name=None):
    name = name or f"buf{len(ctx.vm.buffers)}"
    buf = ctx.vm.alloc_i32(name, np.asarray(values, dtype=np.int64).astype(np.int32))
    return ctx.vle32(buf)


class TestWrap32:
    def test_identity_in_range(self):
        vals = np.array([0, 1, -1, I32MAX, I32MIN])
        assert np.array_equal(wrap32(vals), vals)

    def test_overflow_wraps(self):
        assert wrap32(np.array([2 ** 31]))[0] == I32MIN
        assert wrap32(np.array([-2 ** 31 - 1]))[0] == I32MAX

    def test_multiplication_wrap(self):
        assert wrap32(np.array([3 * 10 ** 9]))[0] == 3 * 10 ** 9 - 2 ** 32


class TestControl:
    def test_setvl_grants_min(self):
        ctx = VectorContext(vlmax=16)
        assert ctx.setvl(100) == 16
        assert ctx.setvl(5) == 5
        assert ctx.setvl(0) == 0

    def test_negative_avl(self):
        ctx = VectorContext(vlmax=16)
        with pytest.raises(IsaError):
            ctx.setvl(-1)

    def test_zero_vlmax_rejected(self):
        with pytest.raises(IsaError):
            VectorContext(vlmax=0)

    def test_ops_before_setvl_rejected(self):
        ctx = VectorContext(vlmax=8)
        buf = ctx.vm.alloc_i32("a", 8)
        with pytest.raises(IsaError):
            ctx.vle32(buf)


class TestArithmetic:
    def test_add_wraps(self, ctx):
        a = vec(ctx, [I32MAX] * 16)
        r = ctx.vadd(a, 1)
        assert (r.values == I32MIN).all()

    def test_sub(self, ctx):
        a = vec(ctx, range(16))
        r = ctx.vsub(a, 20)
        assert list(r.values) == [i - 20 for i in range(16)]

    def test_rsub(self, ctx):
        a = vec(ctx, range(16))
        r = ctx.vrsub(a, 100)
        assert list(r.values) == [100 - i for i in range(16)]

    def test_mul_wraps(self, ctx):
        a = vec(ctx, [65536] * 16)
        r = ctx.vmul(a, 65536)
        assert (r.values == 0).all()

    def test_mulh(self, ctx):
        a = vec(ctx, [1 << 20] * 16)
        r = ctx.vmulh(a, 1 << 20)
        assert (r.values == 1 << 8).all()

    def test_logic_ops(self, ctx):
        a = vec(ctx, [0b1100] * 16)
        b = vec(ctx, [0b1010] * 16)
        assert (ctx.vand(a, b).values == 0b1000).all()
        assert (ctx.vor(a, b).values == 0b1110).all()
        assert (ctx.vxor(a, b).values == 0b0110).all()
        assert (ctx.vnot(a).values == ~0b1100).all()

    def test_min_max_signed(self, ctx):
        a = vec(ctx, [-5] * 16)
        b = vec(ctx, [3] * 16)
        assert (ctx.vmin(a, b).values == -5).all()
        assert (ctx.vmax(a, b).values == 3).all()

    def test_minu_maxu_unsigned(self, ctx):
        a = vec(ctx, [-1] * 16)  # 0xFFFFFFFF unsigned
        b = vec(ctx, [1] * 16)
        assert (ctx.vminu(a, b).values == 1).all()
        assert (ctx.vmaxu(a, b).values == -1).all()


class TestShifts:
    def test_sll_masks_amount(self, ctx):
        a = vec(ctx, [1] * 16)
        assert (ctx.vsll(a, 33).values == 2).all()  # 33 & 31 == 1

    def test_srl_logical(self, ctx):
        a = vec(ctx, [-1] * 16)
        assert (ctx.vsrl(a, 28).values == 0xF).all()

    def test_sra_arithmetic(self, ctx):
        a = vec(ctx, [-16] * 16)
        assert (ctx.vsra(a, 2).values == -4).all()

    def test_variable_shift(self, ctx):
        a = vec(ctx, [1] * 16)
        amounts = vec(ctx, range(16))
        r = ctx.vsll(a, amounts)
        assert list(r.values) == [1 << i for i in range(16)]


class TestDivision:
    def test_div_truncates_toward_zero(self, ctx):
        a = vec(ctx, [-7] * 16)
        assert (ctx.vdiv(a, 2).values == -3).all()

    def test_div_by_zero_is_minus_one(self, ctx):
        a = vec(ctx, [42] * 16)
        assert (ctx.vdiv(a, 0).values == -1).all()

    def test_rem_sign_follows_dividend(self, ctx):
        a = vec(ctx, [-7] * 16)
        assert (ctx.vrem(a, 2).values == -1).all()

    def test_rem_by_zero_is_dividend(self, ctx):
        a = vec(ctx, [42] * 16)
        assert (ctx.vrem(a, 0).values == 42).all()

    def test_divu_by_zero_is_all_ones(self, ctx):
        a = vec(ctx, [42] * 16)
        assert (ctx.vdivu(a, 0).values == -1).all()

    def test_divu_treats_operands_unsigned(self, ctx):
        a = vec(ctx, [-2] * 16)  # 0xFFFFFFFE
        r = ctx.vdivu(a, 2)
        assert (r.values == 0x7FFFFFFF).all()


class TestComparesAndSelect:
    def test_compare_family(self, ctx):
        a = vec(ctx, range(16))
        assert ctx.vmslt(a, 8).count() == 8
        assert ctx.vmsle(a, 8).count() == 9
        assert ctx.vmsgt(a, 8).count() == 7
        assert ctx.vmsge(a, 8).count() == 8
        assert ctx.vmseq(a, 3).count() == 1
        assert ctx.vmsne(a, 3).count() == 15

    def test_merge(self, ctx):
        a = vec(ctx, range(16))
        b = vec(ctx, [100] * 16)
        m = ctx.vmslt(a, 4)
        r = ctx.vmerge(m, a, b)
        assert list(r.values) == [0, 1, 2, 3] + [100] * 12

    def test_masked_add_keeps_old(self, ctx):
        a = vec(ctx, [1] * 16)
        old = vec(ctx, [7] * 16)
        m = ctx.vmslt(vec(ctx, range(16)), 8)
        r = ctx.vadd(a, 10, mask=m, old=old)
        assert list(r.values) == [11] * 8 + [7] * 8


#: Scalars just outside the int32 range, and 2**32, which wraps to zero.
WRAP_EDGES = (2 ** 31, -2 ** 31 - 1, 2 ** 32, 2 ** 32 + 5)
EDGE_LANES = [0, 1, -1, 2, -2, 31, 32, 33, I32MAX, I32MIN, I32MAX - 1,
              I32MIN + 1, 0x7FFF, -0x8000, 5, -5]


class TestScalarOperands:
    """A scalar operand acts as a register holding its ``vmv`` splat."""

    @pytest.mark.parametrize("scalar", WRAP_EDGES)
    @pytest.mark.parametrize("op", sorted(set(BINARY_SEMANTICS) - {"vnot"}))
    def test_binary(self, ctx, op, scalar):
        a = vec(ctx, EDGE_LANES)
        by_scalar = getattr(ctx, op)(a, scalar)
        by_register = getattr(ctx, op)(a, ctx.vmv(scalar))
        assert np.array_equal(by_scalar.values, by_register.values)

    @pytest.mark.parametrize("scalar", WRAP_EDGES)
    @pytest.mark.parametrize("op", sorted(COMPARE_SEMANTICS))
    def test_compare_and_merge(self, ctx, op, scalar):
        a = vec(ctx, EDGE_LANES)
        mask = getattr(ctx, op)(a, scalar)
        assert np.array_equal(mask.values,
                              getattr(ctx, op)(a, ctx.vmv(scalar)).values)
        assert np.array_equal(ctx.vmerge(mask, a, scalar).values,
                              ctx.vmerge(mask, a, ctx.vmv(scalar)).values)


class TestMemoryOps:
    def test_store_load_roundtrip(self, ctx):
        buf = ctx.vm.alloc_i32("out", 16)
        a = vec(ctx, range(16))
        ctx.vse32(a, buf)
        assert list(buf.data) == list(range(16))

    def test_masked_store(self, ctx):
        buf = ctx.vm.alloc_i32("out", np.full(16, -1, dtype=np.int32))
        a = vec(ctx, range(16))
        m = ctx.vmsge(a, 8)
        ctx.vse32(a, buf, mask=m)
        assert list(buf.data) == [-1] * 8 + list(range(8, 16))

    def test_strided_load(self, ctx):
        buf = ctx.vm.alloc_i32("m", np.arange(64, dtype=np.int32))
        r = ctx.vlse32(buf, offset=1, stride_elems=4)
        assert list(r.values) == [1 + 4 * i for i in range(16)]

    def test_strided_store(self, ctx):
        buf = ctx.vm.alloc_i32("m", 64)
        ctx.vsse32(vec(ctx, range(16)), buf, offset=0, stride_elems=4)
        assert buf.data[0::4].tolist() == list(range(16))
        assert buf.data[1::4].tolist() == [0] * 16

    def test_gather(self, ctx):
        table = ctx.vm.alloc_i32("t", np.arange(100, dtype=np.int32) * 10)
        idx = vec(ctx, [5] * 16)
        assert (ctx.vluxei32(table, idx).values == 50).all()

    def test_scatter(self, ctx):
        table = ctx.vm.alloc_i32("t", 100)
        idx = vec(ctx, range(16))
        ctx.vsuxei32(vec(ctx, [9] * 16), table, idx)
        assert (table.data[:16] == 9).all()

    def test_gather_out_of_range(self, ctx):
        table = ctx.vm.alloc_i32("t", 4)
        idx = vec(ctx, [100] * 16)
        with pytest.raises(IsaError):
            ctx.vluxei32(table, idx)

    def test_load_overrun(self, ctx):
        buf = ctx.vm.alloc_i32("small", 4)
        with pytest.raises(IsaError):
            ctx.vle32(buf)

    def test_trace_emits_memory_pattern(self, ctx):
        buf = ctx.vm.alloc_i32("a", 16)
        ctx.vle32(buf)
        instr = list(ctx.trace.vector_instrs())[-1]
        assert instr.op == "vle32"
        assert instr.mem.base == buf.base
        assert instr.mem.count == 16


class TestCrossElement:
    def test_slidedown(self, ctx):
        a = vec(ctx, range(16))
        r = ctx.vslidedown(a, 3)
        assert list(r.values) == list(range(3, 16)) + [0, 0, 0]

    def test_slideup_with_old(self, ctx):
        a = vec(ctx, range(16))
        old = vec(ctx, [-1] * 16)
        r = ctx.vslideup(a, 2, old=old)
        assert list(r.values) == [-1, -1] + list(range(14))

    def test_rgather(self, ctx):
        a = vec(ctx, [v * 2 for v in range(16)])
        idx = vec(ctx, [15 - i for i in range(16)])
        r = ctx.vrgather(a, idx)
        assert list(r.values) == [2 * (15 - i) for i in range(16)]

    def test_rgather_out_of_range_is_zero(self, ctx):
        a = vec(ctx, [7] * 16)
        idx = vec(ctx, [99] * 16)
        assert (ctx.vrgather(a, idx).values == 0).all()

    def test_reductions(self, ctx):
        a = vec(ctx, range(16))
        assert ctx.vredsum(a) == sum(range(16))
        assert ctx.vredsum(a, init=100) == 100 + sum(range(16))
        assert ctx.vredmax(a) == 15
        assert ctx.vredmin(a) == 0
        assert ctx.vredxor(a) == np.bitwise_xor.reduce(np.arange(16))

    def test_redsum_wraps(self, ctx):
        a = vec(ctx, [I32MAX] * 16)
        expected = wrap32(np.array([16 * I32MAX]))[0]
        assert ctx.vredsum(a) == expected

    def test_masked_reduction(self, ctx):
        a = vec(ctx, range(16))
        m = ctx.vmslt(a, 4)
        assert ctx.vredsum(a, mask=m) == 0 + 1 + 2 + 3

    def test_vmv_x_s(self, ctx):
        a = vec(ctx, range(16))
        assert ctx.vmv_x_s(a) == 0

    def test_viota(self, ctx):
        r = ctx.viota(start=5, step=3)
        assert list(r.values) == [5 + 3 * i for i in range(16)]


class TestVirtualMemory:
    def test_line_aligned_and_guarded(self, ctx):
        a = ctx.vm.alloc_i32("a", 3)
        b = ctx.vm.alloc_i32("b", 3)
        assert a.base % 64 == 0 and b.base % 64 == 0
        assert b.base >= a.end + 64  # guard line between buffers

    def test_duplicate_name(self, ctx):
        ctx.vm.alloc_i32("a", 4)
        with pytest.raises(MemoryModelError):
            ctx.vm.alloc_i32("a", 4)

    def test_addr_of_bounds(self, ctx):
        a = ctx.vm.alloc_i32("a", 4)
        with pytest.raises(MemoryModelError):
            a.addr_of(4)

    def test_lookup(self, ctx):
        ctx.vm.alloc_i32("a", 4)
        assert "a" in ctx.vm
        with pytest.raises(MemoryModelError):
            ctx.vm["missing"]
