"""Property-based tests (hypothesis) on core invariants.

Three layers: the intrinsics' two's-complement semantics against plain
integer arithmetic, the macro-op micro-programs against the intrinsics,
and structural invariants of traces and layouts.  The wrap to 32 bits
itself is checked against the modular formula it replaced, since every
other property here uses ``wrap32`` as its oracle.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.isa import VectorContext
from repro.isa.intrinsics import wrap32, wrap32_int
from repro.uops import MacroOpRom, MicroEngine

from tests.conftest import MacroTester

i32 = st.integers(-(2 ** 31), 2 ** 31 - 1)
small_lists = st.lists(i32, min_size=4, max_size=16)


def make_ctx(values_a, values_b):
    n = max(len(values_a), len(values_b))
    ctx = VectorContext(vlmax=n)
    ctx.setvl(n)
    a = ctx.vle32(ctx.vm.alloc_i32("a", np.resize(
        np.asarray(values_a, np.int64), n).astype(np.int32)))
    b = ctx.vle32(ctx.vm.alloc_i32("b", np.resize(
        np.asarray(values_b, np.int64), n).astype(np.int32)))
    return ctx, a, b


def modular_wrap32(x: int) -> int:
    """The oracle: signed 32-bit wrap by the modular formula."""
    return ((x & 0xFFFFFFFF) + 2 ** 31) % 2 ** 32 - 2 ** 31


#: The int64 extremes and the values either side of every 32-bit edge.
WRAP_EDGES = sorted({edge + delta
                     for edge in (0, 2 ** 31, -(2 ** 31), 2 ** 32, -(2 ** 32))
                     for delta in (-1, 0, 1)}
                    | {-(2 ** 63), -(2 ** 63) + 1, 2 ** 63 - 2, 2 ** 63 - 1})
int64s = st.one_of(st.integers(-(2 ** 63), 2 ** 63 - 1),
                   st.sampled_from(WRAP_EDGES))


class TestWrapProperties:
    def test_edges(self):
        want = [modular_wrap32(x) for x in WRAP_EDGES]
        got = wrap32(np.array(WRAP_EDGES, dtype=np.int64))
        assert got.dtype == np.int32
        assert got.tolist() == want
        assert [wrap32_int(x) for x in WRAP_EDGES] == want
        assert [wrap32_int(np.int64(x)) for x in WRAP_EDGES] == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(int64s, min_size=1, max_size=16))
    def test_wrap32_matches_the_modular_formula(self, xs):
        got = wrap32(np.array(xs, dtype=np.int64))
        assert got.dtype == np.int32
        assert got.tolist() == [modular_wrap32(x) for x in xs]

    @settings(max_examples=200, deadline=None)
    @given(int64s)
    def test_wrap32_int_matches_the_modular_formula(self, x):
        got = wrap32_int(x)
        assert type(got) is int
        assert got == modular_wrap32(x)


class TestIntrinsicsProperties:
    @settings(max_examples=50, deadline=None)
    @given(small_lists, small_lists)
    def test_add_matches_wrapped_integer_arithmetic(self, xs, ys):
        ctx, a, b = make_ctx(xs, ys)
        r = ctx.vadd(a, b)
        expected = wrap32(a.values.astype(np.int64) + b.values.astype(np.int64))
        assert np.array_equal(r.values.astype(np.int64), expected)

    @settings(max_examples=50, deadline=None)
    @given(small_lists, small_lists)
    def test_sub_is_add_of_negation(self, xs, ys):
        ctx, a, b = make_ctx(xs, ys)
        direct = ctx.vsub(a, b)
        negated = ctx.vadd(a, ctx.vadd(ctx.vnot(b), 1))
        assert np.array_equal(direct.values, negated.values)

    @settings(max_examples=50, deadline=None)
    @given(small_lists)
    def test_shift_pair_masks_low_bits(self, xs):
        ctx, a, _ = make_ctx(xs, xs)
        for k in (1, 5, 13):
            down_up = ctx.vsll(ctx.vsrl(a, k), k)
            masked = ctx.vand(a, wrap32(np.array([-(1 << k)]))[0].item())
            assert np.array_equal(down_up.values, masked.values)

    @settings(max_examples=50, deadline=None)
    @given(small_lists)
    def test_redsum_equals_wrapped_sum(self, xs):
        ctx, a, _ = make_ctx(xs, xs)
        assert ctx.vredsum(a) == int(
            wrap32(np.array([a.values.astype(np.int64).sum()]))[0])

    @settings(max_examples=50, deadline=None)
    @given(small_lists, small_lists)
    def test_min_max_partition(self, xs, ys):
        ctx, a, b = make_ctx(xs, ys)
        lo = ctx.vmin(a, b)
        hi = ctx.vmax(a, b)
        assert np.array_equal(
            lo.values.astype(np.int64) + hi.values.astype(np.int64),
            a.values.astype(np.int64) + b.values.astype(np.int64))

    @settings(max_examples=50, deadline=None)
    @given(small_lists, small_lists)
    def test_merge_partitions_by_mask(self, xs, ys):
        ctx, a, b = make_ctx(xs, ys)
        m = ctx.vmslt(a, b)
        taken = ctx.vmerge(m, a, b)
        other = ctx.vmerge(m, b, a)
        combined = set(zip(taken.values.tolist(), other.values.tolist()))
        expected = set(zip(a.values.tolist(), b.values.tolist())) | \
            set(zip(b.values.tolist(), a.values.tolist()))
        assert combined <= expected

    @settings(max_examples=50, deadline=None)
    @given(small_lists)
    def test_division_identity(self, xs):
        ctx, a, _ = make_ctx(xs, xs)
        for divisor in (1, 3, 7, 1000):
            q = ctx.vdiv(a, divisor)
            r = ctx.vrem(a, divisor)
            rebuilt = ctx.vadd(ctx.vmul(q, divisor), r)
            assert np.array_equal(rebuilt.values, a.values)


class TestMicroProgramProperties:
    """Random-input agreement between micro-programs and numpy, at the
    factors not exhaustively covered by the parametrized suite."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           factor=st.sampled_from([2, 16]))
    def test_add_mul_random(self, seed, factor):
        rng = np.random.default_rng(seed)
        tester = MacroTester(factor)
        a = rng.integers(-2 ** 31, 2 ** 31, tester.n)
        b = rng.integers(-2 ** 31, 2 ** 31, tester.n)
        got, _ = tester.run("add", a, b)
        assert np.array_equal(got, wrap32(a + b))
        got, _ = tester.run("mul", a, b)
        assert np.array_equal(got, wrap32(a * b))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), amount=st.integers(0, 31),
           factor=st.sampled_from([2, 16]))
    def test_shift_random(self, seed, amount, factor):
        rng = np.random.default_rng(seed)
        tester = MacroTester(factor)
        a = rng.integers(-2 ** 31, 2 ** 31, tester.n)
        got, _ = tester.run("shift_scalar", a, op="sll", amount=amount)
        assert np.array_equal(got, wrap32(a << amount))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_compare_total_order(self, seed):
        """lt + eq + gt partition every element pair."""
        rng = np.random.default_rng(seed)
        tester = MacroTester(8)
        a = rng.integers(-100, 100, tester.n)
        b = rng.integers(-100, 100, tester.n)
        lt, _ = tester.run("compare", a, b, op="lt")
        eq, _ = tester.run("compare", a, b, op="eq")
        gt, _ = tester.run("compare", a, b, op="gt")
        assert ((lt + eq + gt) == 1).all()

    @settings(max_examples=10, deadline=None)
    @given(factor=st.sampled_from([1, 2, 4, 8, 16, 32]))
    def test_timing_is_input_independent(self, factor):
        """The same program costs the same cycles for any binding/data —
        the property that makes the function/timing split exact."""
        rom = MacroOpRom(factor)
        timing_only = MicroEngine().run(rom.program("mul"))
        tester = MacroTester(factor)
        _, with_zeros = tester.run("mul", np.zeros(tester.n), np.zeros(tester.n))
        _, with_ones = tester.run("mul", np.full(tester.n, -1),
                                  np.full(tester.n, -1))
        assert timing_only == with_zeros == with_ones


class TestTraceProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=10),
           st.integers(1, 64))
    def test_stripmining_covers_exactly(self, chunks, vlmax):
        """setvl strip-mining processes every element exactly once."""
        total = sum(chunks)
        ctx = VectorContext(vlmax=vlmax)
        covered = 0
        for chunk in chunks:
            i = 0
            while i < chunk:
                vl = ctx.setvl(chunk - i)
                assert 0 < vl <= vlmax
                covered += vl
                i += vl
        assert covered == total

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2048), st.integers(0, 1 << 20),
           st.one_of(st.integers(-130, 130), st.integers(-5000, 5000)))
    def test_line_addresses_cover_all_elements(self, count, base, stride):
        """Both request-list forms equal their numpy derivation, as plain
        ints, and the distinct lines cover every element."""
        from repro.isa import MemAccess
        assume(count == 1 or stride != 0)
        if stride < 0:
            base += -stride * (count - 1)  # every address stays >= 0
        acc = MemAccess(base=base, stride=stride, count=count)
        distinct = list(acc.request_lines(False))
        per_element = list(acc.request_lines(True))
        assert distinct == acc.line_addresses().tolist()
        assert per_element == (acc.element_addresses() // 64 * 64).tolist()
        assert all(type(line) is int for line in distinct + per_element)
        lines = set(distinct)
        for addr in acc.element_addresses():
            assert (addr // 64) * 64 in lines
