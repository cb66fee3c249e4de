"""EVE machine-model tests (timing, overlap, stall attribution)."""

import pytest

from repro.config import make_system
from repro.core import EveMachine
from repro.core.units import DtuPool, VmuModel, VruModel
from repro.errors import SimulationError
from repro.isa import MemAccess, ScalarBlock, Trace, VectorInstr
from repro.mem.hierarchy import MemorySystem


def make_eve(factor=8):
    return EveMachine(make_system(f"O3+EVE-{factor}"))


def compute_trace(n=8, op="vadd", vl=256):
    trace = Trace("synthetic")
    trace.append(VectorInstr(op="vsetvl", vl=vl))
    for i in range(n):
        trace.append(VectorInstr(op=op, vl=vl, vd=(i % 8) + 1, vs1=10, vs2=20))
    return trace


class TestConstruction:
    def test_requires_eve_config(self):
        with pytest.raises(SimulationError):
            EveMachine(make_system("O3+DV"))

    @pytest.mark.parametrize("factor,vl", [(1, 2048), (8, 1024), (32, 256)])
    def test_hardware_vl_from_layout(self, factor, vl):
        machine = make_eve(factor)
        assert machine.config.vector.hardware_vl == vl

    def test_dtu_free_for_bit_parallel(self):
        machine = make_eve(32)
        machine.run(compute_trace(n=1))
        assert machine.dtu.cycles_per_line == 0.0


class TestComputeTiming:
    def test_busy_cycles_match_rom(self):
        machine = make_eve(8)
        result = machine.run(compute_trace(n=10, op="vadd"))
        per_add = machine.rom.cycles("add", masked=False)
        assert result.breakdown.busy == pytest.approx(10 * per_add)

    def test_mul_slower_than_add(self):
        adds = make_eve(8).run(compute_trace(n=10, op="vadd")).cycles
        muls = make_eve(8).run(compute_trace(n=10, op="vmul")).cycles
        assert muls > 10 * adds

    def test_compute_latency_independent_of_vl(self):
        """All in-situ ALUs run in lock-step: vl does not change cycles."""
        short = make_eve(8).run(compute_trace(n=10, vl=32)).cycles
        full = make_eve(8).run(compute_trace(n=10, vl=1024)).cycles
        assert short == pytest.approx(full)

    def test_breakdown_sums_to_total(self):
        machine = make_eve(8)
        result = machine.run(compute_trace(n=20, op="vmul"))
        assert result.breakdown.total() == pytest.approx(result.cycles, rel=0.01)


class TestMemoryOverlap:
    def load(self, base, vl=1024):
        return VectorInstr(op="vle32", vl=vl, vd=1,
                           mem=MemAccess(base=base, stride=4, count=vl))

    def test_load_then_dependent_compute_stalls(self):
        trace = Trace("ld-use")
        trace.append(VectorInstr(op="vsetvl", vl=1024))
        trace.append(self.load(0))
        trace.append(VectorInstr(op="vadd", vl=1024, vd=2, vs1=1, vs2=1))
        machine = make_eve(8)
        result = machine.run(trace)
        assert result.breakdown.ld_mem_stall > 0

    def test_independent_compute_overlaps_load(self):
        dependent = Trace("dep")
        independent = Trace("indep")
        for trace, src in ((dependent, 1), (independent, 9)):
            trace.append(VectorInstr(op="vsetvl", vl=1024))
            trace.append(self.load(0))
            for _ in range(3):
                trace.append(VectorInstr(op="vmul", vl=1024, vd=2,
                                         vs1=src, vs2=src))
        t_dep = make_eve(8).run(dependent).cycles
        t_indep = make_eve(8).run(independent).cycles
        assert t_indep < t_dep

    def test_store_drain_counts(self):
        trace = Trace("store")
        trace.append(VectorInstr(op="vsetvl", vl=1024))
        trace.append(VectorInstr(op="vse32", vl=1024, vd=1,
                                 mem=MemAccess(base=0, stride=4, count=1024,
                                               is_store=True)))
        result = make_eve(8).run(trace)
        assert result.breakdown.st_mem_stall > 0

    def test_vmfence_waits_for_stores(self):
        with_fence = Trace("fence")
        without = Trace("nofence")
        for trace in (with_fence, without):
            trace.append(VectorInstr(op="vsetvl", vl=1024))
            trace.append(VectorInstr(op="vse32", vl=1024, vd=1,
                                     mem=MemAccess(base=0, stride=4, count=1024,
                                                   is_store=True)))
        with_fence.append(VectorInstr(op="vmfence", vl=0))
        with_fence.append(ScalarBlock(n_instr=1000))
        without.append(ScalarBlock(n_instr=1000))
        assert make_eve(8).run(with_fence).cycles >= \
            make_eve(8).run(without).cycles

    def test_strided_load_hits_mshr_limit(self):
        """The backprop pathology: 64B stride, one line per element."""
        trace = Trace("strided")
        trace.append(VectorInstr(op="vsetvl", vl=1024))
        for i in range(4):
            trace.append(VectorInstr(op="vlse32", vl=1024, vd=i + 1,
                                     mem=MemAccess(base=i * 65536, stride=64,
                                                   count=1024)))
        result = make_eve(8).run(trace)
        assert result.vmu_llc_stall_frac > 0.1

    def test_unit_load_no_mshr_pressure_when_warm(self):
        trace = Trace("warm")
        trace.append(VectorInstr(op="vsetvl", vl=256))
        for _ in range(4):
            trace.append(self.load(0, vl=256))
        machine = make_eve(8)
        result = machine.run(trace)
        assert result.vmu_llc_stall_frac < 0.2


class TestVruPath:
    def test_reduction_uses_vru(self):
        trace = Trace("red")
        trace.append(VectorInstr(op="vsetvl", vl=1024))
        trace.append(VectorInstr(op="vredsum", vl=1024, vs1=1))
        machine = make_eve(8)
        machine.run(trace)
        assert machine.vru.busy_cycles > 0

    def test_back_to_back_reductions_stall(self):
        trace = Trace("reds")
        trace.append(VectorInstr(op="vsetvl", vl=1024))
        for _ in range(4):
            trace.append(VectorInstr(op="vredsum", vl=1024, vs1=1))
        result = make_eve(8).run(trace)
        assert result.breakdown.vru_stall >= 0  # attributed, never negative

    def test_gather_costs_more_than_reduction_stream(self):
        t_red = VruModel(segments=4, ports=32).reduce(0.0, active_arrays=32)
        t_gather = VruModel(segments=4, ports=32).cross_element(
            0.0, active_arrays=32)
        assert t_gather > t_red


class TestUnits:
    def test_vmu_stream_counts_lines(self):
        mem = MemorySystem(make_system("O3+EVE-8"))
        vmu = VmuModel(mem)
        pattern = MemAccess(base=0, stride=4, count=256)
        result = vmu.stream(0.0, pattern, pattern.request_lines(False))
        assert result.n_lines == 16
        assert result.issue_end >= 16

    def test_dtu_pool_throughput(self):
        pool = DtuPool(num_dtus=8, segments=4, bit_parallel=False)
        done = pool.process(0.0, n_lines=64)
        assert done == pytest.approx(64 * 4 / 8 + 4)

    def test_dtu_bit_parallel_is_free(self):
        pool = DtuPool(num_dtus=8, segments=1, bit_parallel=True)
        assert pool.process(5.0, n_lines=64) == 5.0

    def test_vru_serialises(self):
        vru = VruModel(segments=4, ports=32)
        first = vru.reduce(0.0, 32)
        second = vru.reduce(0.0, 32)
        assert second > first


class TestScalarInteraction:
    def test_scalar_result_stalls_commit(self):
        trace = Trace("vmvxs")
        trace.append(VectorInstr(op="vsetvl", vl=256))
        trace.append(VectorInstr(op="vmul", vl=256, vd=1, vs1=2, vs2=3))
        trace.append(VectorInstr(op="vmv.x.s", vl=1, vs1=1))
        trace.append(ScalarBlock(n_instr=10))
        result = make_eve(8).run(trace)
        # The scalar block runs after the round trip: total must exceed
        # the multiply latency plus the round trip.
        assert result.cycles > make_eve(8).rom.cycles("mul")

    def test_empty_stall_when_starved(self):
        trace = Trace("starved")
        trace.append(ScalarBlock(n_instr=5000))
        trace.append(VectorInstr(op="vsetvl", vl=256))
        trace.append(VectorInstr(op="vadd", vl=256, vd=1, vs1=2, vs2=3))
        result = make_eve(8).run(trace)
        assert result.breakdown.empty_stall > 1000
