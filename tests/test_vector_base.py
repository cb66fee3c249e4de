"""Shared vector-machine machinery: memory streams and scalar blocks."""

import pytest

from repro.config import DramConfig, make_system, with_dram
from repro.cores.vector_base import VectorMachineBase
from repro.isa import MemAccess, ScalarBlock, VectorInstr


@pytest.fixture
def machine():
    return VectorMachineBase(make_system("O3"))


class TestScoreboard:
    def test_deps_default_zero(self, machine):
        instr = VectorInstr(op="vadd", vl=4, vd=1, vs1=2, vs2=3)
        assert machine.deps_ready(instr) == 0.0

    def test_deps_take_max(self, machine):
        machine.set_ready(2, 10.0)
        machine.set_ready(3, 25.0)
        instr = VectorInstr(op="vadd", vl=4, vd=1, vs1=2, vs2=3)
        assert machine.deps_ready(instr) == 25.0

    def test_negative_reg_ignored(self, machine):
        machine.set_ready(-1, 99.0)
        assert -1 not in machine.reg_ready

    def test_reset(self, machine):
        machine.set_ready(2, 10.0)
        machine.reset()
        assert machine.reg_ready == {}


class TestStreamLines:
    def test_line_mode_counts_distinct_lines(self, machine):
        pattern = MemAccess(base=0, stride=4, count=64)  # 4 lines
        first, last, _ = machine.stream_lines(
            0.0, pattern, pattern.request_lines(False), "l2")
        assert machine.mem.l2.misses == 4
        assert last >= first > 0

    def test_per_element_mode_repeats_lines(self, machine):
        pattern = MemAccess(base=0, stride=8, count=64)  # 8 elems/line
        machine.stream_lines(0.0, pattern, pattern.request_lines(True), "l2")
        stats = machine.mem.l2.hits + machine.mem.l2.misses
        assert stats == 64  # one request per element

    def test_empty_pattern(self, machine):
        pattern = MemAccess(base=0, stride=4, count=0)
        first, last, stall = machine.stream_lines(
            5.0, pattern, pattern.request_lines(False), "l2")
        assert (first, last, stall) == (5.0, 5.0, 0.0)

    def test_issue_interval_paces_stream(self, machine):
        pattern = MemAccess(base=0, stride=64, count=32)
        lines = pattern.request_lines(False)
        _, fast_last, _ = machine.stream_lines(0.0, pattern, lines, "l2",
                                               issue_interval=1.0)
        slow_machine = VectorMachineBase(make_system("O3"))
        _, slow_last, _ = slow_machine.stream_lines(0.0, pattern, lines, "l2",
                                                    issue_interval=8.0)
        assert slow_last > fast_last

    def test_mshr_stall_total_reported(self):
        config = with_dram(make_system("O3"),
                           DramConfig(access_latency=500.0,
                                      bytes_per_cycle=1e9))
        machine = VectorMachineBase(config)
        pattern = MemAccess(base=0, stride=64, count=200)
        _, _, stall = machine.stream_lines(
            0.0, pattern, pattern.request_lines(False), "llc")
        assert stall > 0  # 200 cold misses against 32 LLC MSHRs


class TestScalarBlocks:
    def test_pure_compute_cost(self, machine):
        end = machine.run_scalar_block(0.0, ScalarBlock(n_instr=1000), ())
        assert end == pytest.approx(1000 * machine.config.core.base_cpi)

    def test_memory_extends_block(self, machine):
        pattern = MemAccess(base=0, stride=64, count=50)
        busy = machine.run_scalar_block(
            0.0, ScalarBlock(n_instr=10, accesses=(pattern,)),
            [pattern.request_lines(False)])
        assert busy > 10 * machine.config.core.base_cpi

    def test_warm_rerun_is_faster(self, machine):
        pattern = MemAccess(base=0, stride=64, count=50)
        block = ScalarBlock(n_instr=10, accesses=(pattern,))
        lines = [pattern.request_lines(False)]
        cold = machine.run_scalar_block(0.0, block, lines)
        warm = machine.run_scalar_block(cold, block, lines) - cold
        assert warm < cold
