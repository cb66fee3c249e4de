"""Memory-hierarchy integration tests (ports, inclusion, MSHR stalls)."""

import pytest

from repro.config import DramConfig, make_system, with_dram
from repro.errors import MemoryModelError
from repro.mem import MemorySystem
from repro.mem.reconfig import spawn_cost, teardown_cost


@pytest.fixture
def mem():
    return MemorySystem(make_system("O3"))


class TestScalarPort:
    def test_cold_miss_goes_to_dram(self, mem):
        completion = mem.access(0.0, 0x1000, False)
        assert completion.level == "dram"
        config = mem.config
        floor = (config.l1d.hit_latency + config.l2.hit_latency
                 + config.llc.hit_latency + config.dram.access_latency)
        assert completion.done >= floor

    def test_l1_hit_after_fill(self, mem):
        mem.access(0.0, 0x1000, False)
        completion = mem.access(100.0, 0x1000, False)
        assert completion.level == "l1"
        assert completion.done == 100.0 + mem.config.l1d.hit_latency

    def test_l2_hit_after_l1_eviction(self, mem):
        mem.access(0.0, 0x1000, False)
        # Thrash the L1 set: same L1 set, different lines (L1 has 128
        # sets x 64B = 8KB per way).
        for i in range(1, 5):
            mem.access(float(i), 0x1000 + i * 8192, False)
        completion = mem.access(1000.0, 0x1000, False)
        assert completion.level == "l2"

    def test_hierarchy_is_inclusive(self, mem):
        """An LLC victim's inner copies are invalidated."""
        mem.access(0.0, 0x1000, False)
        assert mem.l1d.lookup(0x1000)
        # Fill the 0x1000 LLC set until 0x1000 is evicted (16+1 ways,
        # same LLC set: set stride = 2048 sets * 64B = 128KB).
        for i in range(1, 20):
            mem.access(float(i * 10), 0x1000 + i * 2048 * 64, False)
        assert not mem.llc.lookup(0x1000) or not mem.l1d.lookup(0x1000)

    def test_store_marks_dirty_through_hierarchy(self, mem):
        mem.access(0.0, 0x1000, True)
        _, dirty = mem.l1d.resident_lines()
        assert dirty == 1


class TestVectorPort:
    def test_llc_port_skips_l2(self, mem):
        completion = mem.access(0.0, 0x2000, False, port="llc")
        assert completion.level == "dram"
        assert mem.l2.resident_lines() == (0, 0)
        assert mem.llc.lookup(0x2000)

    def test_llc_hit_latency(self, mem):
        mem.access(0.0, 0x2000, False, port="llc")
        completion = mem.access(500.0, 0x2000, False, port="llc")
        assert completion.level == "llc"
        assert completion.done == 500.0 + 12

    def test_l2_port_for_dv(self, mem):
        completion = mem.access(0.0, 0x3000, False, port="l2")
        assert completion.level == "dram"
        assert mem.l2.lookup(0x3000)
        assert mem.l1d.resident_lines() == (0, 0)

    def test_unknown_port(self, mem):
        with pytest.raises(MemoryModelError):
            mem.access(0.0, 0, False, port="l3")

    def test_vector_mshr_stall_accounting(self):
        """Saturating the 32 LLC MSHRs produces Figure 8 stalls."""
        config = with_dram(make_system("O3+EVE-8"),
                           DramConfig(access_latency=200.0, bytes_per_cycle=1e9))
        mem = MemorySystem(config)
        for i in range(200):
            mem.access(float(i), i * 64, False, port="llc")
        assert mem.vector_stalled_requests > 0
        assert mem.vector_mshr_stall > 0
        assert mem.vector_requests == 200

    def test_no_stalls_when_hitting(self, mem):
        for i in range(8):
            mem.access(float(i), i * 64, False, port="llc")
        stalled = mem.vector_mshr_stall
        for i in range(8):
            completion = mem.access(1000.0 + i, i * 64, False, port="llc")
            assert (completion.level, completion.mshr_stall) == ("llc", 0.0)
        assert mem.vector_mshr_stall == stalled

    def test_level_stats(self, mem):
        mem.access(0.0, 0, False)
        stats = mem.level_stats()
        assert stats["l1d"] == (0, 1)
        assert stats["llc"] == (0, 1)


class TestL2Banks:
    def test_bank_of(self, mem):
        """Line ``i`` sits in L2 bank ``i % banks``, and a bank takes one
        request a cycle: the timing replay (``access``) and the stream
        kernel's inline hits map lines to banks alike."""
        banks = mem.config.l2.banks
        hit = mem.config.l2.hit_latency
        lines = [0, 64, banks * 64]  # banks 0, 1 and 0 again
        for now, line in enumerate(lines):
            mem.access(float(now), line, False, port="l2")
        got = [mem.access(1000.0, line, False, port="l2") for line in lines]
        assert [c.level for c in got] == ["l2"] * 3
        assert [c.mshr_stall for c in got] == [0.0, 0.0, 1.0]
        assert [c.done for c in got] == [1000.0 + hit, 1000.0 + hit,
                                         1001.0 + hit]
        issue_end, first, last, stall = mem.stream(2000.0, lines, False,
                                                   "l2", 0.0)
        assert (first, last, stall) == (2000.0 + hit, 2001.0 + hit, 1.0)


class TestReconfig:
    def test_cold_spawn_is_free(self, mem):
        assert spawn_cost(mem.l2).cycles == 0

    def test_spawn_cost_scales_with_dirty_lines(self):
        # A full L2 (8192 lines reaches every way, including the carved-out
        # upper half); dirty lines in b only.
        mem_a = MemorySystem(make_system("O3"))
        mem_b = MemorySystem(make_system("O3"))
        for i in range(8192):
            mem_a.l2.fill(i * 64)
            mem_b.l2.fill(i * 64, dirty=True)
        cost_a = spawn_cost(mem_a.l2)
        cost_b = spawn_cost(mem_b.l2)
        assert cost_a.lines_walked == cost_b.lines_walked == 4096
        assert cost_b.cycles > cost_a.cycles
        assert cost_b.dirty_lines == 4096

    def test_spawn_flushes_the_ways(self, mem):
        for i in range(8192):
            mem.l2.fill(i * 64)
        before, _ = mem.l2.resident_lines()
        cost = spawn_cost(mem.l2)
        after, _ = mem.l2.resident_lines()
        assert cost.lines_walked == 4096
        assert after == before - cost.lines_walked

    def test_teardown_free(self):
        assert teardown_cost().is_free
