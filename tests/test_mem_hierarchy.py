"""Memory-hierarchy integration tests (ports, inclusion, MSHR stalls,
the stream kernel's hit runs, and no reference cycle through a model)."""

import gc
import weakref

import pytest

from repro.compiler import compile_trace
from repro.config import DramConfig, make_system, with_dram
from repro.errors import MemoryModelError
from repro.experiments import ExperimentRunner, sweep_pairs
from repro.experiments.systems import build_machine
from repro.mem import FastMemorySystem, MemorySystem
from repro.mem.reconfig import spawn_cost, teardown_cost
from repro.obs import AttributionCollector, MetricsRegistry, SpanTracer
from tests.conftest import TINY_PARAMS
from tests.test_compiler import _access_loop, _vector_counters


@pytest.fixture
def mem():
    return MemorySystem(make_system("O3"))


class TestScalarPort:
    def test_cold_miss_goes_to_dram(self, mem):
        _, done, level, _ = mem.access(0.0, 0x1000, False)
        assert level == "dram"
        config = mem.config
        floor = (config.l1d.hit_latency + config.l2.hit_latency
                 + config.llc.hit_latency + config.dram.access_latency)
        assert done >= floor

    def test_l1_hit_after_fill(self, mem):
        mem.access(0.0, 0x1000, False)
        _, done, level, _ = mem.access(100.0, 0x1000, False)
        assert level == "l1"
        assert done == 100.0 + mem.config.l1d.hit_latency

    def test_l2_hit_after_l1_eviction(self, mem):
        mem.access(0.0, 0x1000, False)
        # Thrash the L1 set: same L1 set, different lines (L1 has 128
        # sets x 64B = 8KB per way).
        for i in range(1, 5):
            mem.access(float(i), 0x1000 + i * 8192, False)
        _, _, level, _ = mem.access(1000.0, 0x1000, False)
        assert level == "l2"

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
        _, _, level, _ = mem.access(0.0, 0x2000, False, port="llc")
        assert level == "dram"
        assert mem.l2.resident_lines() == (0, 0)
        assert mem.llc.lookup(0x2000)

    def test_llc_hit_latency(self, mem):
        mem.access(0.0, 0x2000, False, port="llc")
        _, done, level, _ = mem.access(500.0, 0x2000, False, port="llc")
        assert level == "llc"
        assert done == 500.0 + 12

    def test_l2_port_for_dv(self, mem):
        _, _, level, _ = mem.access(0.0, 0x3000, False, port="l2")
        assert level == "dram"
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
            _, _, level, mshr_stall = mem.access(1000.0 + i, i * 64, False,
                                                 port="llc")
            assert (level, mshr_stall) == ("llc", 0.0)
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
        assert [level for _, _, level, _ in got] == ["l2"] * 3
        assert [stall for _, _, _, stall in got] == [0.0, 0.0, 1.0]
        assert [done for _, done, _, _ in got] == [1000.0 + hit, 1000.0 + hit,
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


# -- the stream kernel's hit runs ---------------------------------------------

def _hit_run_plan():
    """Streams whose long runs of first-level hits are broken by DRAM
    misses: a cold 400-line stream fills the cache, then runs of those
    lines are cut by a 60-miss burst that saturates the LLC's 32 MSHRs,
    by single misses, and by an opening burst; one stream is all hits
    and one is empty."""
    warm = [i * 64 for i in range(400)]
    fresh = [(1 << 24) + i * 64 for i in range(80)]
    return [warm,
            warm[:100] + fresh[:60] + warm[100:180] + fresh[60:61]
            + warm[180:],
            fresh[61:65] + warm[::-1][:150] + fresh[65:66] + warm[:3],
            warm[:60],
            [],
            warm[200:] + fresh[66:80]]


def _run_plan(stream, plan, port, interval):
    """Each stream of the plan from a fractional start, the next one
    starting while the last one's misses are still in flight."""
    now = 0.25
    answers = []
    for lines in plan:
        got = stream(now, lines, False, port, interval)
        answers.append(got)
        now = max(now + 1.0, got[0] - 40.0) + 0.375
    return answers


class TestStreamHitRuns:
    """With no LSQ window, no L2 bank and no observer, the stream kernel
    advances each run of first-level hits by the interval alone; with an
    observer it takes its per-request loop.  Either way it answers what
    one :meth:`access` per request answers."""

    @pytest.mark.parametrize("observer", [False, True],
                             ids=["plain", "observed"])
    @pytest.mark.parametrize("replaying", [False, True],
                             ids=["walking", "replaying"])
    @pytest.mark.parametrize("interval", [1.0, 1.0 / 3.0],
                             ids=["interval1", "interval1/3"])
    @pytest.mark.parametrize("port", ["llc", "l1"])
    def test_hit_runs_match_the_access_loop(self, port, interval, replaying,
                                            observer):
        config = make_system("O3+EVE-4")
        plan = _hit_run_plan()

        def model():
            if observer:
                return MemorySystem(config, metrics=MetricsRegistry())
            return FastMemorySystem(config)

        models = [model(), model()]
        if replaying:
            recorder = FastMemorySystem(config)
            _run_plan(recorder.stream, plan, port, interval)
            walk = recorder.finish()
            for mem in models:
                mem.replay(walk)
        fused, twin = models
        assert fused.observes == observer
        got = _run_plan(fused.stream, plan, port, interval)
        want = _run_plan(
            lambda *args: _access_loop(twin, *args), plan, port, interval)
        assert got == want
        walks = [mem.finish() for mem in models]
        if replaying:
            assert walks == [None, None]
        else:
            assert walks[0].codes == walks[1].codes
            assert walks[0].tag_counts == walks[1].tag_counts
        assert fused.level_stats(elapsed=got[-1][0]) == \
            twin.level_stats(elapsed=got[-1][0])
        assert _vector_counters(fused) == _vector_counters(twin)
        first = fused.llc if port == "llc" else fused.l1d
        assert first.hits > 500
        pools = (fused.l1d_mshrs, fused.l2_mshrs, fused.llc_mshrs)
        assert sum(pool.stalled_acquires for pool in pools) > 0
        if port == "llc":
            assert fused.vector_requests == sum(map(len, plan))
            assert fused.vector_stalled_requests > 0


# -- no reference cycle through a model ---------------------------------------

class TestNoReferenceCycles:
    """A memory model is freed by reference counting alone: nothing it
    stores (walkers, timers, the observer choice) refers back to it, so
    no run leaves its hierarchy to the cyclic collector."""

    @pytest.mark.parametrize("hooks", ["plain", "metered", "traced",
                                       "attributed"])
    def test_a_run_leaves_no_cyclic_garbage(self, hooks, no_collector):
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        trace = runner.trace_for("O3+EVE-4", "backprop")
        compiled = compile_trace(trace)
        kwargs = {"plain": {}, "metered": {"metrics": MetricsRegistry()},
                  "traced": {"tracer": SpanTracer()},
                  "attributed": {"attribution": AttributionCollector()}}
        machine = build_machine("O3+EVE-4", **kwargs[hooks])
        assert machine.run(trace, compiled).cycles > 0
        mem = weakref.ref(machine.mem)
        assert type(mem()) is (FastMemorySystem if hooks == "plain"
                               else MemorySystem)
        del machine
        assert mem() is None
        assert gc.collect() == 0

    def test_a_serial_sweep_leaves_no_cyclic_garbage(self, no_collector):
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        runner.prefetch(sweep_pairs())
        assert len(runner._results) == 70
        del runner
        assert gc.collect() == 0
