"""The memory model's tag walk plus timing replay against the level chain.

The hierarchy serves each request in two steps: a tag walk that reduces
it to a one-byte code (the serving level and the DRAM writebacks of its
LLC victim), and a timing replay of that code.  A machine's run records
its codes on the compiled trace under its walk key, and every later run
with that key replays them without touching a tag array.

The oracle here is the level chain the two steps replaced
(``access → _from_l1 → _from_l2 → _from_llc → _from_dram``, tags and
time interleaved), kept as a test-local model.  Every request a machine
issues is logged and replayed through the oracle, on every tiny cell and
on backprop at the benchmark's mid-size inputs on both cache geometries,
for the run that walks and for a run that replays.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.compiler import compile_trace
from repro.config import SystemConfig, all_system_names, make_system
from repro.cores import machine as machine_module
from repro.errors import MemoryModelError
from repro.experiments import ExperimentRunner, sweep_pairs
from repro.experiments.systems import build_machine, trace_vlmax
from repro.mem.cache import CacheArray
from repro.mem.dram import FastDramChannel
from repro.mem.hierarchy import DRAM, FastMemorySystem, TagWalk
from repro.mem.mshr import MshrPool
from repro.workloads import REGISTRY

TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}

#: Backprop at the benchmark harness's mid-size inputs: its weights
#: overflow the EVE-mode L2, so column re-reads take the LLC path.
BACKPROP_BENCH = {"backprop": {"n_in": 4096, "n_hidden": 16}}


class ChainModel:
    """The level chain: each request walks the tags and takes its time
    level by level, nested."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.l1d = CacheArray(config.l1d)
        self.l2 = CacheArray(config.l2)
        self.llc = CacheArray(config.llc)
        self.l1d_mshrs = MshrPool(config.l1d.mshrs, "l1d")
        self.l2_mshrs = MshrPool(config.l2.mshrs, "l2")
        self.llc_mshrs = MshrPool(config.llc.mshrs, "llc")
        self.dram = FastDramChannel(config.dram, config.llc.line_bytes)
        self._l2_bank_free = [0.0] * config.l2.banks
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0

    def _from_dram(self, now, line_addr, is_store):
        grant, stall = self.llc_mshrs.acquire(now)
        _, done = self.dram.service(grant + self.config.llc.hit_latency)
        evicted = self.llc.fill(line_addr, is_store)
        if evicted is not None:
            ev_line, ev_dirty = evicted
            if ev_dirty:
                self.dram.writeback(done)
            if self.l2.invalidate(ev_line):
                self.dram.writeback(done)
            self.l1d.invalidate(ev_line)
        self.llc_mshrs.release(done)
        return grant, done, "dram", stall

    def _from_llc(self, now, line_addr, is_store):
        if self.llc.lookup(line_addr, is_store):
            return now, now + self.config.llc.hit_latency, "llc", 0.0
        return self._from_dram(now, line_addr, is_store)

    def _from_l2(self, now, line_addr, is_store):
        bank = (line_addr // self.l2.line_bytes) % self.config.l2.banks
        at = self._l2_bank_free[bank]
        start = at if at > now else now
        self._l2_bank_free[bank] = start + 1.0
        if self.l2.lookup(line_addr, is_store):
            return now, start + self.config.l2.hit_latency, "l2", start - now
        grant, stall = self.l2_mshrs.acquire(start)
        _, done, level, inner_stall = self._from_llc(
            grant + self.config.l2.hit_latency, line_addr, False)
        evicted = self.l2.fill(line_addr, is_store)
        if evicted is not None and evicted[1]:
            if not self.llc.lookup(evicted[0], is_store=True):
                self.llc.fill(evicted[0], True)
        self.l2_mshrs.release(done)
        return grant, done, level, stall + inner_stall

    def _from_l1(self, now, line_addr, is_store):
        if self.l1d.lookup(line_addr, is_store):
            return now, now + self.config.l1d.hit_latency, "l1", 0.0
        grant, stall = self.l1d_mshrs.acquire(now)
        _, done, level, inner_stall = self._from_l2(
            grant + self.config.l1d.hit_latency, line_addr, False)
        evicted = self.l1d.fill(line_addr, is_store)
        if evicted is not None and evicted[1]:
            if not self.l2.lookup(evicted[0], is_store=True):
                self.l2.fill(evicted[0], True)
        self.l1d_mshrs.release(done)
        return grant, done, level, stall + inner_stall

    def access(self, now, line_addr, is_store, port="l1"):
        chain = {"l1": self._from_l1, "l2": self._from_l2,
                 "llc": self._from_llc}[port]
        grant, done, level, stall = chain(now, line_addr, is_store)
        if port == "llc":
            self.vector_requests += 1
            self.vector_mshr_stall += stall
            if stall > 0:
                self.vector_stalled_requests += 1
        return grant, done, level, stall

    def stream(self, start, lines, is_store, port, interval, window=None):
        """``stream()``'s contract: one :meth:`access` per request, each
        issued under ``max(at, grant) + interval``."""
        t = first_done = last_done = start
        stall = 0.0
        for i, line in enumerate(lines):
            at = t if window is None else window.acquire(t)[0]
            grant, done, _, mshr_stall = self.access(at, line, is_store, port)
            if window is not None:
                window.release(done)
            if i == 0:
                first_done = done
            last_done = max(last_done, done)
            stall += mshr_stall
            t = max(at, grant) + interval
        return t, first_done, last_done, stall

    level_stats = FastMemorySystem.level_stats


def _completion(c) -> list:
    """An ``access()`` answer, ``(grant, done, level, mshr_stall)``, as
    a list."""
    grant, done, level, mshr_stall = c
    return [grant, done, level, mshr_stall]


def _vector_counters(mem) -> tuple:
    return (mem.vector_requests, mem.vector_mshr_stall,
            mem.vector_stalled_requests)


class RequestLog:
    """Builds every machine's hierarchy through :meth:`build`, logging
    each ``access``/``stream`` call the machine makes and its answer."""

    def __init__(self, monkeypatch) -> None:
        self.mem: Optional[FastMemorySystem] = None
        self.calls: List[tuple] = []
        build = machine_module.memory_system
        monkeypatch.setattr(machine_module, "memory_system",
                            lambda *args: self._logged(build(*args)))

    def _logged(self, mem: FastMemorySystem) -> FastMemorySystem:
        self.mem, self.calls = mem, []
        calls = self.calls
        access, stream = mem.access, mem.stream
        streaming = []

        def logged_access(now, line_addr, is_store, port="l1"):
            completion = access(now, line_addr, is_store, port)
            if not streaming:  # the kernel's own misses are not calls
                calls.append(("access", (now, line_addr, is_store, port),
                              _completion(completion)))
            return completion

        def logged_stream(start, lines, is_store, port, interval,
                          window=None):
            streaming.append(True)
            try:
                got = stream(start, lines, is_store, port, interval,
                             window=window)
            finally:
                streaming.pop()
            calls.append(("stream", (start, lines, is_store, port, interval),
                          window, got))
            return got

        mem.access, mem.stream = logged_access, logged_stream
        return mem

    def requests(self) -> int:
        return sum(1 if call[0] == "access" else len(call[1][1])
                   for call in self.calls)


def _replay_through_the_chain(log: RequestLog, result, context) -> None:
    """Every logged call, replayed through the chain, answers the same,
    and the run ends with the same statistics and vector counters."""
    mem = log.mem
    oracle = ChainModel(mem.config)
    windows = {}
    for call in log.calls:
        if call[0] == "access":
            _, args, want = call
            assert _completion(oracle.access(*args)) == want, context
        else:
            _, args, window, want = call
            twin = None
            if window is not None:
                twin = windows.setdefault(
                    id(window), MshrPool(window.size, window.name))
            assert oracle.stream(*args, window=twin) == want, context
    assert result.mem_stats == oracle.level_stats(result.cycles), context
    assert _vector_counters(mem) == _vector_counters(oracle), context


def _run_twice(runner, log, system, workload):
    """Run one cell twice on one machine over the runner's compiled
    trace; each run is checked against the chain.  Returns whether each
    run replayed a recorded walk."""
    machine = build_machine(system)
    vlmax = trace_vlmax(machine.config)
    trace = runner._trace(workload, vlmax)
    compiled = runner._compiled_for(workload, vlmax)
    replayed = []
    for _ in range(2):
        result = machine.run(trace, compiled=compiled)
        replayed.append(log.mem._replaying is not None)
        _replay_through_the_chain(log, result, (system, workload))
        walk = compiled.walks[machine._walk_key]
        assert isinstance(walk.codes, (bytes, bytearray))
        assert len(walk.codes) == log.requests() > 0  # a byte a request
    return replayed


class TestWalkPlusReplayEqualsTheChain:
    def test_every_tiny_cell_walking_and_replaying(self, monkeypatch):
        log = RequestLog(monkeypatch)
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        keys = set()
        for system, workload in sweep_pairs(all_system_names()):
            replayed = _run_twice(runner, log, system, workload)
            machine = build_machine(system)
            compiled = runner._compiled_for(
                workload, trace_vlmax(machine.config))
            key = (id(compiled), machine._walk_key)
            # The first run of a walk key walks; every later one replays.
            assert replayed == [key in keys, True], (system, workload)
            keys.add(key)
        # Per kernel: one walk each for IO+O3, O3+IV, O3+DV and the six
        # EVE widths, which share one program at tiny sizes.
        walks = sum(len(c.walks) for c in runner._compiled.values())
        assert walks == len(keys) == 28

    @pytest.mark.parametrize("system", ["IO", "O3+EVE-4"])
    def test_backprop_at_bench_params_on_both_geometries(self, monkeypatch,
                                                         system):
        log = RequestLog(monkeypatch)
        runner = ExperimentRunner(params_override=BACKPROP_BENCH)
        assert _run_twice(runner, log, system, "backprop") == [False, True]


class TestDirtyVictims:
    def test_a_victim_dirty_in_llc_and_l2_costs_two_writebacks(self):
        """A line stored on the LLC port, re-read and stored on the L2
        port, then evicted from its LLC set: both dirty copies write
        back, and the code says so."""
        config = make_system("O3")
        stride = config.llc.sets * config.llc.line_bytes
        requests = [(0, True, "llc"), (0, False, "l2"), (0, True, "l2")]
        requests += [(i * stride, False, "llc")
                     for i in range(1, config.llc.ways + 1)]
        mem, oracle = FastMemorySystem(config), ChainModel(config)
        for now, request in enumerate(requests):
            assert _completion(mem.access(float(now), *request)) == \
                _completion(oracle.access(float(now), *request))
        assert mem.dram.writebacks == oracle.dram.writebacks == 2
        assert mem.level_stats(100.0) == oracle.level_stats(100.0)
        assert mem.finish().codes[-1] == DRAM + 2


class TestSharing:
    def test_a_replaying_cell_touches_no_tag_array(self, monkeypatch):
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        touched = []
        make_walk = FastMemorySystem._walker

        def spying_walker(mem, port):
            walk = make_walk(mem, port)
            return lambda *a: touched.append("walk") or walk(*a)

        for walking, replayer in (("IO", "O3"), ("O3+EVE-1", "O3+EVE-2")):
            want = runner.run(walking, "backprop")
            with monkeypatch.context() as spy:
                for name in ("lookup", "fill", "invalidate"):
                    method = getattr(CacheArray, name)
                    spy.setattr(CacheArray, name, lambda *a, _m=method, _n=name:
                                touched.append(_n) or _m(*a))

                spy.setattr(FastMemorySystem, "_walker", spying_walker)
                machine = build_machine(replayer)
                got = machine.run(
                    runner.trace_for(replayer, "backprop"),
                    compiled=runner._compiled_for(
                        "backprop", trace_vlmax(machine.config)))
            assert touched == [], replayer
            # No set of any tag array was ever filled...
            assert all(lru is None for cache in (machine.mem.l1d,
                                                 machine.mem.l2,
                                                 machine.mem.llc)
                       for lru in cache._lru), replayer
            # ... yet the tag statistics are the walk's.
            for level in ("l1d", "l2", "llc"):
                assert got.mem_stats[level] == want.mem_stats[level]

    def test_the_attribute_cells_replay_the_sweep_walks(self):
        from repro.obs import AttributionCollector
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        runner.prefetch(sweep_pairs(("O3", "O3+EVE-4"), ("k-means",)))
        compiled = runner._compiled_for("k-means", 0)
        walks = dict(compiled.walks)
        result = runner.run("O3", "k-means",
                            attribution=AttributionCollector())
        assert compiled.walks == walks  # replayed: nothing new recorded
        assert result.cycles == runner.run("O3", "k-means").cycles


class TestRecordGuards:
    def _recorded(self, requests):
        mem = FastMemorySystem(make_system("O3+EVE-4"))
        for i in range(requests):
            mem.access(float(i), i * 64, False, "llc")
        return mem.finish()

    def test_a_walking_model_records_one_byte_per_request(self):
        walk = self._recorded(3)
        assert isinstance(walk, TagWalk)
        assert isinstance(walk.codes, bytes) and len(walk.codes) == 3
        assert walk.tag_counts == ((0, 0), (0, 0), (0, 3))

    def test_fewer_requests_than_the_record_raise(self):
        mem = FastMemorySystem(make_system("O3+EVE-4"))
        mem.replay(self._recorded(3))
        mem.access(0.0, 0, False, "llc")
        mem.stream(1.0, [64], False, "llc", 1.0)
        with pytest.raises(MemoryModelError):
            mem.finish()

    def test_more_requests_than_the_record_raise(self):
        for extra in ("access", "stream"):
            mem = FastMemorySystem(make_system("O3+EVE-4"))
            mem.replay(self._recorded(3))
            mem.stream(0.0, [0, 64], False, "llc", 1.0)
            with pytest.raises(MemoryModelError):
                if extra == "access":
                    mem.access(0.0, 128, False, "llc")
                    mem.access(1.0, 192, False, "llc")
                else:
                    mem.stream(3.0, [128, 192], False, "llc", 1.0)

    def test_walking_a_pattern_ahead_times_as_walking_each_access(self):
        lines = [0, 64, 0, 1 << 20, 64, 2 << 20]
        each = FastMemorySystem(make_system("IO"))
        ahead = FastMemorySystem(make_system("IO"))
        ahead.walk_ahead(lines, True)
        for i, line in enumerate(lines):
            assert _completion(ahead.access(2.0 * i, line, True)) == \
                _completion(each.access(2.0 * i, line, True))
        walked, walked_ahead = each.finish(), ahead.finish()
        assert (walked.codes, walked.tag_counts) == \
            (walked_ahead.codes, walked_ahead.tag_counts)

    def test_every_code_walked_ahead_is_timed_before_the_next_walk(self):
        mem = FastMemorySystem(make_system("IO"))
        mem.walk_ahead([0, 64], False)
        mem.access(0.0, 0, False)
        with pytest.raises(MemoryModelError):
            mem.walk_ahead([128], False)

    def test_a_replaying_model_walks_nothing_ahead(self):
        walking = FastMemorySystem(make_system("IO"))
        walking.walk_ahead([0, 64], False)
        for line in (0, 64):
            walking.access(0.0, line, False)
        mem = FastMemorySystem(make_system("IO"))
        mem.replay(walking.finish())
        mem.walk_ahead([0, 64], False)
        assert mem.l1d.hits == mem.l1d.misses == 0
        with pytest.raises(MemoryModelError):
            mem.walk_ahead([0, 64, 128], False)

    def test_replay_must_precede_the_first_request(self):
        mem = FastMemorySystem(make_system("O3+EVE-4"))
        mem.access(0.0, 0, False, "llc")
        with pytest.raises(MemoryModelError):
            mem.replay(self._recorded(1))

    def test_a_second_run_of_one_machine_replays_its_first(self):
        machine = build_machine("O3+DV")
        trace = REGISTRY["vvadd"].vector_trace(
            64, dict(REGISTRY["vvadd"].tiny_params))
        compiled = compile_trace(trace)
        first = machine.run(trace, compiled=compiled)
        walk = compiled.walks[machine._walk_key]
        second = machine.run(trace, compiled=compiled)
        assert machine.mem._replaying is walk
        assert (second.cycles, second.mem_stats) == (first.cycles,
                                                      first.mem_stats)
