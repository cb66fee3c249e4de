"""Trace-compiler and memory-model equivalence suite.

The compiler's contract has two halves, and this module tests both:

* **Timing is untouched.**  A compiled run replays every original event
  in original order, so cycles, instruction counts, and memory-system
  statistics must match the frozen reference whether a machine is
  handed only the trace (and compiles it on demand) or the runner's
  compiled trace, with or without instrumentation — across every
  workload x system cell.  Both memory models (:class:`FastMemorySystem`,
  and :class:`MemorySystem` with every hook on and with attribution
  alone) must reproduce a frozen reference request for request and cell
  for cell, and the one stream loop must observe what issuing each
  request through ``access()`` observes.

* **Analysis is conservative.**  Dead-op elimination produces the
  checker-facing view; its findings must be exactly the original
  findings minus the eliminated sites (the known-dirty corpus cases
  ``mask_merge`` and ``strided`` anchor this), the block schedule must
  respect every dependence edge, and result cells carry the compiler
  descriptor in their cache keys.
"""

import glob
import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis import check_trace
from repro.analysis.depgraph import build_depgraph
from repro.compiler import (CompilerConfig, compile_trace,
                            compiler_descriptor, eliminate_dead_ops,
                            schedule_blocks, verify_dce_findings)
from repro.compiler.blocks import event_kind
from repro.compiler.passes import DceResult
from repro.config import all_system_names, make_system
from repro.core.engine import EveMachine
from repro.errors import CompilerError, MemoryModelError
from repro.experiments import ExperimentRunner
from repro.experiments.parallel import (CACHE_VERSION, params_fingerprint,
                                        simulate_cell)
from repro.experiments.systems import build_machine
from repro.faults import fuzz
from repro.isa.intrinsics import VectorContext
from repro.mem.hierarchy import (PORTS, FastMemorySystem, MemorySystem,
                                 memory_system)
from repro.mem.mshr import MshrPool
from repro.obs import AttributionCollector, MetricsRegistry, SpanTracer
from repro.workloads import REGISTRY

#: Tiny problem sizes, same shape the conftest `tiny_runner` uses.
TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_IDS = [os.path.splitext(os.path.basename(p))[0] for p in
              sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))]

#: Corpus cases whose traces legitimately fail ``repro check`` with
#: dead-write errors (see test_analysis_corpus) — the satellite's
#: regression anchors for the DCE-vs-checker invariant.
KNOWN_DIRTY = ("mask_merge", "strided")


def corpus_trace(name):
    """Build the recorded trace of one corpus case (functional path)."""
    case = fuzz.load_case(os.path.join(CORPUS_DIR, f"{name}.json"))
    ctx = VectorContext(case.vlmax, name=name)
    bufs = {buf_name: ctx.vm.alloc_i32(
                buf_name, np.array(vals, dtype=np.int64).astype(np.int32))
            for buf_name, vals in case.inputs.items()}
    ctx.setvl(case.avl)
    slots = []
    for op in case.ops:
        slots.append(fuzz._apply(ctx, op, slots, bufs))
    return ctx.finalize_trace()


# -- satellite 3: DCE never contradicts `repro check` -------------------------


class TestDeadOpElimination:
    @pytest.mark.parametrize("name", KNOWN_DIRTY)
    def test_known_dirty_cases_compile_clean_in_strict_mode(self, name):
        trace = corpus_trace(name)
        original = [f for f in check_trace(trace) if f.severity == "error"]
        assert original and {f.rule for f in original} == {"dead-write"}

        compiled = compile_trace(trace, CompilerConfig(strict=True))
        assert compiled.dce_ok
        # Every original finding is anchored at an eliminated site ...
        assert {f.index for f in original} <= set(compiled.eliminated)
        # ... so the compiled view carries no findings of its own.
        assert [f for f in check_trace(compiled.optimized)
                if f.severity == "error"] == []

    @pytest.mark.parametrize("name", CORPUS_IDS)
    def test_findings_invariant_holds_across_the_corpus(self, name):
        trace = corpus_trace(name)
        dce = eliminate_dead_ops(trace)
        ok, missing, unexpected = verify_dce_findings(trace, dce)
        assert ok, (missing, unexpected)

    def test_index_map_reconstructs_the_survivors(self):
        trace = corpus_trace("mask_merge")
        dce = eliminate_dead_ops(trace)
        assert dce.eliminated and dce.rounds >= 1
        assert set(dce.eliminated).isdisjoint(dce.index_map)
        assert len(dce.eliminated) + len(dce.index_map) == len(trace.events)
        for orig, new in dce.index_map.items():
            assert dce.trace.events[new] is trace.events[orig]

    def test_elimination_reaches_a_fixpoint(self):
        trace = corpus_trace("strided")
        once = eliminate_dead_ops(trace)
        again = eliminate_dead_ops(once.trace)
        assert again.eliminated == () and again.rounds == 0

    def test_strict_gate_raises_on_a_lost_finding(self):
        # A doctored result claiming nothing was eliminated while
        # presenting the pruned trace: the original dead-write findings
        # are now "lost", which the strict gate must refuse.
        trace = corpus_trace("mask_merge")
        dce = eliminate_dead_ops(trace)
        doctored = DceResult(trace=dce.trace, eliminated=(),
                             index_map=dce.index_map, rounds=dce.rounds)
        ok, missing, _ = verify_dce_findings(trace, doctored)
        assert not ok and missing
        with pytest.raises(CompilerError):
            verify_dce_findings(trace, doctored, strict=True)

    def test_non_strict_violation_discards_the_dce_view(self, monkeypatch):
        import repro.compiler as compiler_pkg
        monkeypatch.setattr(
            compiler_pkg, "verify_dce_findings",
            lambda *a, **k: (False, ((0, "dead-write"),), ()))
        trace = corpus_trace("mask_merge")
        compiled = compile_trace(trace)
        assert not compiled.dce_ok
        assert compiled.dce is None
        # The unoptimized trace stands in, so the compiled view can
        # never disagree with `repro check` on a non-strict run.
        assert compiled.optimized is trace
        assert compiled.summary()["eliminated"] == 0


# -- block scheduler ----------------------------------------------------------


class TestBlockScheduler:
    @pytest.mark.parametrize("name", CORPUS_IDS)
    def test_blocks_cover_every_event_once_in_program_order(self, name):
        trace = corpus_trace(name)
        blocks = schedule_blocks(trace)
        flat = [i for b in blocks for i in b.events]
        assert flat == list(range(len(trace.events)))
        for block in blocks:
            kinds = {event_kind(trace.events[i]) for i in block.events}
            assert kinds == {block.kind}

    @pytest.mark.parametrize("name", CORPUS_IDS)
    def test_bulk_edges_agree_with_the_materialised_depgraph(self, name):
        trace = corpus_trace(name)
        assert (schedule_blocks(trace)
                == schedule_blocks(trace, depgraph=build_depgraph(trace)))

    def test_every_dependence_edge_points_forward_in_the_schedule(self):
        trace = corpus_trace("slide_gather_reduce")
        blocks = schedule_blocks(trace)
        block_of = {i: pos for pos, b in enumerate(blocks)
                    for i in b.events}
        graph = build_depgraph(trace)
        assert graph.edges
        for edge in graph.edges:
            assert block_of[edge.src] <= block_of[edge.dst]
            assert (blocks[block_of[edge.src]].level
                    <= blocks[block_of[edge.dst]].level)

    def test_iter_events_preserves_enumerate_order(self, tiny_runner):
        trace = tiny_runner.trace_for("O3+EVE-4", "vvadd")
        compiled = compile_trace(trace)
        assert compiled.blocks
        assert list(compiled.iter_events()) == list(enumerate(trace.events))

    def test_lines_for_is_empty_for_an_event_without_requests(
            self, tiny_runner):
        trace = tiny_runner.trace_for("O3+EVE-4", "vvadd")
        compiled = compile_trace(trace)
        quiet = [index for index, event in enumerate(trace.events)
                 if getattr(event, "mem", None) is None
                 and not getattr(event, "accesses", ())]
        assert quiet
        assert all(compiled.lines_for(index) == () for index in quiet)


# -- the frozen memory-model reference ----------------------------------------

#: Answers of the numpy-backed hierarchy that preceded the current model,
#: captured at ``bbd22c8`` on bare traces: every request of the seeded
#: plans below, and a digest per simulated cell.  Both memory models must
#: reproduce it exactly.  ``_stream`` and ``_stream_plan`` must keep
#: generating the requests they generated then.
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference",
                              "memory_model.json")


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _plain(value):
    """``value`` as the reference's JSON holds it (tuples become lists)."""
    return json.loads(json.dumps(value))


def _breakdown(result):
    return (result.breakdown.as_dict() if result.breakdown is not None
            else None)


def _cell_digest(result):
    """Cycles in clear plus a digest of every deterministic result field,
    floats by ``repr`` — the form the reference stores per cell."""
    full = {"cycles": result.cycles, "instructions": result.instructions,
            "time_ns": result.time_ns, "mem_stats": result.mem_stats,
            "breakdown": _breakdown(result),
            "vmu_llc_stall_frac": result.vmu_llc_stall_frac}
    blob = json.dumps(full, sort_keys=True).encode()
    return {"cycles": result.cycles,
            "sha256": hashlib.sha256(blob).hexdigest()}


def _hooks():
    """Every instrumentation hook, enabled."""
    return {"tracer": SpanTracer(), "metrics": MetricsRegistry(),
            "attribution": AttributionCollector()}


def _runs(system, workload, params):
    """One cell three ways: the trace alone on the plain model (the
    machine compiles it on demand), the runner's compiled trace on the
    plain model, and the compiled trace on the hooked model with every
    hook on."""
    runner = ExperimentRunner(params_override=params)
    trace = runner.trace_for(system, workload)
    return {"bare": build_machine(system).run(trace),
            "compiled": runner.run(system, workload),
            "instrumented": runner.run(system, workload, **_hooks())}


#: vvadd at this size stalls DV's L2 MSHRs and EVE's LLC MSHRs, which
#: the tiny grid barely reaches.
MSHR_BOUND_VVADD = {"vvadd": {"n": 4096}}


class TestCompiledMachineEquivalence:
    @pytest.mark.parametrize("system", all_system_names())
    @pytest.mark.parametrize("workload", sorted(REGISTRY))
    def test_cycles_and_stats_are_byte_identical(self, system, workload,
                                                 reference):
        want = reference["cells"]["tiny"][f"{system}/{workload}"]
        for path, result in _runs(system, workload, TINY_PARAMS).items():
            assert _cell_digest(result) == want, path

    @pytest.mark.parametrize("system", all_system_names())
    def test_mshr_bound_vvadd_is_byte_identical(self, system, reference):
        want = reference["cells"]["vvadd_n4096"][f"{system}/vvadd"]
        runs = _runs(system, "vvadd", MSHR_BOUND_VVADD)
        for path, result in runs.items():
            assert _cell_digest(result) == want, path
        stalled = {"O3+DV": "l2_mshr", "O3+EVE-4": "llc_mshr",
                   "O3+EVE-32": "llc_mshr"}.get(system)
        if stalled is not None:
            assert runs["compiled"].mem_stats[stalled]["stall_cycles"] > 0

    def test_instrumentation_never_moves_timing(self, monkeypatch):
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        for system in all_system_names():
            for workload in sorted(REGISTRY):
                cell = (system, workload)
                plain = runner.run(system, workload)
                hooks = _hooks()
                hooked = runner.run(system, workload, **hooks)
                # Every run takes the one stream loop; attribution alone
                # sets no hit observer, every hook on sets one.
                alone = AttributionCollector()
                attributed = runner.run(system, workload,
                                        attribution=alone)
                for result in (hooked, attributed):
                    assert result.cycles == plain.cycles, cell
                    assert result.mem_stats == plain.mem_stats, cell
                    assert _breakdown(result) == _breakdown(plain), cell
                assert attributed.unit_cycles == hooked.unit_cycles, cell
                _assert_same_charges(alone, hooks["attribution"], cell)
        # An attributed run replays the very CompiledTrace a plain run of
        # the same trace was handed: the runner compiles once.
        seen = []
        replay = EveMachine.run

        def spy(machine, trace, compiled=None):
            seen.append(compiled)
            return replay(machine, trace, compiled=compiled)

        monkeypatch.setattr(EveMachine, "run", spy)
        fresh = ExperimentRunner(params_override=TINY_PARAMS)
        fresh.run("O3+EVE-4", "backprop")
        attribution = AttributionCollector()
        fresh.run("O3+EVE-4", "backprop", attribution=attribution)
        assert len(seen) == 2 and seen[0] is not None
        assert seen[1] is seen[0]
        attribution.require_conserved()


class TestRepeatedRuns:
    @pytest.mark.parametrize("system", all_system_names())
    def test_a_second_run_equals_the_first(self, system, tiny_runner):
        trace = tiny_runner.trace_for(system, "vvadd")
        compiled = compile_trace(trace)
        machine = build_machine(system)
        first = _cell_digest(machine.run(trace))
        assert _cell_digest(machine.run(trace)) == first
        assert _cell_digest(machine.run(trace, compiled=compiled)) == first
        assert _cell_digest(machine.run(trace, compiled=compiled)) == first


# -- the memory models against the reference ----------------------------------


def _stream(seed, count=3000):
    """A deterministic access stream with enough reuse to exercise hits,
    evictions, dirty writebacks, and MSHR contention on every port."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 256, size=count) * 64
    cold = rng.integers(0, 1 << 18, size=count) * 64
    lines = np.where(rng.random(count) < 0.6, hot, cold)
    stores = rng.random(count) < 0.3
    ports = rng.choice(["l1", "l2", "llc"], size=count)
    gaps = rng.integers(0, 3, size=count)
    return lines.tolist(), stores.tolist(), ports.tolist(), gaps.tolist()


#: Request-list shapes the ``stream()`` differential cycles through on
#: each port, in this order: ``hits`` re-streams the ``misses`` list
#: (resident by then), ``saturating`` streams 200 never-touched lines at
#: once so the port's MSHRs run out.
STREAM_SHAPES = ("misses", "hits", "empty", "saturating", "mixed")

#: The cache each port probes first.
FIRST_LEVEL = {"l1": "l1d", "l2": "l2", "llc": "llc"}


def _stream_plan(seed, rounds=20):
    """Seeded ``(port, shape, lines, is_store, interval)`` stream calls:
    every port, every shape in turn."""
    rng = np.random.default_rng(seed)
    fresh = iter(range(1 << 24, 1 << 34, 64))
    plan = []
    for _ in range(rounds):
        port = str(rng.choice(PORTS))
        previous = []
        for shape in STREAM_SHAPES:
            if shape == "misses":
                lines = [next(fresh) for _ in range(int(rng.integers(1, 40)))]
            elif shape == "hits":
                lines = previous
            elif shape == "empty":
                lines = []
            elif shape == "saturating":
                lines = [next(fresh) for _ in range(200)]
            else:
                hot = rng.integers(0, 256, size=60) * 64
                cold = rng.integers(0, 1 << 18, size=60) * 64
                lines = np.where(rng.random(60) < 0.6, hot, cold).tolist()
            previous = lines
            plan.append((port, shape, lines, bool(rng.random() < 0.3),
                         float(rng.choice([0.5, 1.0, 2.0]))))
    return plan


def _models(config):
    """Both memory models: the plain one, the hooked one with every hook
    on (its stream hands inline hits to the observer), and the hooked one
    with attribution alone (no observer)."""
    return {"FastMemorySystem": FastMemorySystem(config),
            "MemorySystem": MemorySystem(config, **_hooks()),
            "MemorySystem(attribution)": MemorySystem(
                config, attribution=AttributionCollector())}


def _assert_same_charges(got, want, context=None):
    """Two collectors hold the same ledger, node for node and span for
    span, and it is not empty."""
    assert got.unit_totals() == want.unit_totals() != {}, context
    assert got.nodes() == want.nodes(), context
    for node in want.nodes():
        assert got.node_charges(node) == want.node_charges(node), context
        assert got.node_span(node) == want.node_span(node), context


def _completion(c):
    return [c.grant, c.done, c.level, c.mshr_stall]


def _access_loop(mem, start, lines, is_store, port, interval, window=None):
    """``stream()``'s contract as one :meth:`access` per request, each
    issued under ``max(at, grant) + interval``: the oracle for what a
    stream must answer and observe."""
    t = first_done = last_done = start
    stall = 0.0
    for i, line in enumerate(lines):
        at = t if window is None else window.acquire(t)[0]
        completion = mem.access(at, line, is_store, port)
        done = completion.done
        if window is not None:
            window.release(done)
        if i == 0:
            first_done = done
        last_done = max(last_done, done)
        stall += completion.mshr_stall
        t = max(at, completion.grant) + interval
    return t, first_done, last_done, stall


def _vector_counters(mem):
    return {"vector_requests": mem.vector_requests,
            "vector_mshr_stall": mem.vector_mshr_stall,
            "vector_stalled_requests": mem.vector_stalled_requests}


class TestFastMemorySystem:
    """Each seeded plan, request by request, on the plain model and on
    :class:`MemorySystem` with and without a hit observer."""

    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("system,seed", [("O3+DV", 11),
                                             ("O3+EVE-4", 12)])
    def test_stream_matches_the_reference_loop(self, system, seed,
                                               windowed, reference):
        want = reference["stream"][f"{system}-{seed}-{windowed}"]
        models = _models(make_system(system))
        for name, mem in models.items():
            # Wider than every MSHR pool, so both the window and the
            # MSHRs behind it fill up.
            window = MshrPool(48, "lsq") if windowed else None
            singles = zip(*_stream(seed, count=200))
            steps = iter(want["steps"])
            now = 0.0
            stall = 0.0
            for port, shape, lines, store, interval in _stream_plan(seed):
                step = next(steps)
                first = getattr(mem, FIRST_LEVEL[port])
                misses = first.misses
                got = mem.stream(now, lines, store, port, interval,
                                 window=window)
                assert list(got) == step["stream"], (name, port, shape)
                if shape == "empty":
                    assert got == (now, now, now, 0.0)
                if shape == "hits":
                    assert first.misses == misses, (name, port)
                stall += got[3]
                now = max(now + 1.0, got[0] - 40.0)
                # Interleave one single request on a random port.
                line, single_store, single_port, gap = next(singles)
                have = mem.access(now, line, single_store, single_port)
                assert _completion(have) == step["access"], name
                now += gap
            assert stall > 0  # saturating streams took the MSHR slow path
            assert now == want["elapsed"]
            assert _plain(mem.level_stats(elapsed=now)) == \
                want["level_stats"], name
            assert _vector_counters(mem) == {
                key: want[key] for key in _vector_counters(mem)}, name
            if windowed:
                assert window.stall_cycles > 0
                assert dict(window.stats(),
                            outstanding=window.outstanding) == want["window"]
        _assert_same_charges(models["MemorySystem(attribution)"].attr,
                             models["MemorySystem"].attr)

    def test_stream_rejects_an_unknown_port(self):
        for mem in _models(make_system("IO")).values():
            with pytest.raises(MemoryModelError):
                mem.stream(0.0, [0], False, "l3", 1.0)

    @pytest.mark.parametrize("system,seed", [("IO", 3), ("O3+EVE-4", 4)])
    def test_matches_the_reference_model_access_for_access(self, system,
                                                           seed, reference):
        want = reference["access"][f"{system}-{seed}"]
        models = _models(make_system(system))
        for name, mem in models.items():
            lines, stores, ports, gaps = _stream(seed)
            now = 0.0
            for i, (line, store, port, gap) in enumerate(
                    zip(lines, stores, ports, gaps)):
                got = mem.access(now, line, store, port)
                assert _completion(got) == want["accesses"][i], (name, i)
                now = max(now + gap, got.done - 40.0)
            assert _plain(mem.level_stats(elapsed=now)) == \
                want["level_stats"], name
            assert _vector_counters(mem) == {
                key: want[key] for key in _vector_counters(mem)}, name
        _assert_same_charges(models["MemorySystem(attribution)"].attr,
                             models["MemorySystem"].attr)

    def test_matches_reconfiguration_views_and_flush(self, reference):
        want = reference["reconfig"]
        config = make_system("O3+EVE-4")
        for name, mem in _models(config).items():
            now = 0.0
            for i, (line, store, port, gap) in enumerate(
                    zip(*_stream(seed=7, count=2000))):
                got = mem.access(now, line, store, port)
                assert _completion(got) == want["before"][i], (name, i)
                now = max(now + gap, got.done - 40.0)

            doomed = slice(config.llc.ways // 2, config.llc.ways)
            assert list(mem.llc.resident_lines(doomed)) == \
                want["resident_lines"]
            assert mem.llc.warm_fraction() == want["warm_fraction"]
            assert list(mem.llc.flush_ways(doomed)) == want["flush_ways"]

            # Behaviour after the flush must track too (victim selection
            # depends on the freed ways being reissued in way order).
            for i, (line, store, port, gap) in enumerate(
                    zip(*_stream(seed=8, count=1000))):
                got = mem.access(now, line, store, port)
                assert _completion(got) == want["after"][i], (name, i)
                now = max(now + gap, got.done - 40.0)
            assert _plain(mem.level_stats(now)) == want["level_stats"]

    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("system,seed", [("O3+DV", 11),
                                             ("O3+EVE-4", 12),
                                             ("O3+IV", 13)])
    def test_stream_observes_what_access_observes(self, system, seed,
                                                  windowed):
        """The hooked stream, hits observed inline, against a twin whose
        every request goes through access() under the stream's issue
        rule: the same answers, trace, metrics and charges."""
        config = make_system(system)
        models = [MemorySystem(config, **_hooks()) for _ in range(2)]
        windows = [MshrPool(48, "lsq") if windowed else None
                   for _ in models]
        fused, twin = models
        now = 0.0
        for port, shape, lines, store, interval in _stream_plan(seed):
            got = fused.stream(now, lines, store, port, interval,
                               window=windows[0])
            want = _access_loop(twin, now, lines, store, port, interval,
                                window=windows[1])
            assert got == want, (port, shape)
            now = max(now + 1.0, got[0] - 40.0)
        for mem in models:
            mem.populate_metrics(now)
        assert fused.tracer.to_dict() == twin.tracer.to_dict()
        assert fused.metrics.flat() == twin.metrics.flat()
        _assert_same_charges(fused.attr, twin.attr)

    @pytest.mark.parametrize("port", PORTS)
    def test_stream_reaches_access_once_per_miss(self, port, monkeypatch):
        """A stream resolves first-level hits inline whichever hooks are
        on; only the misses go through access()."""
        calls = []
        hooked_access = MemorySystem.access

        def spy(mem, *args):
            calls.append(args)
            return hooked_access(mem, *args)

        monkeypatch.setattr(MemorySystem, "access", spy)
        lines = list(range(0, 40 * 64, 64))
        for hooks in ({}, {"tracer": SpanTracer()},
                      {"metrics": MetricsRegistry()}):
            mem = MemorySystem(make_system("O3+EVE-4"),
                               attribution=AttributionCollector(), **hooks)
            first = getattr(mem, FIRST_LEVEL[port])
            for start, stream, want in zip((0.0, 500.0),
                                           (lines, lines + lines),
                                           (40, 0)):
                del calls[:]
                mem.stream(start, stream, False, port, 1.0)
                assert len(calls) == want, (hooks, len(stream))
            assert first.misses == 40

    def test_hooks_choose_the_hooked_model(self):
        config = make_system("IO")
        assert type(memory_system(config)) is FastMemorySystem
        assert memory_system(config).hit_observer is None
        for hook, value in _hooks().items():
            mem = memory_system(config, **{hook: value})
            assert type(mem) is MemorySystem, hook
            assert {"tracer": mem.tracer, "metrics": mem.metrics,
                    "attribution": mem.attr}[hook] is value
            assert mem.dram.attr is mem.attr
            assert mem.llc_mshrs.attr is mem.attr
            # Only a span or a latency sample needs each hit observed.
            assert (mem.hit_observer is None) == (hook == "attribution")


# -- compiler descriptors in cache keys ---------------------------------------


class TestCacheDistinctness:
    def test_cache_schema_bumped_for_the_compiler(self):
        assert CACHE_VERSION == 4

    def test_compiler_descriptor_shapes(self):
        descriptor = compiler_descriptor()
        assert descriptor["passes"] == ["dce", "hoist", "schedule"]
        assert descriptor["compiler_version"] >= 1

    def test_fingerprints_differ_by_compiler_descriptor(self):
        bare = params_fingerprint("vvadd", TINY_PARAMS)
        compiled = params_fingerprint("vvadd", TINY_PARAMS,
                                      compiler=compiler_descriptor())
        assert bare != compiled
        assert compiled == params_fingerprint(
            "vvadd", TINY_PARAMS, compiler=compiler_descriptor())

    def test_simulate_cell_keys_results_on_the_descriptor(self, tmp_path):
        root = str(tmp_path / "cache")

        def cell(collect_metrics):
            spec = ("vvadd", ("IO",), TINY_PARAMS, root, collect_metrics,
                    20230225)
            (out,) = simulate_cell(spec)["cells"]
            return out

        plain = cell(False)
        assert plain["cache"] == "miss"
        # A metered cell replays the compiled trace too: its own result
        # entry, the same cycles.
        metered = cell(True)
        assert metered["cache"] == "miss"
        assert metered["result"].cycles == plain["result"].cycles
        assert metered["metrics_flat"]
        assert cell(False)["cached"] is True
        assert cell(True)["cached"] is True
        results = glob.glob(os.path.join(root, "results", "**", "*.pkl"),
                            recursive=True)
        fingerprint = params_fingerprint("vvadd", TINY_PARAMS,
                                         seed=20230225,
                                         compiler=compiler_descriptor())
        assert sorted(os.path.basename(path) for path in results) == [
            f"IO--vvadd-{fingerprint}-m.pkl", f"IO--vvadd-{fingerprint}.pkl"]
        assert os.listdir(root) == ["results"]  # no trace tier
