"""Parallel sweep executor: determinism, cell cache, concurrent run store."""

from __future__ import annotations

import gc
import json
import multiprocessing
import multiprocessing.pool
import os
import pickle
import struct
import threading
import time

import pytest

from repro.analysis import build_depgraph
from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import ExperimentRunner, sweep_pairs
from repro.experiments import parallel
from repro.experiments import runner as runner_module
from repro.experiments.figures import geomean
from repro.experiments.parallel import (CellCache, cache_stats, fan_out,
                                        params_fingerprint, prune_cache,
                                        simulate_cell,
                                        sweep_config_fingerprint)
from repro.experiments.systems import canonical_system
from repro.faults.campaign import run_campaign
from repro.faults.fuzz import fuzz_many
from repro.obs import (AttributionCollector, build_bottleneck_report,
                       collect_nodes)
from repro.obs.diff import diff_records
from repro.obs.events import (TERMINAL_EVENTS, CampaignTelemetry, EventLog,
                              TelemetryMonitor, Watchdog, check_conservation)
from repro.obs.runstore import RunStore, make_record
from repro.obs.scorecard import build_scorecard, scorecard_pairs
from repro.obs.selfprof import SelfProfiler
from repro.obs.trend import filter_history
from repro.workloads import DEFAULT_SEED, REGISTRY, canonical_workload

TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}

SYSTEMS = ("IO", "O3+EVE-1", "O3+EVE-4")
WORKLOADS = ("vvadd", "pathfinder")
PAIRS = [(s, w) for w in WORKLOADS for s in SYSTEMS]


def _serial_cycles():
    runner = ExperimentRunner(params_override=TINY_PARAMS)
    return {(s, w): runner.run(s, w).cycles for s, w in PAIRS}


def _group_spec(systems, root, collect_metrics=False, seed=DEFAULT_SEED):
    """A :func:`simulate_cell` spec for vvadd on ``systems``, checked as
    strictly as a default runner would check it."""
    return ("vvadd", tuple(systems), TINY_PARAMS, root, collect_metrics,
            seed, runner_module.strict_check_enabled())


def _record_from(results):
    record = make_record("sweep", label="test")
    for (system, workload), cycles in sorted(results.items()):
        record.add_result(system, workload, cycles=cycles, time_ns=cycles)
    return record


def _flip_cycles_bit(entry, cycles):
    """``entry`` with the lowest bit of its pickled ``cycles`` float
    flipped: bytes that still unpickle, to cycles one ulp off."""
    packed = struct.pack(">d", cycles)
    flipped = packed[:-1] + bytes([packed[-1] ^ 1])
    assert b"G" + packed in entry  # BINFLOAT opcode + big-endian double
    return entry.replace(b"G" + packed, b"G" + flipped, 1)


def _double(x):
    return x * 2


def _fail_on_one(x):
    if x == 1:
        raise ValueError(f"unit {x} failed")
    return x * 2


def _first_lands_last(x):
    if x == 0:
        time.sleep(0.5)
    return x * 2


def _unpicklable_on_one(x):
    """Unit 1 returns at once with a result that does not pickle; the
    others land after it."""
    if x == 1:
        return lambda: x
    time.sleep(0.2)
    return x


def _collector_enabled(_spec):
    return gc.isenabled()


def _group_garbage(systems):
    """Run one tiny vvadd group through :func:`simulate_cell` with the
    collector off; answers the group's cell count and what a collection
    then finds."""
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        cells = len(simulate_cell(_group_spec(systems, None))["cells"])
        return cells, gc.collect()
    finally:
        if was_on:
            gc.enable()


class _OrderRecorder(TelemetryMonitor):
    """A monitor that also records the order completions land in."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.landed = []

    def on_complete(self, index, observed):
        self.landed.append(index)
        super().on_complete(index, observed)


class TestFanOut:
    def test_empty_specs_short_circuit(self):
        assert fan_out(_double, [], jobs=8) == []

    def test_serial_and_pooled_agree_in_input_order(self):
        specs = list(range(12))
        serial = fan_out(_double, specs, jobs=1)
        pooled = fan_out(_double, specs, jobs=3)
        assert serial == pooled == [x * 2 for x in specs]

    def test_profiler_phase_is_attributed(self):
        profiler = SelfProfiler()
        fan_out(_double, [1, 2], jobs=1, profiler=profiler, phase="faults")
        assert "faults" in profiler.merged()

    def test_in_process_failure_runs_every_spec_then_reraises_the_first(
            self):
        ran = []

        def unit(x):
            ran.append(x)
            if x in (1, 3):
                raise ValueError(f"unit {x} failed")
            return x

        with pytest.raises(ValueError, match="unit 1 failed"):
            fan_out(unit, [0, 1, 2, 3], jobs=1)
        assert ran == [0, 1, 2, 3]

    @pytest.mark.parametrize("monitored", [False, True])
    def test_worker_error_reraises_and_reaps_the_pool(self, monitored):
        units = ["u0", "u1", "u2"]
        monitor = None
        if monitored:
            hub = CampaignTelemetry("test", campaign_id="c")
            hub.begin(units)
            monitor = TelemetryMonitor(hub, units, jobs=2)
        with pytest.raises(ValueError, match="unit 1 failed"):
            fan_out(_fail_on_one, [0, 1, 2], jobs=2, monitor=monitor)
        assert multiprocessing.active_children() == []
        if monitored:  # every unit's fate was recorded before the re-raise
            assert check_conservation(hub.ordered_events()) == []

    def test_out_of_order_completions_return_in_input_order(self, tmp_path,
                                                            capsys):
        units = [f"u{i}" for i in range(4)]
        log = str(tmp_path / "events.jsonl")
        hub = CampaignTelemetry("test", log=EventLog(log), campaign_id="c")
        hub.begin(units)
        monitor = _OrderRecorder(hub, units, jobs=2)
        got = fan_out(_first_lands_last, [0, 1, 2, 3], jobs=2,
                      monitor=monitor)
        hub.finalize()
        assert got == [0, 2, 4, 6]
        assert sorted(monitor.landed) == [0, 1, 2, 3]
        assert monitor.landed[-1] == 0  # the slow first unit landed last
        assert multiprocessing.active_children() == []
        assert main(["events", "--log", log, "--check"]) == 0
        capsys.readouterr()

    def test_several_unit_spec_is_in_flight_and_fails_as_a_whole(self):
        hub = CampaignTelemetry("test", campaign_id="c")
        hub.begin(["a", "b", "c"])
        monitor = TelemetryMonitor(hub, [("a", "b"), "c"], jobs=1)
        monitor.on_dispatch(0)
        monitor.on_dispatch(1)
        assert set(monitor.in_flight()) == {"b"}
        monitor.on_complete(0, {"value": None, "error": ValueError("boom"),
                                "t0": None, "t1": None, "pid": 1})
        assert set(monitor.in_flight()) == {"c"}
        terminal = [(e.unit, e.event) for e in hub.ordered_events()
                    if e.event in TERMINAL_EVENTS]
        assert terminal == [("a", "failed"), ("b", "failed")]

    def test_slow_group_is_judged_as_a_whole(self):
        clock = [0.0]
        hub = CampaignTelemetry("test", campaign_id="c",
                                clock=lambda: clock[0], heartbeat_every=0.0,
                                watchdog=Watchdog(factor=2.0, hint_seconds=1.0,
                                                  min_seconds=0.0))
        hub.begin(["a", "b", "c"])
        monitor = TelemetryMonitor(
            hub, [("a", "b", "c")], jobs=1,
            describe=lambda value: [(False, (), None, 0.0, 0.5, None),
                                    (False, (), None, 0.5, 1.0, None),
                                    (False, (), None, 1.0, 7.5, None)])
        monitor.on_dispatch(0)
        clock[0] = 5.0  # past one unit's 2 s threshold, inside the group's 6 s
        monitor.poll()
        assert hub.stalled_units == []
        clock[0] = 7.0
        monitor.poll()
        assert hub.stalled_units == ["c"]
        monitor.on_complete(0, {"value": None, "error": None,
                                "t0": 0.0, "t1": 7.5, "pid": 1})
        events = hub.ordered_events()
        assert check_conservation(events) == []
        live = [(e.unit, e.event) for e in events
                if e.event in ("heartbeat", "stalled")]
        # The finished first units get neither heartbeats nor stalls.
        assert live == [("c", "heartbeat"), ("c", "heartbeat"),
                        ("c", "stalled")]
        stall = next(e for e in events if e.event == "stalled")
        assert stall.detail["threshold_seconds"] == pytest.approx(6.0)

    @pytest.mark.parametrize("monitored", [False, True])
    def test_unpicklable_result_reraises_and_reaps_the_pool(self,
                                                            monitored):
        units = ["u0", "u1", "u2", "u3"]
        monitor = None
        if monitored:
            hub = CampaignTelemetry("test", campaign_id="c")
            hub.begin(units)
            monitor = TelemetryMonitor(hub, units, jobs=2)
        with pytest.raises(multiprocessing.pool.MaybeEncodingError):
            fan_out(_unpicklable_on_one, [0, 1, 2, 3], jobs=2,
                    monitor=monitor)
        assert multiprocessing.active_children() == []
        if monitored:
            # Every unit still got its terminal event.
            assert check_conservation(hub.ordered_events()) == []


class TestCollectorPause:
    """Every unit runs with the cyclic collector paused, and the state
    the unit found comes back, however the unit ends."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_unit_runs_with_the_collector_paused(self, jobs):
        assert fan_out(_collector_enabled, [0, 1], jobs=jobs) == [False,
                                                                   False]
        assert gc.isenabled()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_collector_resumes_after_a_return_or_a_reraise(self, jobs):
        assert fan_out(_double, [0, 1, 2], jobs=jobs) == [0, 2, 4]
        assert gc.isenabled()
        with pytest.raises(ValueError, match="unit 1 failed"):
            fan_out(_fail_on_one, [0, 1, 2], jobs=jobs)
        assert gc.isenabled()

    def test_a_caller_that_paused_the_collector_keeps_it_paused(self):
        gc.disable()
        try:
            assert fan_out(_collector_enabled, [0, 1], jobs=1) == [False,
                                                                   False]
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_nested_fan_outs_restore_the_state(self):
        seen = []

        def outer(x):
            before = gc.isenabled()
            inner = fan_out(_collector_enabled, [x], jobs=1)
            seen.append((before, inner, gc.isenabled()))
            return x

        assert fan_out(outer, [0, 1], jobs=1) == [0, 1]
        # Each inner unit finds its outer unit's state and leaves it so.
        assert len(seen) == 2
        assert all(inner == [before] and after == before
                   for before, inner, after in seen)
        assert gc.isenabled()

    def test_a_keyboard_interrupt_propagates_and_resumes_the_collector(self):
        def unit(_x):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            fan_out(unit, [0, 1], jobs=1)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_unit_on_another_thread_leaves_the_collector_alone(
            self, enabled):
        seen = []

        def unit(_x):
            seen.append(gc.isenabled())

        thread = threading.Thread(target=parallel._observed_call,
                                  args=(unit, 0))
        if not enabled:
            gc.disable()
        try:
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert seen == [enabled]
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_no_collection_starts_while_a_unit_runs(self):
        inside, started = [], []

        def hook(phase, info):
            if phase == "start" and inside:
                started.append(info["generation"])

        def unit(n):
            inside.append(True)
            try:
                kept = [[i] for i in range(n)]
                return len(kept)
            finally:
                inside.clear()

        gc.callbacks.append(hook)
        try:
            assert fan_out(unit, [200_000], jobs=1) == [200_000]
        finally:
            gc.callbacks.remove(hook)
        assert started == []


class TestNoCyclicGarbage:
    """What the pause stands on: no kind of unit leaves garbage that
    only the cyclic collector could free.  Each case runs with the
    collector off, drops what it made, and a collection must find
    nothing.  (``tests/test_mem_hierarchy.py`` covers the plain serial
    sweep and each kind of instrumented run.)"""

    @pytest.mark.parametrize("kind", ["metered", "strict", "events"])
    def test_a_tiny_prefetch(self, kind, tmp_path, no_collector):
        def sweep():
            if kind == "events":
                options = {"telemetry": CampaignTelemetry(
                    "sweep", log=EventLog(str(tmp_path / "events.jsonl")),
                    campaign_id="c")}
            else:
                options = {"metered": {"collect_metrics": True},
                           "strict": {"strict_check": True}}[kind]
            runner = ExperimentRunner(params_override=TINY_PARAMS, **options)
            runner.prefetch(sweep_pairs())
            runner.telemetry.finalize()
            assert len(runner._results) == 70
            if kind == "metered":
                assert len(runner._metrics) == 70

        sweep()
        assert gc.collect() == 0

    def test_a_group_in_a_pool_worker(self, no_collector):
        groups = [("IO", "O3"), ("O3+EVE-1", "O3+EVE-4")]
        assert fan_out(_group_garbage, groups, jobs=2) == [(2, 0), (2, 0)]

    def test_fuzz_and_fault_campaigns(self, no_collector):
        assert fuzz_many(2) == []
        report = run_campaign(6, seed=0, jobs=1)
        assert len(report.outcomes) == 6
        del report
        assert gc.collect() == 0

    def test_the_attribute_path(self, no_collector):
        def attribute():
            runner = ExperimentRunner(params_override=TINY_PARAMS)
            for system, kernel in (("O3+EVE-4", "backprop"),
                                   ("O3", "pathfinder")):
                attr = AttributionCollector()
                result = runner.run(system, kernel, attribution=attr)
                attr.require_conserved(context=f"{system}/{kernel}")
                trace = runner.trace_for(system, kernel)
                nodes = collect_nodes(attr, trace)
                graph = (build_depgraph(trace) if trace.vlmax is not None
                         else None)
                report = build_bottleneck_report(
                    attr, nodes, graph, result.system, result.workload,
                    top=10)
                assert report.to_json_dict()

        attribute()
        assert gc.collect() == 0

    def test_a_scorecard(self, no_collector):
        card = build_scorecard(
            runner=ExperimentRunner(params_override=TINY_PARAMS), tiny=True)
        assert card.to_json_dict()
        del card
        assert gc.collect() == 0


class TestParallelDeterminism:
    def test_parallel_matches_serial_cycles(self, tmp_path):
        parallel = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                    cache_root=str(tmp_path / "cache"))
        stats = parallel.prefetch(PAIRS)
        assert stats["cells"] == len(PAIRS)
        assert stats["simulated"] == len(PAIRS)
        got = {(s, w): parallel.run(s, w).cycles for s, w in PAIRS}
        assert got == _serial_cycles()

    def test_serial_and_parallel_diff_verdicts_agree(self, tmp_path):
        parallel = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                    cache_root=str(tmp_path / "cache"))
        parallel.prefetch(PAIRS)
        serial_rec = _record_from(_serial_cycles())
        parallel_rec = _record_from(
            {(s, w): parallel.run(s, w).cycles for s, w in PAIRS})
        diff = diff_records(serial_rec, parallel_rec)
        assert diff.exit_code(strict=True) == 0
        assert not diff.regressions()
        assert all(e.status == "same" for e in diff.entries)

    def test_scorecard_json_byte_identical(self, tmp_path):
        figures, apps = ("fig8",), ("backprop",)
        serial_card = build_scorecard(
            runner=ExperimentRunner(params_override=TINY_PARAMS),
            figures=figures, apps=apps, tiny=True)
        parallel_runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                           cache_root=str(tmp_path / "cache"))
        parallel_runner.prefetch(scorecard_pairs(figures, apps))
        parallel_card = build_scorecard(runner=parallel_runner,
                                        figures=figures, apps=apps, tiny=True)
        dump = lambda card: json.dumps(card.to_json_dict(), sort_keys=True)  # noqa: E731
        assert dump(serial_card) == dump(parallel_card)

    def test_full_grid_builds_and_compiles_once_per_trace(self,
                                                          monkeypatch):
        specs = []
        real_fan_out = parallel.fan_out

        def spy(func, group_specs, *args, **kwargs):
            specs.extend(group_specs)
            return real_fan_out(func, group_specs, *args, **kwargs)

        monkeypatch.setattr(parallel, "fan_out", spy)
        runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                  cache_root=None)
        assert runner.prefetch(sweep_pairs())["simulated"] == 70
        # One task per (workload, vlmax): 7 kernels x 6 vlmaxes.
        assert runner.profiler.calls["worker:trace_build"] == 42
        assert runner.profiler.calls["worker:compile"] == 42
        assert len(specs) == 42
        assert {spec[1] for spec in specs} == {
            ("IO", "O3"), ("O3+IV", "O3+DV"),
            ("O3+EVE-1", "O3+EVE-2", "O3+EVE-4"), ("O3+EVE-8",),
            ("O3+EVE-16",), ("O3+EVE-32",)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_failing_cell_fails_alone(self, monkeypatch, jobs):
        # O3+EVE-1 shares its group with O3+EVE-4, and O3 with IO: a cell
        # that raises fails alone, in-process and on the pool alike.
        build_machine = runner_module.build_machine

        def build(system, **kwargs):
            if system in ("O3", "O3+EVE-1"):
                raise ValueError(f"injected failure: {system}")
            return build_machine(system, **kwargs)

        monkeypatch.setattr(runner_module, "build_machine", build)
        hub = CampaignTelemetry("sweep", campaign_id="c")
        runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=jobs,
                                  telemetry=hub)
        systems = ("IO", "O3", "O3+IV", "O3+DV", "O3+EVE-1", "O3+EVE-4")
        with pytest.raises(ValueError) as raised:
            runner.prefetch([(s, "vvadd") for s in systems])
        assert str(raised.value) == "injected failure: O3"  # input order
        assert set(runner._results) == {
            (s, "vvadd") for s in ("IO", "O3+IV", "O3+DV", "O3+EVE-4")}
        events = hub.ordered_events()
        assert check_conservation(events) == []
        assert [(e.unit, e.event) for e in events
                if e.event in TERMINAL_EVENTS] == [
            (f"{s}/vvadd",
             "failed" if s in ("O3", "O3+EVE-1") else "finished")
            for s in systems]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_cell_error_that_does_not_pickle_keeps_the_rest(
            self, monkeypatch, jobs):
        # O3's error holds a lambda: on the pool, a stand-in that names
        # it crosses back instead, so its group's IO cell still merges.
        build_machine = runner_module.build_machine

        class Unpicklable(Exception):
            def __init__(self, message):
                super().__init__(message)
                self.hook = lambda: message

        def build(system, **kwargs):
            if system == "O3":
                raise Unpicklable(f"probe on {system}")
            return build_machine(system, **kwargs)

        monkeypatch.setattr(runner_module, "build_machine", build)
        hub = CampaignTelemetry("sweep", campaign_id="c")
        runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=jobs,
                                  telemetry=hub)
        systems = ("IO", "O3", "O3+IV", "O3+DV", "O3+EVE-4")
        with pytest.raises(Exception) as raised:
            runner.prefetch([(s, "vvadd") for s in systems])
        said = f"{type(raised.value).__name__}: {raised.value}"
        assert "Unpicklable" in said and "probe" in said
        assert set(runner._results) == {
            (s, "vvadd") for s in ("IO", "O3+IV", "O3+DV", "O3+EVE-4")}
        assert check_conservation(hub.ordered_events()) == []

    def test_jobs1_in_process_path_matches(self, tmp_path):
        runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=1,
                                  cache_root=str(tmp_path / "cache"))
        runner.prefetch(PAIRS)
        assert {(s, w): runner.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()


class TestRepeatPrefetch:
    def test_warm_cells_count_as_cached_on_both_runners(self):
        pairs = [("IO", "vvadd"), ("O3+EVE-4", "vvadd")]
        seen = []
        for jobs in (1, 2):
            runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=jobs)
            runner.prefetch(pairs)
            hub = CampaignTelemetry("sweep", campaign_id="c")
            runner.telemetry = hub
            stats = runner.prefetch(pairs)
            events = hub.ordered_events()
            assert check_conservation(events) == []
            seen.append(({key: stats[key]
                          for key in ("cells", "simulated", "cached")},
                         {(e.unit, e.event) for e in events
                          if e.event in TERMINAL_EVENTS}))
        assert seen[0] == seen[1]
        assert seen[0] == ({"cells": 2, "simulated": 0, "cached": 2},
                           {("IO/vvadd", "cache_hit"),
                            ("O3+EVE-4/vvadd", "cache_hit")})


class TestWorkerStrictCheck:
    """A pool worker checks traces exactly as strictly as its runner,
    whatever ``EVE_STRICT_CHECK`` says."""

    @pytest.mark.skipif(parallel.START_METHOD != "fork",
                        reason="the spy reaches pool workers by fork")
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("env,strict", [(None, True), ("1", False)],
                             ids=["unset-strict", "set-lenient"])
    def test_workers_follow_the_runners_strict_check(
            self, env, strict, jobs, tmp_path, monkeypatch):
        log = tmp_path / "checks.log"
        check = runner_module.require_strict_clean

        def spy(trace):
            with open(log, "a") as out:  # forked workers append too
                out.write(f"{trace.vlmax}\n")
            check(trace)

        monkeypatch.setattr(runner_module, "require_strict_clean", spy)
        if env is None:
            monkeypatch.delenv(runner_module.STRICT_CHECK_ENV,
                               raising=False)
        else:
            monkeypatch.setenv(runner_module.STRICT_CHECK_ENV, env)
        runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=jobs,
                                  strict_check=strict)
        # Three vlmaxes, so three groups on the pool.
        runner.prefetch([(s, "vvadd")
                         for s in ("O3+DV", "O3+EVE-8", "O3+EVE-4")])
        checks = log.read_text().split() if log.exists() else []
        assert sorted(map(int, checks)) == ([64, 1024, 2048] if strict
                                            else [])


class TestCellCache:
    def test_repeat_prefetch_hits_disk_cache(self, tmp_path):
        root = str(tmp_path / "cache")
        first = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                 cache_root=root)
        stats = first.prefetch(PAIRS)
        assert stats["cached"] == 0
        second = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                  cache_root=root)
        stats = second.prefetch(PAIRS)
        assert stats["cached"] == len(PAIRS)
        assert stats["simulated"] == 0
        assert {(s, w): second.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()

    def test_shared_trace_built_once(self, tmp_path):
        # EVE-1 and EVE-4 share one VL=2048 trace: one task builds it
        # (plus IO's scalar trace), and the cache holds results only.
        root = str(tmp_path / "cache")
        runner = ExperimentRunner(params_override=TINY_PARAMS, jobs=2,
                                  cache_root=root)
        runner.prefetch([(s, "vvadd") for s in SYSTEMS])
        assert runner.profiler.calls["worker:trace_build"] == 2
        assert runner.profiler.calls["worker:compile"] == 2
        assert os.listdir(root) == ["results"]
        assert cache_stats(root)["result"]["count"] == len(SYSTEMS)

    def test_params_fingerprint_separates_scales(self):
        tiny = params_fingerprint("vvadd", TINY_PARAMS)
        full = params_fingerprint("vvadd", None)
        assert tiny != full
        assert params_fingerprint("VVadd", TINY_PARAMS) == tiny

    def test_params_fingerprint_separates_seeds(self):
        default = params_fingerprint("vvadd", TINY_PARAMS)
        seeded = params_fingerprint("vvadd", TINY_PARAMS, seed=7)
        assert default != seeded
        assert params_fingerprint("vvadd", TINY_PARAMS, seed=7) == seeded

    def test_simulate_cell_accepts_seeded_specs(self, tmp_path):
        root = str(tmp_path / "cache")
        (first,) = simulate_cell(_group_spec(["IO"], root, seed=7))["cells"]
        # Same seed hits the cache; the default seed occupies a different
        # cell entirely.
        (again,) = simulate_cell(_group_spec(["IO"], root, seed=7))["cells"]
        (default,) = simulate_cell(_group_spec(["IO"], root))["cells"]
        assert again["cached"] is True
        assert default["cached"] is False
        assert first["result"].cycles > 0

    @pytest.mark.parametrize("smash", [
        lambda entry, cycles: b"not a pickle",
        # FRAME too long: OverflowError
        lambda entry, cycles: b"\x80\x05\x95" + b"\xff" * 8,
        # SETITEM on a str: TypeError
        lambda entry, cycles: b"\x80\x05\x8c\x01a\x8c\x01b\x8c\x01cs.",
        # MemoryError
        lambda entry, cycles: (b"\x80\x05\x8e"
                               + (2 ** 62).to_bytes(8, "little")),
        _flip_cycles_bit,
        # Unpickles, to an object that is not a cell payload.
        lambda entry, cycles: pickle.dumps(7),
    ], ids=["not-a-pickle", "overflow", "type-error", "memory-error",
            "bit-flip", "wrong-object"])
    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, smash):
        root = str(tmp_path)
        (good,) = simulate_cell(_group_spec(["IO"], root))["cells"]
        path = good["cache_path"]
        with open(path, "rb") as handle:
            entry = handle.read()
        cycles = good["result"].cycles
        garbage = smash(entry, cycles)
        assert garbage != entry
        cache = CellCache(root)
        other = cache.result_path("IO", "vvadd", "abc", "def")
        os.makedirs(os.path.dirname(other), exist_ok=True)
        for target in (other, path):
            with open(target, "wb") as handle:
                handle.write(garbage)
        assert cache.load_entry(other) == (None, "corrupt")
        # The cell's own entry, smashed: quarantined and re-simulated.
        (out,) = simulate_cell(_group_spec(["IO"], root))["cells"]
        assert out["cached"] is False
        assert (out["cache"], out["cache_path"]) == ("corrupt", path)
        assert out["result"].cycles == cycles
        assert cache.load_entry(path)[1] == "hit"
        # A second corruption of the same entry keeps the first's bytes.
        again = b"again " + garbage
        with open(path, "wb") as handle:
            handle.write(again)
        (out,) = simulate_cell(_group_spec(["IO"], root))["cells"]
        assert out["cache"] == "corrupt"
        for quarantined, content in ((f"{path}.corrupt", garbage),
                                     (f"{path}.1.corrupt", again)):
            with open(quarantined, "rb") as handle:
                assert handle.read() == content
        assert cache_stats(root)["corrupt"]["count"] == 3  # other's too

    def test_collect_metrics_round_trip(self, tmp_path):
        root = str(tmp_path / "cache")
        spec = _group_spec(["O3+EVE-1"], root, collect_metrics=True)
        (first,) = simulate_cell(spec)["cells"]
        assert first["metrics_flat"]
        (second,) = simulate_cell(spec)["cells"]
        assert second["cached"] is True
        assert second["metrics_flat"] == first["metrics_flat"]
        assert second["result"].cycles == first["result"].cycles

    def test_config_fingerprint_stable(self):
        assert sweep_config_fingerprint() == sweep_config_fingerprint()


def _store_results(root, systems, mtimes):
    """One equal-size result entry per system, stamped with ``mtimes``."""
    cache = CellCache(root)
    paths = {}
    for system, mtime in zip(systems, mtimes):
        path = cache.result_path(system, "vvadd", "fp", "cfg")
        cache.store(path, {"cell": system})
        os.utime(path, (mtime, mtime))
        paths[system] = path
    return cache, paths


def _surviving(paths):
    return sorted(name for name, path in paths.items()
                  if os.path.exists(path))


class TestCachePrune:
    def test_evicts_least_recently_used_and_hits_refresh(self, tmp_path):
        root = str(tmp_path)
        cache, paths = _store_results(root, ["A", "B", "C"],
                                      [1000, 2000, 3000])
        size = os.path.getsize(paths["A"])
        assert cache.load_entry(paths["A"])[1] == "hit"  # A is now newest
        assert prune_cache(root, max_bytes=2 * size)["removed"] == 1
        assert _surviving(paths) == ["A", "C"]
        prune_cache(root, max_bytes=size)
        assert _surviving(paths) == ["A"]

    def test_corrupt_files_are_never_pruned_nor_counted(self, tmp_path):
        root = str(tmp_path)
        cache, paths = _store_results(root, ["A"], [1000])
        bad = cache.result_path("B", "vvadd", "fp", "cfg")
        with open(bad, "wb") as handle:
            handle.write(b"not a pickle" * 100)
        assert cache.load_entry(bad)[1] == "corrupt"  # quarantined
        live = os.path.getsize(paths["A"])
        stats = cache_stats(root)
        assert stats["corrupt"]["count"] == 1
        assert stats["total_bytes"] == live
        assert prune_cache(root, max_bytes=live)["removed"] == 0
        assert prune_cache(root, max_bytes=0)["removed"] == 1
        assert _surviving(paths) == []
        assert os.path.exists(f"{bad}.corrupt")


class TestSweepPairs:
    def test_cross_product_order_and_canonical(self):
        pairs = sweep_pairs(["io", "o3+eve-4"], ["VVADD"])
        assert pairs == [("IO", "vvadd"), ("O3+EVE-4", "vvadd")]

    def test_defaults_cover_full_grid(self):
        pairs = sweep_pairs()
        assert len(pairs) == 10 * len(REGISTRY)

    def test_scorecard_pairs_include_geomean_apps(self):
        pairs = scorecard_pairs(("fig6",), ("vvadd",))
        apps = {w for _, w in pairs}
        assert "vvadd" in apps
        assert "k-means" in apps  # geomean* row always needs these

    def test_scorecard_pairs_fig8_only(self):
        pairs = scorecard_pairs(("fig8",), ("backprop", "vvadd"))
        assert all(w == "backprop" for _, w in pairs)
        assert all(s.startswith("O3+EVE-") for s, _ in pairs)


class TestCanonicalization:
    def test_canonical_names(self):
        assert canonical_system("o3+eve-4") == "O3+EVE-4"
        assert canonical_system("unknown") == "unknown"
        assert canonical_workload("K-Means") == "k-means"
        assert canonical_workload("unknown") == "unknown"

    def test_runner_cache_is_case_insensitive(self):
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        first = runner.run("io", "VVADD")
        assert runner.run("IO", "vvadd") is first
        assert len(runner._results) == 1


class TestGeomeanGuard:
    def test_empty_selection_raises_repro_error(self):
        with pytest.raises(ExperimentError, match="empty selection.*nothing"):
            geomean([], what="nothing matched the app filter")

    def test_normal_geomean_unchanged(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)


class TestSelfProfilerExclusive:
    def test_nested_phase_not_double_counted(self):
        prof = SelfProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        # Inner time must have been subtracted from outer: the phase sum
        # equals the top-level wall-clock, not more.
        assert prof.seconds["outer"] >= 0.0
        assert prof.total() == pytest.approx(
            prof.seconds["outer"] + prof.seconds["inner"])

    def test_sum_of_phases_matches_wall_clock(self):
        import time
        prof = SelfProfiler()
        start = time.perf_counter()
        with prof.phase("sweep"):
            with prof.phase("sim:A"):
                time.sleep(0.02)
            with prof.phase("sim:B"):
                time.sleep(0.02)
        wall = time.perf_counter() - start
        assert prof.total() == pytest.approx(wall, rel=0.25, abs=0.02)
        assert prof.seconds["sweep"] < 0.02  # exclusive, not inclusive

    def test_absorb_namespaces_and_sums(self):
        parent, child = SelfProfiler(), SelfProfiler()
        with child.phase("sim:IO"):
            pass
        parent.absorb(child.as_dict(), prefix="worker:")
        parent.absorb(child.as_dict(), prefix="worker:")
        assert parent.calls["worker:sim:IO"] == 2


def _append_records(args):
    root, worker_id, count = args
    store = RunStore(root)
    ids = []
    for i in range(count):
        record = make_record("run", label=f"w{worker_id}-{i}")
        ids.append(store.append(record))
    return ids


class TestConcurrentRunStore:
    def test_concurrent_appends_stay_consistent(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method")
        root = str(tmp_path / "store")
        procs, per_proc = 4, 5
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=procs) as pool:
            id_lists = pool.map(
                _append_records,
                [(root, w, per_proc) for w in range(procs)])
        all_ids = [record_id for ids in id_lists for record_id in ids]
        assert len(all_ids) == procs * per_proc
        assert len(set(all_ids)) == len(all_ids), "duplicate record ids"

        store = RunStore(root)
        records = list(store.records())  # every JSONL line parses
        expected = {f"{seq:06d}-run" for seq in range(1, procs * per_proc + 1)}
        assert set(all_ids) == expected
        assert [r.record_id for r in records] == sorted(expected)
        assert filter_history(store) == [r.summary()
                                         for r in reversed(records)]
