"""Campaign telemetry: event schema, conservation, merge determinism,
watchdog, progress, trends, and the offline HTML report."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import EventLogError
from repro.experiments import ExperimentRunner, ParallelRunner
from repro.experiments import runner as runner_module
from repro.obs.events import (CAMPAIGN_UNIT, CampaignTelemetry, Event,
                              EventLog, LIVE_EVENTS, TERMINAL_EVENTS,
                              TelemetryMonitor, Watchdog,
                              campaign_summaries, check_conservation,
                              follow_events, read_events)
from repro.obs.htmlreport import build_report, spark_svg, write_report
from repro.obs.progress import (ProgressRenderer, format_bar,
                                format_duration, make_progress)
from repro.obs.runstore import RunStore, make_record
from repro.obs.trend import (compute_trends, filter_history,
                             historical_cell_seconds, record_matches,
                             select_records, sparkline, trend_report)
from repro.workloads import REGISTRY

TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}

SYSTEMS = ("IO", "O3+EVE-4")
WORKLOADS = ("vvadd",)
PAIRS = [(s, w) for w in WORKLOADS for s in SYSTEMS]


def _telemetry(**kwargs):
    kwargs.setdefault("campaign_id", "test-campaign")
    return CampaignTelemetry("sweep", **kwargs)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- schema --------------------------------------------------------------------


class TestEventSchema:
    def test_round_trip(self):
        event = Event(event="finished", unit="IO/vvadd", t=1.25,
                      campaign="c1", seq=3, worker="1234",
                      fingerprint="abc", detail={"cycles": 10.0})
        doc = event.to_json_dict()
        back = Event.from_json_dict(doc)
        assert back == event
        # And through actual JSON text, as the log stores it.
        assert Event.from_json_dict(json.loads(json.dumps(doc))) == event

    def test_rejects_wrong_schema_version(self):
        doc = Event(event="queued", unit="u", t=0.0,
                    campaign="c").to_json_dict()
        doc["v"] = 99
        with pytest.raises(EventLogError, match="version"):
            Event.from_json_dict(doc)

    def test_rejects_unknown_kind(self):
        doc = Event(event="queued", unit="u", t=0.0,
                    campaign="c").to_json_dict()
        doc["event"] = "teleported"
        with pytest.raises(EventLogError, match="unknown event kind"):
            Event.from_json_dict(doc)

    def test_rejects_non_object(self):
        with pytest.raises(EventLogError, match="object"):
            Event.from_json_dict(["not", "an", "event"])

    def test_emit_rejects_unknown_kind(self):
        with pytest.raises(EventLogError, match="unknown event kind"):
            _telemetry(clock=FakeClock()).emit("exploded", "u")


class TestEventLog:
    def test_append_and_read(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        events = [Event(event="queued", unit="u", t=0.0, campaign="c",
                        seq=0),
                  Event(event="finished", unit="u", t=1.0, campaign="c",
                        seq=1)]
        assert log.append(events) == 2
        assert log.append([]) == 0
        assert log.read() == events

    def test_campaign_and_tail_filters(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.append([Event(event="queued", unit="u", t=0.0, campaign=c)
                    for c in ("a", "a", "b")])
        assert [e.campaign for e in read_events(path, campaign="b")] == ["b"]
        assert len(read_events(path, tail=2)) == 2

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="no event log"):
            read_events(str(tmp_path / "absent.jsonl"))

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"bad json\n')
        with pytest.raises(EventLogError, match=":1:"):
            read_events(str(path))

    def test_pool_workers_append_events_without_interleaving(self,
                                                             tmp_path):
        import multiprocessing
        from repro.experiments.parallel import START_METHOD
        path = str(tmp_path / "events.jsonl")
        ctx = multiprocessing.get_context(START_METHOD)
        with ctx.Pool(processes=4) as pool:
            done = pool.map(_append_events,
                            [(path, f"c{i}", 20) for i in range(8)])
        assert sorted(done) == [f"c{i}" for i in range(8)]
        events = read_events(path)
        assert len(events) == 160  # no torn or interleaved lines
        by_campaign = {}
        for event in events:
            by_campaign.setdefault(event.campaign, []).append(event.seq)
        assert all(seqs == list(range(20))
                   for seqs in by_campaign.values())


def _append_events(args):
    """Pool-worker side of the EventLog contention test (picklable)."""
    path, campaign, count = args
    log = EventLog(path)
    log.append([Event(event="queued", unit=f"{campaign}/{i}", t=float(i),
                      campaign=campaign, seq=i) for i in range(count)])
    return campaign


# -- following a live log ------------------------------------------------------


def _line(unit, campaign="c"):
    event = Event(event="queued", unit=unit, t=0.0, campaign=campaign)
    return json.dumps(event.to_json_dict(), sort_keys=True) + "\n"


def _follow(path, actions, **kwargs):
    """Units ``follow_events`` yields from ``path``.  Each idle poll runs
    the next action (a callable that edits the log) and keeps following;
    once the actions run out, ``stop()`` is true and the stream ends."""
    pending = list(actions)

    def stop():
        if not pending:
            return True
        pending.pop(0)()
        return False

    return [e.unit for e in follow_events(str(path), poll_seconds=0.0,
                                          stop=stop, **kwargs)]


class TestFollowEvents:
    def test_partial_final_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "events.jsonl"
        second = _line("b")
        path.write_text(_line("a") + second[:15])

        def finish_line():
            with open(path, "a") as handle:
                handle.write(second[15:])

        assert _follow(path, [finish_line]) == ["a", "b"]

    def test_truncation_restarts_from_the_top(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(_line("a") + _line("b"))
        shrink = [lambda: path.write_text(_line("c"))]
        assert _follow(path, shrink) == ["a", "b", "c"]

    def test_campaign_filter(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(_line("a", "c1") + _line("b", "c2")
                        + _line("c", "c1"))
        assert _follow(path, [], campaign="c1") == ["a", "c"]

    def test_returns_once_stop_is_true(self, tmp_path):
        path = tmp_path / "events.jsonl"  # absent: no events yet
        calls = []
        assert _follow(path, [lambda: calls.append(1)] * 3) == []
        assert len(calls) == 3


# -- conservation --------------------------------------------------------------


def _lifecycle(campaign, unit, terminal="finished"):
    return [Event(event="queued", unit=unit, t=0.0, campaign=campaign),
            Event(event="started", unit=unit, t=0.1, campaign=campaign),
            Event(event=terminal, unit=unit, t=0.2, campaign=campaign)]


class TestConservation:
    def test_clean_log_conserves(self):
        events = _lifecycle("c", "a") + _lifecycle("c", "b", "cache_hit")
        assert check_conservation(events) == []

    def test_missing_terminal_is_flagged(self):
        events = _lifecycle("c", "a")[:-1]
        assert any("0 terminal" in v for v in check_conservation(events))

    def test_double_terminal_is_flagged(self):
        events = _lifecycle("c", "a") + [
            Event(event="failed", unit="a", t=0.3, campaign="c")]
        assert any("2 terminal" in v for v in check_conservation(events))

    def test_unqueued_terminal_is_flagged(self):
        events = [Event(event="finished", unit="ghost", t=0.0, campaign="c")]
        assert any("never queued" in v for v in check_conservation(events))

    def test_campaign_scope_events_are_exempt(self):
        events = [Event(event="campaign_started", unit=CAMPAIGN_UNIT,
                        t=0.0, campaign="c")] + _lifecycle("c", "a")
        assert check_conservation(events) == []


# -- the hub: determinism and lifecycle ----------------------------------------


class TestCampaignTelemetry:
    def test_unit_lifecycle_order(self):
        clock = FakeClock()
        hub = _telemetry(clock=clock)
        hub.begin(["a", "b"])
        # Finish out of input order; the merge must restore it.
        hub.unit_finished("b", ok=True)
        hub.unit_finished("a", ok=False, detail={"error": "X: boom"})
        summary = hub.finalize()
        kinds = [(e.unit, e.event) for e in hub.ordered_events()]
        assert kinds == [("*", "campaign_started"),
                         ("a", "queued"), ("a", "started"), ("a", "failed"),
                         ("b", "queued"), ("b", "started"), ("b", "finished"),
                         ("*", "campaign_finished")]
        assert summary["units"] == 2
        assert summary["counts"]["failed"] == 1

    def test_cached_unit_skips_started(self):
        hub = _telemetry(clock=FakeClock())
        hub.begin(["a"])
        hub.unit_finished("a", cached=True)
        kinds = [e.event for e in hub.ordered_events()
                 if e.unit == "a"]
        assert kinds == ["queued", "cache_hit"]

    def test_cache_corrupt_extra_event_is_counted(self):
        hub = _telemetry(clock=FakeClock())
        hub.begin(["a"])
        hub.unit_finished("a", events=[("cache_corrupt", {"path": "p"})])
        kinds = [e.event for e in hub.ordered_events() if e.unit == "a"]
        assert kinds == ["queued", "started", "cache_corrupt", "finished"]
        assert hub.finalize()["counts"]["cache_corrupt"] == 1

    def test_finalize_is_idempotent(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        hub = _telemetry(clock=FakeClock(), log=log)
        hub.begin(["a"])
        hub.unit_finished("a")
        first = hub.finalize()
        assert hub.finalize() is first
        assert len(log.read()) == first["written"]

    def test_sequence_numbers_are_dense(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        hub = _telemetry(clock=FakeClock(), log=log)
        hub.begin(["a", "b"])
        hub.unit_finished("b")
        hub.unit_finished("a")
        hub.finalize()
        assert [e.seq for e in log.read()] == list(range(8))

    def test_worker_timestamps_are_campaign_relative(self):
        clock = FakeClock(100.0)
        hub = _telemetry(clock=clock)
        hub.begin(["a"])
        clock.advance(2.0)
        hub.unit_finished("a", t_start=101.0, t_end=102.0, worker="777")
        events = {e.event: e for e in hub.ordered_events() if e.unit == "a"}
        assert events["started"].t == pytest.approx(1.0)
        assert events["finished"].t == pytest.approx(2.0)
        assert events["finished"].worker == "777"


class TestWatchdog:
    def test_requires_factor_above_one(self):
        with pytest.raises(EventLogError, match="factor"):
            Watchdog(factor=1.0)

    def test_cold_watchdog_never_fires(self):
        dog = Watchdog()
        assert dog.threshold() is None
        assert not dog.is_stalled(1e9)

    def test_hint_seeds_the_threshold(self):
        dog = Watchdog(factor=4.0, hint_seconds=2.0)
        assert dog.threshold() == pytest.approx(8.0)
        assert dog.is_stalled(8.1)
        assert not dog.is_stalled(7.9)

    def test_observed_durations_take_over(self):
        dog = Watchdog(factor=2.0, hint_seconds=100.0, min_history=3)
        for seconds in (1.0, 1.0, 1.0):
            dog.observe(seconds)
        assert dog.p95() == pytest.approx(1.0)
        assert dog.threshold() == pytest.approx(2.0)

    def test_min_seconds_floor(self):
        dog = Watchdog(factor=4.0, hint_seconds=0.001, min_seconds=0.5)
        assert dog.threshold() == pytest.approx(0.5)

    def test_stall_flagged_once_for_injected_slow_unit(self):
        clock = FakeClock()
        hub = _telemetry(clock=clock,
                         watchdog=Watchdog(factor=2.0, hint_seconds=1.0,
                                           min_seconds=0.0),
                         heartbeat_every=0.0)
        hub.begin(["slow", "fast"])
        # "slow" has been in flight since t=0; cross the 2s threshold.
        clock.advance(3.0)
        hub.heartbeat({"slow": 0.0, "fast": 2.9})
        hub.heartbeat({"slow": 0.0, "fast": 2.9})
        assert hub.stalled_units == ["slow"]
        stalls = [e for e in hub.ordered_events() if e.event == "stalled"]
        assert len(stalls) == 1
        assert stalls[0].unit == "slow"
        assert stalls[0].detail["threshold_seconds"] == pytest.approx(2.0)
        hub.unit_finished("slow")
        hub.unit_finished("fast")
        assert hub.finalize()["stalled"] == ["slow"]


class TestTelemetryMonitor:
    def test_in_flight_tracks_oldest_open_units(self):
        hub = _telemetry(clock=FakeClock())
        monitor = TelemetryMonitor(hub, ["a", "b", "c"], jobs=2)
        for i in range(3):
            monitor.on_dispatch(i)
        assert set(monitor.in_flight()) == {"a", "b"}
        monitor.on_complete(0, {"value": None, "error": None,
                                "t0": None, "t1": None, "pid": 1})
        assert set(monitor.in_flight()) == {"b", "c"}

    def test_error_becomes_failed_event(self):
        hub = _telemetry(clock=FakeClock())
        hub.begin(["a"])
        monitor = TelemetryMonitor(hub, ["a"])
        monitor.on_dispatch(0)
        monitor.on_complete(0, {"value": None, "error": ValueError("boom"),
                                "t0": None, "t1": None, "pid": 9})
        terminal = [e for e in hub.ordered_events()
                    if e.event in TERMINAL_EVENTS]
        assert [e.event for e in terminal] == ["failed"]
        assert "ValueError: boom" in terminal[0].detail["error"]


# -- end to end: serial vs parallel sweeps -------------------------------------


def _sweep_events(tmp_path, jobs, name):
    log = EventLog(str(tmp_path / f"{name}.jsonl"))
    hub = CampaignTelemetry("sweep", log=log, campaign_id=name)
    if jobs == 1:
        runner = ExperimentRunner(params_override=TINY_PARAMS, telemetry=hub)
    else:
        runner = ParallelRunner(params_override=TINY_PARAMS, jobs=jobs,
                                cache_root=str(tmp_path / f"cache-{name}"),
                                telemetry=hub)
    stats = runner.prefetch(PAIRS)
    hub.finalize()
    return stats, log.read()


class TestSweepTelemetry:
    def test_conservation_serial_vs_jobs2(self, tmp_path):
        for jobs, name in ((1, "serial"), (2, "pool")):
            _, events = _sweep_events(tmp_path, jobs, name)
            assert check_conservation(events) == []
            terminal = [e for e in events if e.event in TERMINAL_EVENTS]
            assert len(terminal) == len(PAIRS)

    def test_merge_order_is_deterministic(self, tmp_path):
        _, serial = _sweep_events(tmp_path, 1, "serial")
        _, pooled = _sweep_events(tmp_path, 2, "pool")

        def deterministic(events):
            return [(e.unit, e.event) for e in events
                    if e.event not in LIVE_EVENTS]

        assert deterministic(serial) == deterministic(pooled)

    def test_results_identical_with_and_without_telemetry(self, tmp_path):
        bare = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                              cache_root=str(tmp_path / "cache-bare"))
        bare.prefetch(PAIRS)
        _, _ = _sweep_events(tmp_path, 2, "pool")
        observed = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                  cache_root=str(tmp_path / "cache-pool"))
        # Re-run over the observed run's cache: cycles must agree with
        # the never-instrumented sweep bit-for-bit.
        assert {(s, w): bare.run(s, w).cycles for s, w in PAIRS} == \
               {(s, w): observed.run(s, w).cycles for s, w in PAIRS}

    def test_cache_hits_emit_cache_hit_events(self, tmp_path):
        log = EventLog(str(tmp_path / "warm.jsonl"))
        root = str(tmp_path / "cache")
        ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                       cache_root=root).prefetch(PAIRS)
        hub = CampaignTelemetry("sweep", log=log, campaign_id="warm")
        runner = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                cache_root=root, telemetry=hub)
        stats = runner.prefetch(PAIRS)
        hub.finalize()
        assert stats["cache_hits"] == len(PAIRS)
        assert stats["cache_corrupt"] == 0
        hits = [e for e in log.read() if e.event == "cache_hit"]
        assert len(hits) == len(PAIRS)
        assert check_conservation(log.read()) == []

    def test_serial_failure_runs_the_other_cells_and_conserves(
            self, monkeypatch):
        build_machine = runner_module.build_machine

        def build(system, **kwargs):
            if system == "O3":
                raise ValueError("injected failure")
            return build_machine(system, **kwargs)

        monkeypatch.setattr(runner_module, "build_machine", build)
        hub = _telemetry()
        runner = ExperimentRunner(params_override=TINY_PARAMS, telemetry=hub)
        pairs = [(s, "vvadd") for s in ("IO", "O3", "O3+EVE-4")]
        with pytest.raises(ValueError, match="injected failure"):
            runner.prefetch(pairs)
        assert set(runner._results) == {("IO", "vvadd"),
                                        ("O3+EVE-4", "vvadd")}
        events = hub.ordered_events()
        assert check_conservation(events) == []
        assert [(e.unit, e.event) for e in events
                if e.event in TERMINAL_EVENTS] == [
            ("IO/vvadd", "finished"), ("O3/vvadd", "failed"),
            ("O3+EVE-4/vvadd", "finished")]

    def test_corrupt_cache_entry_quarantined_and_reported(self, tmp_path):
        root = str(tmp_path / "cache")
        ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                       cache_root=root).prefetch(PAIRS)
        # Smash every cached cell result.
        corrupted = []
        for dirpath, _, names in os.walk(os.path.join(root, "results")):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "wb") as handle:
                    handle.write(b"garbage")
                corrupted.append(path)
        assert corrupted
        log = EventLog(str(tmp_path / "corrupt.jsonl"))
        hub = CampaignTelemetry("sweep", log=log, campaign_id="corrupt")
        runner = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                cache_root=root, telemetry=hub)
        stats = runner.prefetch(PAIRS)
        hub.finalize()
        assert stats["cache_corrupt"] == len(corrupted)
        assert stats["simulated"] == len(PAIRS)
        events = log.read()
        assert len([e for e in events if e.event == "cache_corrupt"]) \
            == len(corrupted)
        assert check_conservation(events) == []
        # Quarantined, not deleted: the bad bytes survive for forensics
        # (the re-simulated cell re-populates the original path).
        for path in corrupted:
            assert os.path.exists(path + ".corrupt")
            with open(path + ".corrupt", "rb") as handle:
                assert handle.read() == b"garbage"


# -- summaries -----------------------------------------------------------------


class TestCampaignSummaries:
    def test_rollup_fields(self, tmp_path):
        _, events = _sweep_events(tmp_path, 2, "pool")
        (summary,) = campaign_summaries(events)
        assert summary["campaign"] == "pool"
        assert summary["kind"] == "sweep"
        assert summary["units"] == len(PAIRS)
        assert summary["conserved"] is True
        assert summary["counts"]["queued"] == len(PAIRS)

    def test_violation_marks_campaign(self):
        events = _lifecycle("c", "a")[:-1]
        (summary,) = campaign_summaries(events)
        assert summary["conserved"] is False


# -- progress ------------------------------------------------------------------


class TestProgress:
    def test_format_duration(self):
        assert format_duration(3.21) == "3.2s"
        assert format_duration(73.2) == "1m13s"
        assert format_duration(7321) == "2h02m"
        assert format_duration(-1) == "?"

    def test_format_bar(self):
        assert format_bar(0.5, width=4) == "##--"
        assert format_bar(2.0, width=4) == "####"

    def test_plain_mode_emits_lines(self):
        import io
        clock = FakeClock()
        stream = io.StringIO()
        bar = ProgressRenderer("sweep", mode="plain", stream=stream,
                               clock=clock, plain_every=5.0)
        bar.begin(4)
        clock.advance(6.0)
        bar.update(2)
        bar.update(4)
        bar.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("sweep: [")
        assert any("2/4" in line for line in lines)
        assert any("4/4" in line for line in lines)

    def test_eta_prefers_observed_rate(self):
        clock = FakeClock()
        bar = ProgressRenderer(mode="off", clock=clock, hint_seconds=100.0)
        bar.begin(4)
        assert bar.eta_seconds() == pytest.approx(400.0)
        clock.advance(2.0)
        bar.update(2)
        assert bar.eta_seconds() == pytest.approx(2.0)

    def test_render_shows_failures_and_stalls(self):
        bar = ProgressRenderer(mode="off", clock=FakeClock())
        bar.begin(3)
        bar.update(1, cached=1)
        line = bar.render(cached=1, failed=1, stalled=1, active=["a", "b"])
        assert "1 cached" in line and "1 FAILED" in line
        assert "1 stalled" in line and "<a, b>" in line

    def test_make_progress_quiet_and_non_tty(self):
        import io
        assert make_progress("sweep", quiet=True) is None
        assert make_progress("sweep", stream=io.StringIO()) is None
        forced = make_progress("sweep", force=True, stream=io.StringIO())
        assert forced is not None and forced.mode == "plain"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ProgressRenderer(mode="fancy")


# -- trends --------------------------------------------------------------------


def _trend_record(label, cycles, extra_sweep=None):
    record = make_record("sweep", label=label)
    record.add_result("IO", "vvadd", cycles=cycles, time_ns=cycles)
    record.add_result("O3+EVE-4", "vvadd", cycles=cycles / 10,
                      time_ns=cycles / 10)
    record.speedup_baseline = "IO"
    record.speedups = {"vvadd": {"O3+EVE-4": 10.0}}
    if extra_sweep:
        record.extra["sweep"] = extra_sweep
    return record


class TestTrends:
    def test_record_matches_filters(self):
        record = _trend_record("r", 100.0)
        assert record_matches(record, kind="sweep")
        assert not record_matches(record, kind="fuzz")
        assert record_matches(record, workload="vvadd")
        assert not record_matches(record, workload="sw")
        assert record_matches(record, system="O3+EVE-4")
        assert not record_matches(record, system="O3+DV")

    def test_select_records_keeps_order_and_truncates(self):
        records = [_trend_record(str(i), 100.0 + i) for i in range(5)]
        picked = select_records(records, kind="sweep", last=2)
        assert [r.label for r in picked] == ["3", "4"]

    def test_stable_metric_is_same(self):
        trends = compute_trends([_trend_record("a", 100.0),
                                 _trend_record("b", 100.0)])
        cycles = next(t for t in trends if t.name == "results.IO.vvadd.cycles")
        assert cycles.status == "same"
        assert not cycles.regressed

    def test_cycle_growth_regresses_under_the_diff_policy(self):
        trends = compute_trends([_trend_record("a", 100.0),
                                 _trend_record("b", 150.0)])
        cycles = next(t for t in trends if t.name == "results.IO.vvadd.cycles")
        assert cycles.status == "regressed"
        assert cycles.regressed
        assert cycles.rel_delta == pytest.approx(0.5)

    def test_single_point_is_new(self):
        trends = compute_trends([_trend_record("a", 100.0)])
        assert all(t.status == "new" for t in trends)

    def test_trend_report_collects_regressions(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(_trend_record("a", 100.0))
        store.append(_trend_record("b", 150.0))
        report = trend_report(store, kind="sweep")
        assert report.records == 2
        assert "results.IO.vvadd.cycles" in [t.name for t in report.regressions()]
        payload = report.to_json_dict()
        assert payload["records"] == 2
        assert "results.IO.vvadd.cycles" in payload["regressions"]

    def test_filter_history(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(_trend_record("a", 100.0))
        store.append(_trend_record("b", 110.0))
        rows = filter_history(store, workload="vvadd")
        assert [r["label"] for r in rows] == ["b", "a"]  # newest first
        assert filter_history(store, workload="sw") == []
        assert len(filter_history(store, workload="vvadd", limit=1)) == 1

    def test_historical_cell_seconds(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        assert historical_cell_seconds(store) is None
        store.append(_trend_record("a", 100.0,
                                   {"seconds": 8.0, "simulated": 4}))
        store.append(_trend_record("b", 100.0,
                                   {"seconds": 0.0, "simulated": 0}))
        assert historical_cell_seconds(store) == pytest.approx(2.0)

    def test_historical_cell_seconds_matches_input_scale(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        record = _trend_record("tiny", 100.0,
                               {"seconds": 0.112, "simulated": 14})
        record.tiny = True
        store.append(record)
        hint = historical_cell_seconds(store, tiny=True)
        assert hint == pytest.approx(0.008)
        assert historical_cell_seconds(store, tiny=False) is None

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"


# -- the HTML report -----------------------------------------------------------


class TestHtmlReport:
    def test_report_is_self_contained(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(_trend_record("a", 100.0))
        store.append(_trend_record("b", 150.0))
        _, events = _sweep_events(tmp_path, 1, "serial")
        html = build_report(store, events, generated="2026-01-01")
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script", "@import"):
            assert forbidden not in html
        assert "results.IO.vvadd.cycles" in html
        assert "REGRESSED" in html
        assert "serial" in html  # the campaign rollup

    def test_empty_store_still_renders(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        html = build_report(store, [])
        assert "<!DOCTYPE html>" in html
        assert "no records" in html or "0 record" in html.lower() \
            or "empty" in html.lower()

    def test_write_report_returns_size(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        out = tmp_path / "report.html"
        size = write_report(str(out), store)
        assert size == out.stat().st_size > 0

    def test_spark_svg(self):
        assert spark_svg([]) == ""
        assert spark_svg([1.0]) == ""
        svg = spark_svg([1.0, 2.0, 3.0])
        assert svg.startswith("<svg") and "polyline" in svg

    def test_detail_strings_are_escaped(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        record = _trend_record("<script>alert(1)</script>", 100.0)
        store.append(record)
        html = build_report(store, [])
        assert "<script>alert" not in html
