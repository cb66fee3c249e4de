"""Command-line interface tests."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "CRAY-1", "vvadd"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "IO", "linpack"])


class TestCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "O3+EVE-8" in out and "1024" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("vvadd", "sw", "k-means"):
            assert name in out

    def test_uprog(self, capsys):
        assert main(["uprog", "add", "--factor", "4"]) == 0
        out = capsys.readouterr().out
        assert "blc vs1[seg0], vs2[seg0]" in out
        assert "bnz seg0" in out

    def test_uprog_with_op(self, capsys):
        assert main(["uprog", "compare", "--op", "eq"]) == 0
        assert "mask_groups" in capsys.readouterr().out

    def test_figure_fig2(self, capsys):
        assert main(["figure", "fig2"]) == 0
        assert "factor" in capsys.readouterr().out

    def test_figure_area(self, capsys):
        assert main(["figure", "area"]) == 0
        assert "O3+DV" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_run_small(self, capsys, monkeypatch):
        # Patch the workload registry entry to its tiny size for speed.
        from repro.workloads import REGISTRY
        monkeypatch.setattr(REGISTRY["vvadd"], "params",
                            dict(REGISTRY["vvadd"].tiny_params))
        assert main(["run", "O3+EVE-8", "vvadd"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "busy" in out


class TestLintCommand:
    def test_rom_sweep_is_clean(self, capsys):
        assert main(["lint", "--factor", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "program(s) linted" in out

    def test_macro_filter(self, capsys):
        assert main(["lint", "--factor", "8", "--macro", "div"]) == 0
        assert "4 program(s) linted" in capsys.readouterr().out

    def test_unknown_macro_is_usage_error(self, capsys):
        assert main(["lint", "--macro", "frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_asm_listing_with_errors_exits_nonzero(self, capsys, tmp_path):
        listing = tmp_path / "bad.uasm"
        listing.write_text("loop:\n    decr seg0 | nop | bnz seg0, loop\n"
                           "    ret\n")
        assert main(["lint", "--asm", str(listing), "--factor", "4"]) == 1
        out = capsys.readouterr().out
        assert "counter-uninit" in out and "2 error(s)" in out

    def test_asm_listing_clean(self, capsys, tmp_path):
        listing = tmp_path / "ok.uasm"
        listing.write_text("    init seg0, 4\nloop:\n"
                           "    decr seg0 | sclr | bnz seg0, loop\n    ret\n")
        assert main(["lint", "--asm", str(listing)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_asm_syntax_error_is_usage_error(self, capsys, tmp_path):
        listing = tmp_path / "syntax.uasm"
        listing.write_text("- | frob vd[0] | -\n")
        assert main(["lint", "--asm", str(listing)]) == 2
        assert "syntax.uasm" in capsys.readouterr().err

    def test_missing_asm_file_is_usage_error(self, capsys, tmp_path):
        assert main(["lint", "--asm", str(tmp_path / "nope.uasm")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_findings_schema(self, capsys):
        import json
        assert main(["lint", "--factor", "4", "--macro", "div",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"programs", "errors", "warnings", "findings"}
        assert payload["programs"] == 4
        assert payload["errors"] == 0 and payload["findings"] == []


class TestCheckCommand:
    def test_all_workloads_are_clean(self, capsys):
        assert main(["check", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "7 trace(s) checked" in out
        assert "vvadd" in out and "dep_edges" in out

    def test_json_shares_the_lint_schema(self, capsys):
        import json
        assert main(["check", "--workload", "vvadd", "--tiny",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"programs", "errors", "warnings",
                "findings"} <= set(payload)
        assert payload["programs"] == 1
        detail = payload["programs_detail"]["vvadd"]
        assert detail["errors"] == 0 and detail["dep_depth"] > 0

    def test_json_out_writes_the_report(self, capsys, tmp_path):
        import json
        out_file = tmp_path / "findings.json"
        assert main(["check", "--workload", "vvadd", "--tiny",
                     "--json-out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["errors"] == 0
        # human table still printed alongside --json-out
        assert "trace(s) checked" in capsys.readouterr().out

    def test_corpus_mode_flags_expected_dirty_cases(self, capsys):
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        assert main(["check", "--corpus", corpus]) == 1
        out = capsys.readouterr().out
        assert "dead-write" in out
        assert "9 trace(s) checked" in out

    def test_empty_corpus_is_a_diagnostic(self, capsys, tmp_path):
        assert main(["check", "--corpus", str(tmp_path)]) == 2
        assert "no case JSONs" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_case_insensitive_system_name(self):
        args = build_parser().parse_args(["run", "o3+eve-4", "vvadd"])
        assert args.system == "O3+EVE-4"

    def test_case_insensitive_workload_name(self):
        args = build_parser().parse_args(["run", "IO", "VVADD"])
        assert args.workload == "vvadd"

    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json
        out_file = tmp_path / "trace.json"
        assert main(["trace", "o3+eve-4", "vvadd", "--tiny",
                     "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "tracks" in out
        doc = json.loads(out_file.read_text())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert {"VSU", "VMU", "DTU", "VRU", "DRAM"} <= names

    def test_stats_table(self, capsys):
        assert main(["stats", "O3+EVE-4", "vvadd", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "eve.vmu.busy_cycles" in out
        assert "host phase" in out

    def test_stats_json(self, capsys):
        import json
        assert main(["stats", "O3+EVE-4", "vvadd", "--tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "O3+EVE-4"
        assert "metrics" in payload and "self_profile" in payload
        assert payload["trace_stats"]["vector_instrs"] > 0
        assert payload["analysis"]["dead_writes"] == 0
        assert payload["analysis"]["live_high_water"] > 0

    def test_stats_scalar_system_has_no_analysis(self, capsys):
        import json
        assert main(["stats", "IO", "vvadd", "--tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_stats"]["vector_instrs"] == 0
        assert "analysis" not in payload

    def test_stats_csv(self, capsys):
        assert main(["stats", "O3+EVE-4", "vvadd", "--tiny", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("sim.cycles") for line in lines)

    def test_compare_json(self, capsys):
        import json
        assert main(["compare", "vvadd", "--tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "IO"
        assert "O3+EVE-4" in payload["systems"]
        entry = payload["systems"]["O3+EVE-4"]
        assert entry["speedup_vs_IO"] > 1.0
        assert "breakdown" in entry

    def test_metered_compare_is_the_same_at_every_jobs(self, capsys,
                                                       tmp_path):
        import json
        metrics = []
        for jobs in (["--jobs", "1"], ["--jobs", "2", "--no-cache"]):
            out_file = tmp_path / f"metrics-{jobs[1]}.json"
            assert main(["compare", "vvadd", "--tiny",
                         "--metrics-out", str(out_file)] + jobs) == 0
            assert "sweep: 10 cells" in capsys.readouterr().err
            metrics.append(json.loads(out_file.read_text())["metrics"])
        assert metrics[0] == metrics[1]
        assert set(metrics[0]) == {"IO", "O3", "O3+IV", "O3+DV"} | {
            f"O3+EVE-{n}" for n in (1, 2, 4, 8, 16, 32)}

    def test_run_metrics_out(self, capsys, tmp_path):
        import json
        out_file = tmp_path / "metrics.json"
        assert main(["run", "o3+eve-4", "vvadd", "--tiny",
                     "--metrics-out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["system"] == "O3+EVE-4"
        assert "sim.cycles" in payload["metrics"]


class TestErrorHandling:
    """``main`` turns library errors into diagnostics, not tracebacks."""

    def test_repro_error_exits_2(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.errors import ExperimentError

        def boom(_args):
            raise ExperimentError("empty selection")
        monkeypatch.setitem(cli._COMMANDS, "systems", boom)
        assert main(["systems"]) == 2
        err = capsys.readouterr().err
        assert "repro systems: empty selection" in err
        assert "Traceback" not in err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupt(_args):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli._COMMANDS, "systems", interrupt)
        assert main(["systems"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_bad_replay_file_is_a_diagnostic(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["fuzz", "--replay", str(missing)]) == 2
        assert "cannot read case file" in capsys.readouterr().err


class TestFuzzCommand:
    def test_smoke_sweep_is_clean(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--n-widths", "8", "32",
                     "--ops", "6"]) == 0
        assert "2 seed(s) x 2 width(s): OK" in capsys.readouterr().out

    def test_replay_corpus_case(self, capsys):
        import os
        path = os.path.join(os.path.dirname(__file__), "corpus",
                            "sub_alias.json")
        assert main(["fuzz", "--replay", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_report(self, capsys):
        import json
        assert main(["fuzz", "--seeds", "1", "--n-widths", "8",
                     "--ops", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatches"] == []
        assert payload["widths"] == [8]


class TestFaultsCommand:
    def test_campaign_smoke(self, capsys):
        assert main(["faults", "--count", "2", "--n-widths", "8"]) == 0
        out = capsys.readouterr().out
        assert "campaign  : 2 injection(s)" in out
        assert "outcome" in out and "sdc_rate" in out

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--model", "gamma"])

    def test_json_out_and_record(self, capsys, tmp_path):
        import json
        report_file = tmp_path / "campaign.json"
        store = tmp_path / "runs"
        assert main(["faults", "--count", "2", "--n-widths", "8",
                     "--model", "bitflip", "--json-out", str(report_file),
                     "--record", "--store", str(store)]) == 0
        payload = json.loads(report_file.read_text())
        assert payload["count"] == 2
        assert len(payload["outcomes"]) == 2
        assert "recorded" in capsys.readouterr().err
        from repro.obs.runstore import RunStore
        record = RunStore(str(store)).resolve("latest")
        campaign = record.extra["campaign"]
        assert campaign["count"] == 2
        assert "outcomes" not in campaign  # records stay compact
        assert record.metrics["faults.injections"] == 2


class TestSeedOption:
    def test_run_accepts_seed(self, capsys):
        assert main(["run", "IO", "vvadd", "--tiny", "--seed", "7"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_seed_changes_the_record_fingerprint(self, tmp_path):
        from repro.obs.runstore import RunStore
        store = str(tmp_path / "runs")
        assert main(["run", "IO", "vvadd", "--tiny", "--record",
                     "--store", store]) == 0
        assert main(["run", "IO", "vvadd", "--tiny", "--seed", "7",
                     "--record", "--store", store]) == 0
        records = RunStore(store)
        default = records.resolve("latest~1")
        seeded = records.resolve("latest")
        assert default.config_fingerprint != seeded.config_fingerprint


class TestTelemetryOptions:
    SWEEP = ["sweep", "--tiny", "--systems", "IO", "O3+EVE-4",
             "--workloads", "vvadd", "--no-cache", "--json"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_json_identical_with_and_without_events(self, capsys,
                                                          tmp_path, jobs):
        log = str(tmp_path / "events.jsonl")
        sweep = self.SWEEP + ["--jobs", jobs,
                              "--store", str(tmp_path / "runs")]
        assert main(sweep) == 0
        bare = capsys.readouterr().out
        assert main(sweep + ["--events", log]) == 0
        observed = capsys.readouterr().out
        assert observed == bare  # byte-identical results, telemetry or not
        import json
        payload = json.loads(bare)
        assert payload["cache"] == {"hits": 0, "misses": 2, "corrupt": 0}

    def test_sweep_events_log_passes_the_conservation_gate(self, capsys,
                                                           tmp_path):
        log = str(tmp_path / "events.jsonl")
        assert main(self.SWEEP + ["--jobs", "2",
                                  "--store", str(tmp_path / "runs"),
                                  "--events", log]) == 0
        err = capsys.readouterr().err
        assert "events: " in err and "campaign" in err
        assert main(["events", "--log", log, "--check"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "ok" in out

    def test_fuzz_events_conserved(self, capsys, tmp_path):
        log = str(tmp_path / "events.jsonl")
        assert main(["fuzz", "--seeds", "2", "--n-widths", "8", "--ops", "6",
                     "--events", log]) == 0
        # No live renderer without a TTY, so the plain line still prints.
        assert "fuzz: 2/2 seeds checked" in capsys.readouterr().err
        assert main(["events", "--log", log, "--check", "--json"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["conserved"] is True
        assert payload["campaigns"][0]["kind"] == "fuzz"
        assert payload["campaigns"][0]["units"] == 2

    def test_faults_events_conserved(self, capsys, tmp_path):
        log = str(tmp_path / "events.jsonl")
        assert main(["faults", "--count", "2", "--n-widths", "8",
                     "--jobs", "2", "--events", log]) == 0
        capsys.readouterr()
        assert main(["events", "--log", log, "--check"]) == 0

    def test_quiet_and_progress_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--progress", "--quiet"])


class TestEventsCommand:
    def test_missing_log_is_a_diagnostic(self, capsys, tmp_path):
        assert main(["events", "--log", str(tmp_path / "nope.jsonl")]) == 2
        assert "no event log" in capsys.readouterr().err

    def test_check_fails_on_violation(self, capsys, tmp_path):
        from repro.obs.events import Event, EventLog
        log = str(tmp_path / "events.jsonl")
        EventLog(log).append([Event(event="queued", unit="u", t=0.0,
                                    campaign="c", seq=0)])
        assert main(["events", "--log", log, "--check"]) == 1
        captured = capsys.readouterr()
        assert "conservation" in captured.err
        assert main(["events", "--log", log]) == 0  # report-only mode

    def test_tail_limits_the_listing(self, capsys, tmp_path):
        from repro.obs.events import Event, EventLog
        log = str(tmp_path / "events.jsonl")
        EventLog(log).append(
            [Event(event="queued", unit=f"u{i}", t=0.0, campaign="c", seq=i)
             for i in range(5)]
            + [Event(event="finished", unit=f"u{i}", t=1.0, campaign="c",
                     seq=5 + i) for i in range(5)])
        assert main(["events", "--log", log, "--tail", "3"]) == 0
        out = capsys.readouterr().out
        assert "showing last 3 of 10" in out

    def test_check_reads_a_log_with_cancelled_units(self, tmp_path):
        # Logs written by earlier builds record abandoned units as
        # queued -> cancelled; they must still read and conserve.
        from repro.obs.events import Event, EventLog
        log = str(tmp_path / "events.jsonl")
        EventLog(log).append([
            Event(event="queued", unit="IO/vvadd", t=0.0, campaign="c",
                  seq=0),
            Event(event="cancelled", unit="IO/vvadd", t=0.5, campaign="c",
                  seq=1)])
        assert main(["events", "--log", log, "--check"]) == 0


class TestCacheCommand:
    def test_prune_to_zero_removes_every_live_entry(self, capsys, tmp_path):
        import json
        from repro.experiments.parallel import CellCache
        root = str(tmp_path / "cache")
        cache = CellCache(root)
        # A trace pickle as versions that cached traces left it.
        cache.store(os.path.join(root, "traces", "vvadd-vl2048-fp.pkl"),
                    ["trace"])
        for system in ("IO", "O3+EVE-4"):
            cache.store(cache.result_path(system, "vvadd", "fp", "cfg"),
                        {"cell": system})
        assert main(["cache", "--cache-dir", root, "--prune",
                     "--max-bytes", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pruned"]["removed"] == 3
        assert payload["pruned"]["remaining_bytes"] == 0
        assert payload["trace"]["count"] == payload["result"]["count"] == 0
        assert payload["total_bytes"] == 0


class TestReportCommand:
    def test_report_is_written_and_self_contained(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        log = str(tmp_path / "events.jsonl")
        assert main(["run", "IO", "vvadd", "--tiny", "--record",
                     "--store", store]) == 0
        assert main(["sweep", "--tiny", "--systems", "IO", "O3+EVE-4",
                     "--workloads", "vvadd", "--jobs", "2", "--no-cache",
                     "--store", store, "--events", log]) == 0
        out_file = str(tmp_path / "report.html")
        assert main(["report", "-o", out_file, "--store", store,
                     "--log", log]) == 0
        assert "self-contained" in capsys.readouterr().out
        html = open(out_file).read()
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script"):
            assert forbidden not in html

    def test_report_without_event_log(self, capsys, tmp_path):
        out_file = str(tmp_path / "report.html")
        assert main(["report", "-o", out_file,
                     "--store", str(tmp_path / "runs"),
                     "--log", str(tmp_path / "absent.jsonl")]) == 0
        assert os.path.exists(out_file)


class TestHistoryFilters:
    def _seed_store(self, store):
        assert main(["run", "IO", "vvadd", "--tiny", "--record",
                     "--store", store]) == 0
        assert main(["run", "O3+EVE-4", "pathfinder", "--tiny", "--record",
                     "--store", store]) == 0

    def test_workload_filter(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        self._seed_store(store)
        capsys.readouterr()
        assert main(["history", "--store", store,
                     "--workload", "vvadd"]) == 0
        out = capsys.readouterr().out
        assert "000001-run" in out and "000002-run" not in out

    def test_system_filter_with_limit(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        self._seed_store(store)
        capsys.readouterr()
        assert main(["history", "--store", store, "--system", "O3+EVE-4",
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "000002-run" in out and "000001-run" not in out

    def test_empty_filter_mentions_filters(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        self._seed_store(store)
        capsys.readouterr()
        assert main(["history", "--store", store, "--workload", "sw"]) == 0
        assert "for these filters" in capsys.readouterr().out

    def test_rejects_unknown_filter_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["history", "--workload", "linpack"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["history", "--system", "CRAY-1"])
