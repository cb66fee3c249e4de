"""Tests for the record differ: tolerance policies, classification, gating.

The acceptance scenario rides at the bottom: an injected speedup
regression beyond budget makes ``repro diff`` exit non-zero, while the
same regression within budget stays green.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.diff import (
    DEFAULT_SPEEDUP_BUDGET,
    TolerancePolicy,
    default_policies,
    diff_records,
    direction,
    exact,
    policy_for,
    relative,
)
from repro.obs.runstore import RunStore, flatten_record
from tests.test_runstore import sample_record

GOLDEN = (Path(__file__).resolve().parents[1]
          / "benchmarks" / "golden" / "baseline-tiny.json")


class TestTolerancePolicy:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TolerancePolicy("fuzzy")

    def test_direction_requires_a_direction(self):
        with pytest.raises(ValueError):
            TolerancePolicy("direction")

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            TolerancePolicy("relative", rel_eps=-0.1)

    def test_exact_lower_is_better(self):
        cycles = exact(higher_is_better=False)
        assert cycles.classify(100.0, 100.0) == "same"
        assert cycles.classify(100.0, 101.0) == "regressed"
        assert cycles.classify(100.0, 99.0) == "improved"

    def test_exact_without_direction_is_changed(self):
        instr = exact(higher_is_better=None)
        assert instr.classify(10.0, 11.0) == "changed"
        assert instr.classify(10.0, 9.0) == "changed"

    def test_relative_band_absorbs_noise(self):
        wallclock = relative(0.75, higher_is_better=False)
        assert wallclock.classify(1.0, 1.5) == "same"
        assert wallclock.classify(1.0, 2.0) == "regressed"
        assert wallclock.classify(1.0, 0.1) == "improved"

    def test_direction_only_gates_the_bad_way(self):
        speedup = direction(0.05, higher_is_better=True)
        assert speedup.classify(4.0, 3.9) == "same"       # within budget
        assert speedup.classify(4.0, 3.0) == "regressed"  # beyond budget
        assert speedup.classify(4.0, 8.0) == "improved"   # never fatal


class TestPolicyTable:
    def test_first_match_wins(self):
        policies = default_policies()
        assert policy_for("speedup.vvadd.O3+EVE-4", policies).kind == "direction"
        assert policy_for("results.IO.vvadd.cycles", policies).kind == "exact"
        assert policy_for("results.IO.vvadd.cycles", policies).gate is True
        assert policy_for("metrics.sim.cycles", policies).gate is False
        assert policy_for("self_profile.sim.seconds", policies).gate is False
        assert policy_for("bench.vvadd.seconds", policies).kind == "relative"

    def test_unmatched_names_fall_back_advisory(self):
        policy = policy_for("mystery.key", [])
        assert policy.gate is False

    def test_budget_is_tunable(self):
        policies = default_policies(speedup_budget=0.5)
        speedup = policy_for("speedup.vvadd.O3+EVE-4", policies)
        assert speedup.classify(4.0, 2.5) == "same"


class TestDiffRecords:
    def test_identical_records_all_same(self):
        a, b = sample_record(), sample_record()
        diff = diff_records(a, b)
        assert diff.counts()["same"] == len(diff.entries)
        assert diff.exit_code() == 0
        assert diff.interesting() == []

    def test_added_and_removed_keys(self):
        a, b = sample_record(), sample_record()
        b.metrics["new.counter"] = 1.0
        del b.self_profile["sim"]
        diff = diff_records(a, b)
        statuses = {e.name: e.status for e in diff.interesting()}
        assert statuses["metrics.new.counter"] == "added"
        assert statuses["self_profile.sim.seconds"] == "removed"
        assert diff.exit_code() == 0
        assert diff.exit_code(strict=True) == 0  # both keys are advisory

    def test_cycle_change_is_gated(self):
        a, b = sample_record(), sample_record()
        b.results["IO"]["vvadd"]["cycles"] += 1
        diff = diff_records(a, b)
        assert [e.name for e in diff.regressions()] == [
            "results.IO.vvadd.cycles"]
        assert diff.exit_code() == 1

    def test_speedup_regression_beyond_budget_gates(self):
        a, b = sample_record(), sample_record()
        b.speedups["vvadd"]["O3+EVE-4"] = 4.32 * 0.9   # -10% > 5% budget
        assert diff_records(a, b).exit_code() == 1

    def test_speedup_within_budget_stays_green(self):
        a, b = sample_record(), sample_record()
        b.speedups["vvadd"]["O3+EVE-4"] = 4.32 * 0.97  # -3% < 5% budget
        assert diff_records(a, b).exit_code() == 0

    def test_speedup_improvement_never_fails(self):
        a, b = sample_record(), sample_record()
        b.speedups["vvadd"]["O3+EVE-4"] = 8.0
        diff = diff_records(a, b)
        assert diff.exit_code() == 0
        assert diff.exit_code(strict=True) == 0

    def test_strict_gates_instruction_changes(self):
        a, b = sample_record(), sample_record()
        b.results["IO"]["vvadd"]["instructions"] = 43
        diff = diff_records(a, b)
        assert diff.exit_code() == 0
        assert diff.exit_code(strict=True) == 1

    def test_strict_gates_removed_keys(self):
        a, b = sample_record(), sample_record()
        del b.results["O3+EVE-4"]
        diff = diff_records(a, b)
        removed = [e.name for e in diff.gated_changes()]
        assert removed == ["results.O3+EVE-4.vvadd.cycles",
                           "results.O3+EVE-4.vvadd.instructions",
                           "results.O3+EVE-4.vvadd.time_ns"]
        assert diff.exit_code() == 0
        assert diff.exit_code(strict=True) == 1

    def test_wallclock_noise_is_advisory(self):
        a, b = sample_record(), sample_record()
        b.self_profile["sim"]["seconds"] = 2.5   # 10x, way past epsilon
        diff = diff_records(a, b)
        assert diff.exit_code() == 0
        entry = next(e for e in diff.interesting()
                     if e.name == "self_profile.sim.seconds")
        assert entry.status == "regressed" and not entry.gate

    def test_json_report_shape(self):
        a, b = sample_record(), sample_record()
        b.results["IO"]["vvadd"]["cycles"] += 1
        doc = diff_records(a, b).to_json_dict()
        assert doc["fingerprint_match"] is True
        assert doc["regressions"] == ["results.IO.vvadd.cycles"]
        assert doc["counts"]["regressed"] == 1
        assert doc["entries"][0]["name"] == "results.IO.vvadd.cycles"


class TestDiffCli:
    """Acceptance: ``repro diff`` exit codes on injected regressions."""

    def _store_with_pair(self, tmp_path, mutate):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record())
        worse = sample_record()
        mutate(worse)
        store.append(worse)
        return store

    def test_exits_nonzero_on_injected_speedup_regression(self, tmp_path,
                                                          capsys):
        def slow_down(record):
            record.speedups["vvadd"]["O3+EVE-4"] *= (
                1 - 2 * DEFAULT_SPEEDUP_BUDGET)
        store = self._store_with_pair(tmp_path, slow_down)
        code = main(["diff", "latest~1", "latest", "--store", store.root])
        assert code == 1
        out = capsys.readouterr().out
        assert "speedup.vvadd.O3+EVE-4" in out
        assert "regressed" in out

    def test_exits_zero_within_budget(self, tmp_path, capsys):
        def barely_slower(record):
            record.speedups["vvadd"]["O3+EVE-4"] *= (
                1 - DEFAULT_SPEEDUP_BUDGET / 2)
        store = self._store_with_pair(tmp_path, barely_slower)
        assert main(["diff", "latest~1", "latest",
                     "--store", store.root]) == 0

    def test_budget_flag_widens_the_gate(self, tmp_path):
        def slow_down(record):
            record.speedups["vvadd"]["O3+EVE-4"] *= 0.9
        store = self._store_with_pair(tmp_path, slow_down)
        assert main(["diff", "latest~1", "latest", "--store", store.root,
                     "--budget", "0.5"]) == 0

    def test_json_output_and_file(self, tmp_path, capsys):
        def slow_down(record):
            record.speedups["vvadd"]["O3+EVE-4"] *= 0.5
        store = self._store_with_pair(tmp_path, slow_down)
        out_file = tmp_path / "diff.json"
        code = main(["diff", "latest~1", "latest", "--store", store.root,
                     "--json", "--json-out", str(out_file)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressions"] == ["speedup.vvadd.O3+EVE-4"]
        assert json.loads(out_file.read_text()) == doc

    def test_unresolvable_ref_is_usage_error(self, tmp_path, capsys):
        assert main(["diff", "latest", "--store",
                     str(tmp_path / "empty")]) == 2

    def test_diff_against_baseline_file(self, tmp_path):
        record = sample_record()
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(record.to_json_dict()))
        store = RunStore(str(tmp_path / "runs"))
        worse = sample_record()
        worse.speedups["vvadd"]["O3+EVE-4"] *= 0.5
        store.append(worse)
        assert main(["diff", str(golden), "latest",
                     "--store", store.root]) == 1


class TestGoldenGate:
    """CI's regression gate: a tiny IO + O3+EVE-4 sweep record must match
    every gated value of the committed golden baseline exactly."""

    def _gate(self, tmp_path, capsys, systems):
        store = str(tmp_path / "runs")
        assert main(["sweep", "--tiny", "--systems", *systems, "--record",
                     "--store", store]) == 0
        capsys.readouterr()
        out_file = tmp_path / "diff.json"
        code = main(["diff", str(GOLDEN), "latest", "--store", store,
                     "--strict", "--json-out", str(out_file)])
        capsys.readouterr()
        return code, json.loads(out_file.read_text())

    def test_sweep_record_matches_golden(self, tmp_path, capsys):
        code, doc = self._gate(tmp_path, capsys, ["IO", "O3+EVE-4"])
        assert code == 0
        golden = RunStore(str(tmp_path / "runs")).resolve(str(GOLDEN))
        gated = [name for name in flatten_record(golden)
                 if name.startswith(("results.", "speedup."))]
        assert len(gated) == 49
        not_same = {e["name"]: e["status"] for e in doc["entries"]}
        assert {name: not_same[name] for name in gated
                if name in not_same} == {}

    def test_missing_system_fails_the_gate(self, tmp_path, capsys):
        code, doc = self._gate(tmp_path, capsys, ["IO"])
        assert code == 1
        removed = [e["name"] for e in doc["entries"]
                   if e["status"] == "removed" and e["gate"]]
        assert len(removed) == 28
        assert all("O3+EVE-4" in name for name in removed)
