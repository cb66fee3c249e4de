"""Experiment harness: system building, runner caching, figure generators."""

import pytest

from repro.config import make_system
from repro.core import EveMachine
from repro.cores import DecoupledVectorMachine, IntegratedVectorMachine, ScalarCore
from repro.errors import ConfigError
from repro.experiments import build_machine, format_table, trace_vlmax
from repro.experiments.figures import (
    area_efficiency,
    area_table,
    figure2,
    figure7,
    figure8,
    geomean,
    table3,
    table4_characterization,
)


class TestSystems:
    def test_machine_types(self):
        assert isinstance(build_machine("IO"), ScalarCore)
        assert isinstance(build_machine("O3"), ScalarCore)
        assert isinstance(build_machine("O3+IV"), IntegratedVectorMachine)
        assert isinstance(build_machine("O3+DV"), DecoupledVectorMachine)
        assert isinstance(build_machine("O3+EVE-8"), EveMachine)

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            build_machine("TPU")

    def test_trace_vlmax(self):
        assert trace_vlmax(make_system("IO")) == 0
        assert trace_vlmax(make_system("O3+IV")) == 64
        assert trace_vlmax(make_system("O3+DV")) == 64
        assert trace_vlmax(make_system("O3+EVE-8")) == 1024
        assert trace_vlmax(make_system("O3+EVE-1")) == 2048


class TestRunner:
    def test_results_cached(self, tiny_runner):
        first = tiny_runner.run("IO", "vvadd")
        assert tiny_runner.run("IO", "vvadd") is first

    def test_traces_shared_across_same_vlmax(self, tiny_runner):
        tiny_runner.run("O3+EVE-1", "vvadd")
        tiny_runner.run("O3+EVE-2", "vvadd")
        assert ("vvadd", 2048) in tiny_runner._traces

    def test_speedup_positive(self, tiny_runner):
        assert tiny_runner.speedup("O3", "vvadd", baseline="IO") > 0

    def test_trace_for_returns_the_simulated_trace(self, tiny_runner):
        trace = tiny_runner.trace_for("o3+eve-4", "vvadd")
        assert trace.vlmax == 2048
        assert tiny_runner._traces[("vvadd", 2048)] is trace
        assert tiny_runner.trace_for("IO", "vvadd").vlmax is None

    def test_strict_check_env_switch(self, monkeypatch):
        from repro.experiments.runner import (ExperimentRunner,
                                              strict_check_enabled)
        monkeypatch.delenv("EVE_STRICT_CHECK", raising=False)
        assert not strict_check_enabled()
        assert not ExperimentRunner().strict_check
        monkeypatch.setenv("EVE_STRICT_CHECK", "1")
        assert strict_check_enabled()
        assert ExperimentRunner().strict_check
        assert not ExperimentRunner(strict_check=False).strict_check

    def test_strict_check_accepts_clean_workload_traces(self):
        from repro.experiments.runner import ExperimentRunner
        from repro.workloads import REGISTRY
        runner = ExperimentRunner(
            params_override={"vvadd": dict(REGISTRY["vvadd"].tiny_params)},
            strict_check=True)
        assert runner.trace_for("O3+EVE-4", "vvadd").vlmax == 2048

    def test_eve_result_carries_breakdown(self, tiny_runner):
        result = tiny_runner.run("O3+EVE-8", "vvadd")
        assert result.breakdown is not None
        assert result.breakdown.total() == pytest.approx(result.cycles,
                                                         rel=0.02)


class TestStaticTables:
    def test_figure2_rows(self):
        rows = figure2(measured=True)
        assert [r["factor"] for r in rows] == [1, 2, 4, 8, 16, 32]
        peak = max(rows, key=lambda r: r["add_throughput_rel"])
        assert peak["factor"] == 4

    def test_table3_matches_paper(self):
        rows = {r["system"]: r for r in table3()}
        assert rows["O3"]["l2_kb"] == 512
        assert rows["O3+EVE-8"]["l2_kb"] == 256
        assert rows["O3+EVE-8"]["hardware_vl"] == 1024
        assert rows["O3+EVE-1"]["hardware_vl"] == 2048
        assert rows["O3+EVE-32"]["cycle_time_ns"] == pytest.approx(1.55)

    def test_table4_characterization_columns(self):
        rows = table4_characterization(apps=("vvadd",), vlmax=64)
        row = rows[0]
        assert row["vi_pct"] > 30
        assert row["vo_pct"] > 90
        assert row["arint"] == pytest.approx(1 / 3, abs=0.01)
        assert row["winf"] < 1.0  # vector version does less bookkeeping

    def test_area_table(self):
        rows = {r["system"]: r for r in area_table()}
        assert rows["O3+DV"]["area_factor"] == pytest.approx(2.0)
        assert rows["O3+EVE-8"]["l2_overhead"] == pytest.approx(0.117,
                                                               abs=0.001)


class TestDynamicFigures:
    """Shape assertions on tiny inputs (full sizes run in benchmarks/)."""

    def test_figure7_normalised_to_eve1(self, tiny_runner):
        rows = figure7(tiny_runner, apps=("vvadd",))
        eve1 = [r for r in rows if r["system"] == "O3+EVE-1"][0]
        assert eve1["total"] == pytest.approx(1.0)
        for row in rows:
            assert row["busy"] >= 0

    def test_figure8_fractions_in_range(self, tiny_runner):
        rows = figure8(tiny_runner, apps=("vvadd",))
        for row in rows:
            for system, value in row.items():
                if system != "workload":
                    assert 0.0 <= value <= 1.0

    def test_area_efficiency_favors_eve8_over_dv(self, tiny_runner):
        rows = {r["system"]: r for r in area_efficiency(
            tiny_runner, apps=("vvadd",))}
        assert rows["O3+EVE-8"]["area_factor"] < rows["O3+DV"]["area_factor"]

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bb", 20.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_numbers(self):
        out = format_table(["x"], [[0.1234], [123.4], [5.0]])
        assert "0.123" in out
        assert "123" in out
