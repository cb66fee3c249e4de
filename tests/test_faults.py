"""Fault-injection engine and campaign-runner tests."""

import pytest

from repro.core.functional import EveFunctionalEngine
from repro.errors import FaultInjectionError
from repro.faults.campaign import (OUTCOMES, CampaignReport, family_of,
                                   run_campaign)
from repro.faults.fuzz import generate_case, run_dut
from repro.faults.inject import (FAULT_MODELS, NULL_FAULTS, FaultInjector,
                                 FaultProbe, FaultSpec)
from repro.obs import MetricsRegistry


class TestFaultSpec:
    def test_rejects_unknown_model(self):
        with pytest.raises(FaultInjectionError, match="unknown fault model"):
            FaultSpec(model="cosmic_ray", seed=0)

    def test_rejects_non_positive_flips(self):
        with pytest.raises(FaultInjectionError, match="flip count"):
            FaultSpec(model="multi_bitflip", seed=0, flips=0)

    def test_null_injector_is_disabled(self):
        assert NULL_FAULTS.enabled is False


class _RecordingProbe(FaultProbe):
    """A probe that also logs every context hook in call order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_macro(self, macro):
        super().on_macro(macro)
        self.calls.append(("macro", macro))

    def on_program(self, name):
        super().on_program(name)
        self.calls.append(("program", name))


class TestProbe:
    def test_macro_context_follows_execution(self):
        # vsub(a, a) first copies `a` into a temporary (the sub program
        # complements one source in place), so the copy's program must
        # run under its own macro, not under `sub`.
        probe = _RecordingProbe()
        engine = EveFunctionalEngine(4, capacity=8, faults=probe)
        engine.setvl(8)
        a = engine.vmv(5)
        probe.calls.clear()
        diff = engine.vsub(a, a)
        assert probe.calls == [("macro", "move"), ("program", "move/4"),
                               ("macro", "sub"), ("program", "sub/4")]
        assert engine.peek(diff).tolist() == [0] * 8

    def test_counts_events_on_a_real_program(self):
        case = generate_case(0, vlmax=8, num_ops=6)
        probe = FaultProbe()
        out = run_dut(case, 8, faults=probe)
        assert "crash" not in out
        assert probe.wb_events > 0
        assert probe.macro_ops > 0

    def test_narrow_segments_commit_carries(self):
        # At n=1 every 32-bit add walks 32 segment boundaries, so any
        # arithmetic program must produce carry-commit events.
        case = generate_case(0, vlmax=8, num_ops=6)
        probe = FaultProbe()
        run_dut(case, 1, faults=probe)
        assert probe.carry_events > 0


class TestInjectorAddressing:
    def _make(self, model, seed=5):
        return FaultInjector(FaultSpec(model=model, seed=seed),
                             wb_events=100, carry_events=40,
                             rows=256, cols=64, groups=8)

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_same_seed_same_address(self, model):
        assert self._make(model).describe() == self._make(model).describe()

    def test_different_seeds_move_the_fault(self):
        descriptions = {str(self._make("bitflip", seed=s).describe())
                        for s in range(8)}
        assert len(descriptions) > 1

    def test_multi_bitflip_draws_flip_many_sites(self):
        injector = self._make("multi_bitflip")
        assert len(injector.flip_sites) == 4

    def test_unarmable_without_events(self):
        with pytest.raises(FaultInjectionError, match="stuck_carry"):
            FaultInjector(FaultSpec(model="stuck_carry", seed=0),
                          wb_events=10, carry_events=0,
                          rows=256, cols=64, groups=8)
        with pytest.raises(FaultInjectionError, match="write-back"):
            FaultInjector(FaultSpec(model="drop_wb", seed=0),
                          wb_events=0, carry_events=10,
                          rows=256, cols=64, groups=8)


class TestWordSurfaces:
    """The hooks see the SRAM's words: carry flags at each group's LSB
    column, and each write-back value as one row word."""

    @pytest.mark.parametrize("factor", [1, 4])
    def test_stuck_carry_forces_only_its_group(self, factor):
        groups = 8
        lsb = sum(1 << (g * factor) for g in range(groups))
        stuck = set()
        for seed in range(4):
            injector = FaultInjector(FaultSpec(model="stuck_carry", seed=seed),
                                     wb_events=1, carry_events=1, rows=8,
                                     cols=groups * factor, groups=groups)
            bit = 1 << (injector.group * factor)
            stuck.add(injector.stuck_value)
            for flags in (0, lsb, lsb ^ bit, bit):
                out = injector.filter_carry(flags)
                assert out & bit == (bit if injector.stuck_value else 0)
                assert out & ~bit == flags & ~bit
        assert stuck == {0, 1}

    def test_latch_wb_replays_the_previous_word(self):
        words = [0x1234, 0xBEEF, 0x0F0F]
        targets = set()
        for seed in range(6):
            injector = FaultInjector(FaultSpec(model="latch_wb", seed=seed),
                                     wb_events=len(words), carry_events=0,
                                     rows=8, cols=16, groups=4)
            targets.add(injector.target)
            for event, value in enumerate(words):
                out = injector.filter_wb(None, 0, "and", value)
                if event != injector.target:
                    assert out == value
                elif event:
                    assert out == words[event - 1]
                else:
                    assert out == 0  # nothing latched yet: reset state
        assert targets == {0, 1, 2}


class TestCampaign:
    def test_rejects_bad_arguments(self):
        with pytest.raises(FaultInjectionError, match="positive"):
            run_campaign(0)
        with pytest.raises(FaultInjectionError, match="unknown fault model"):
            run_campaign(1, models=["gamma_burst"])

    def test_deterministic_and_jobs_invariant(self):
        kwargs = {"seed": 3, "vlmax": 8, "num_ops": 6}
        first = run_campaign(6, jobs=1, **kwargs)
        again = run_campaign(6, jobs=1, **kwargs)
        pooled = run_campaign(6, jobs=2, **kwargs)
        as_json = [o.to_json_dict() for o in first.outcomes]
        assert as_json == [o.to_json_dict() for o in again.outcomes]
        assert as_json == [o.to_json_dict() for o in pooled.outcomes]

    def test_classifies_every_injection(self):
        report = run_campaign(5, seed=1, vlmax=8, num_ops=6)
        assert len(report.outcomes) == 5
        for out in report.outcomes:
            assert out.outcome in OUTCOMES
        counts = report.counts
        assert sum(counts.values()) == 5
        assert 0.0 <= report.sdc_rate <= 1.0

    def test_round_robins_models_and_factors(self):
        report = run_campaign(10, models=["bitflip", "drop_wb"],
                              factors=(1, 32), seed=2, vlmax=8, num_ops=6)
        assert {o.model for o in report.outcomes} == {"bitflip", "drop_wb"}
        assert {o.factor for o in report.outcomes} == {1, 32}

    def test_metrics_land_in_the_faults_namespace(self):
        metrics = MetricsRegistry()
        report = run_campaign(4, seed=4, vlmax=8, num_ops=6,
                              metrics=metrics)
        flat = metrics.flat()
        assert flat["faults.injections"] == 4
        assert flat["faults.sdc_rate.value"] == report.sdc_rate
        assert sum(flat[f"faults.{name}"] for name in OUTCOMES) == 4

    def test_report_json_shape(self):
        report = run_campaign(4, seed=6, vlmax=8, num_ops=6)
        doc = report.to_json_dict()
        assert doc["count"] == 4
        assert len(doc["outcomes"]) == 4
        for table in ("by_factor", "by_model", "by_family"):
            for bucket in doc[table].values():
                assert bucket["injections"] >= 1
                assert 0.0 <= bucket["sdc_rate"] <= 1.0


class TestFamilies:
    def test_known_macros_map_to_figure4_families(self):
        assert family_of("add") == "arith"
        assert family_of("logic") == "logical"
        assert family_of("shift_variable") == "shift"
        assert family_of("div") == "div"

    def test_unknown_and_missing_map_to_other(self):
        assert family_of(None) == "other"
        assert family_of("teleport") == "other"

    def test_empty_report_rates_are_zero(self):
        report = CampaignReport(seed=0, count=0, models=FAULT_MODELS,
                                factors=(8,))
        assert report.sdc_rate == 0.0
        assert report.detected_rate == 0.0
