"""Differential-fuzzer tests: generator, interpreter, shrinker."""

import json
import os

import pytest

from repro.core.functional import EveFunctionalEngine
from repro.errors import FaultInjectionError
from repro.faults.fuzz import (FUZZ_WIDTHS, FuzzCase, _trace_is_clean,
                               check_case, fuzz_many, generate_case,
                               load_case, run_dut, run_oracle, shrink_case)
from repro.obs.events import (TERMINAL_EVENTS, CampaignTelemetry,
                              check_conservation)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestGenerator:
    def test_same_seed_same_case(self):
        assert (generate_case(17).to_json_dict()
                == generate_case(17).to_json_dict())

    def test_different_seeds_differ(self):
        assert (generate_case(17).to_json_dict()
                != generate_case(18).to_json_dict())

    def test_cases_stay_in_the_bit_exact_envelope(self):
        # A small sweep of generated cases must run divergence-free on a
        # healthy tree (the CI smoke runs a much larger one).
        for seed in range(6):
            case = generate_case(seed, num_ops=8)
            assert check_case(case, (1, 8, 32)) == []

    def test_case_always_ends_with_a_store(self):
        case = generate_case(3)
        assert case.ops[-1]["op"] == "vse32"


class TestCaseFormat:
    def test_vl_clamps_avl_to_vlmax(self):
        case = FuzzCase(seed=0, vlmax=4, avl=9, inputs={}, ops=[])
        assert case.vl == 4

    def test_rejects_unknown_version(self):
        doc = generate_case(0).to_json_dict()
        doc["version"] = 99
        with pytest.raises(FaultInjectionError, match="version"):
            FuzzCase.from_dict(doc)

    def test_rejects_malformed_case(self):
        with pytest.raises(FaultInjectionError, match="malformed"):
            FuzzCase.from_dict({"seed": 0})

    def test_load_case_unwraps_mismatch_files(self, tmp_path):
        case = generate_case(5)
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(
            {"factor": 8, "divergence": {}, "case": case.to_json_dict()}))
        assert load_case(str(path)) == case

    def test_unknown_op_is_a_replay_error(self):
        case = FuzzCase(seed=0, vlmax=4, avl=4, inputs={},
                        ops=[{"op": "vfmadd"}])
        # The guarded runner reports the crash as an observation record.
        assert "crash" in run_oracle(case)


class TestFuzzerFindsBugs:
    """Re-open the fuzzer's real catch (vsub(a, a) alias corruption) by
    disabling the VCU's alias-breaking copy, and check detection plus
    shrinking end to end."""

    @pytest.fixture()
    def alias_bug(self, monkeypatch):
        monkeypatch.setattr(EveFunctionalEngine, "_ALIAS_UNSAFE",
                            frozenset())

    def test_corpus_case_detects_the_alias_bug(self, alias_bug):
        case = load_case(os.path.join(CORPUS_DIR, "sub_alias.json"))
        failures = check_case(case, FUZZ_WIDTHS)
        assert [factor for factor, _ in failures] == list(FUZZ_WIDTHS)
        assert all(div["kind"] in ("op", "buffer")
                   for _, div in failures)

    def test_shrinker_produces_a_minimal_repro(self, alias_bug):
        case = load_case(os.path.join(CORPUS_DIR, "sub_alias.json"))
        shrunk = shrink_case(case, 8)
        # Still reproduces ...
        assert check_case(shrunk, (8,)) != []
        # ... with fewer ops than the original six-op program: one load,
        # one aliased subtract, and nothing else is needed.
        assert len(shrunk.ops) <= 3
        # The shrunk case must stay replayable after a JSON round trip.
        assert check_case(FuzzCase.from_dict(shrunk.to_json_dict()),
                          (8,)) != []
        # The shrunk repro must still pass the static analyzer: the
        # original trace is clean, so the cleanliness ratchet holds.
        assert _trace_is_clean(case) is True
        assert _trace_is_clean(shrunk) is True

    def test_fuzz_many_writes_replayable_repros(self, alias_bug, tmp_path):
        out_dir = tmp_path / "repros"
        # Corpus-style aliasing is rare in random programs, so drive
        # fuzz_many over seeds until the broken engine diverges once.
        mismatches = fuzz_many(40, master_seed=2, widths=(8,),
                               out_dir=str(out_dir), num_ops=10)
        assert mismatches, "no generated case hit the alias bug"
        files = sorted(out_dir.glob("mismatch-*.json"))
        assert len(files) == len(mismatches)
        replay = load_case(str(files[0]))
        assert check_case(replay, (mismatches[0].factor,)) != []


class TestShrinkCleanlinessRatchet:
    """Shrinking never trades analyzability for size: once a candidate's
    oracle trace passes ``check``, dirtier candidates are rejected."""

    @pytest.fixture()
    def always_diverges(self, monkeypatch):
        from repro.faults import fuzz
        monkeypatch.setattr(fuzz, "compare_runs",
                            lambda a, b: {"kind": "op", "index": 0})

    def test_dirty_original_shrinks_to_a_clean_repro(self, always_diverges):
        # Seed 1 generates a case with a dead compare, so its trace starts
        # dirty; the reducers strip it, the ratchet engages, and the final
        # repro is clean even though the original was not.
        case = generate_case(1)
        assert _trace_is_clean(case) is False
        shrunk = shrink_case(case, 8)
        assert len(shrunk.ops) < len(case.ops)
        assert _trace_is_clean(shrunk) is True

    def test_crashing_case_bypasses_the_ratchet(self):
        case = FuzzCase(seed=0, vlmax=4, avl=4, inputs={},
                        ops=[{"op": "vfmadd"}])
        assert _trace_is_clean(case) is None


class TestHealthySweep:
    def test_fuzz_many_is_clean_on_a_healthy_tree(self):
        progress_calls = []
        mismatches = fuzz_many(
            4, master_seed=1, num_ops=8,
            progress=lambda done, total, found:
                progress_calls.append((done, total, found)))
        assert mismatches == []
        assert progress_calls[-1] == (4, 4, 0)

    def test_a_failing_seed_leaves_the_others_running(self, monkeypatch):
        from repro.faults import fuzz
        real = fuzz.generate_case
        seen = []

        def generate(seed, **kwargs):
            seen.append(seed)
            if seed == 1:
                raise ValueError("injected failure")
            return real(seed, **kwargs)

        monkeypatch.setattr(fuzz, "generate_case", generate)
        hub = CampaignTelemetry("fuzz", campaign_id="c")
        with pytest.raises(ValueError, match="injected failure"):
            fuzz_many(3, widths=(4,), num_ops=6, telemetry=hub)
        assert seen == [0, 1, 2]
        events = hub.ordered_events()
        assert check_conservation(events) == []
        assert [(e.unit, e.event) for e in events
                if e.event in TERMINAL_EVENTS] == [
            ("seed:0", "finished"), ("seed:1", "failed"),
            ("seed:2", "finished")]

    def test_dut_observations_match_oracle_shapes(self):
        case = generate_case(11, num_ops=8)
        oracle, dut = run_oracle(case), run_dut(case, 4)
        assert oracle["vl"] == dut["vl"] == case.vl
        assert len(oracle["obs"]) == len(dut["obs"]) == len(case.ops)
        assert sorted(oracle["bufs"]) == sorted(case.inputs)
