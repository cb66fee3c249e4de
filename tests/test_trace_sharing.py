"""One trace per program: a vector trace in which no ``vsetvl`` grant was
clamped is the trace of every vlmax at or above its largest requested
AVL, and the runner builds and compiles it once for all of them."""

import pickle

import pytest

from repro.analysis import check_trace
from repro.config import make_system
from repro.errors import AnalysisError
from repro.experiments import ExperimentRunner, trace_vlmax
from repro.experiments import runner as runner_module
from repro.obs import AttributionCollector
from repro.workloads import REGISTRY, tiny_overrides

VLMAXES = (64, 256, 512, 1024, 2048)
EVE_SYSTEMS = tuple(f"O3+EVE-{factor}" for factor in (1, 2, 4, 8, 16, 32))
TINY = tiny_overrides()


def _vlmax(system):
    return trace_vlmax(make_system(system))


def _tiny_runner(**kwargs):
    return ExperimentRunner(params_override=TINY, **kwargs)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_unclamped_trace_is_the_trace_of_every_wider_vlmax(name):
    """Kernels see vlmax only through ``setvl``: this fails the day one
    reads it anywhere else."""
    workload = REGISTRY[name]
    traces = {vlmax: workload.vector_trace(vlmax, TINY[name])
              for vlmax in VLMAXES}
    unclamped = [vlmax for vlmax, trace in traces.items()
                 if trace.max_avl() <= vlmax]
    assert unclamped
    for vlmax in unclamped:
        trace = traces[vlmax]
        events = pickle.dumps(trace.events)
        for wider in VLMAXES:
            if wider < trace.max_avl():
                continue
            assert pickle.dumps(traces[wider].events) == events, (vlmax,
                                                                  wider)
            assert traces[wider].buffers == trace.buffers
            restamped = trace.with_vlmax(wider)
            assert restamped.vlmax == wider
            assert check_trace(restamped) == []


def test_clamped_trace_differs_from_the_wider_one():
    workload = REGISTRY["vvadd"]
    narrow = workload.vector_trace(64, TINY["vvadd"])
    wide = workload.vector_trace(256, TINY["vvadd"])
    assert narrow.max_avl() == wide.max_avl() == 192
    assert pickle.dumps(narrow.events) != pickle.dumps(wide.events)


def _cell(runner, system):
    """What a sw cell reports, plain and attributed."""
    plain = runner.run(system, "sw")
    attributed = runner.run(system, "sw", attribution=AttributionCollector())
    return (plain.cycles, plain.mem_stats, plain.breakdown,
            attributed.cycles, attributed.unit_cycles)


@pytest.fixture(scope="module")
def cells_on_fresh_runners():
    return {system: _cell(_tiny_runner(), system) for system in EVE_SYSTEMS}


@pytest.mark.parametrize("descending", [False, True],
                         ids=["ascending", "descending"])
def test_runner_shares_one_program_in_either_order(descending,
                                                   cells_on_fresh_runners):
    systems = sorted(EVE_SYSTEMS, key=_vlmax, reverse=descending)
    runner = _tiny_runner()
    for system in systems:
        assert _cell(runner, system) == cells_on_fresh_runners[system], system
    for system in systems:
        assert runner.trace_for(system, "sw").vlmax == _vlmax(system)

    max_avl = runner.trace_for(systems[0], "sw").max_avl()
    vlmaxes = {_vlmax(system) for system in systems}
    shared = {vlmax for vlmax in vlmaxes if vlmax >= max_avl}
    assert len(shared) > 1
    compiled = {id(runner._compiled_for("sw", vlmax)) for vlmax in shared}
    assert len(compiled) == 1
    builds = 1 + len(vlmaxes - shared)
    assert runner.profiler.calls["trace_build"] == builds
    assert runner.profiler.calls["compile"] == builds


def test_runner_builds_every_vlmax_below_the_max_avl():
    runner = _tiny_runner()
    wide = runner.trace_for("O3+EVE-1", "vvadd")
    narrow = runner.trace_for("O3+IV", "vvadd")
    assert wide.max_avl() > narrow.vlmax == 64
    assert narrow.events is not wide.events
    assert runner.trace_for("IO", "vvadd").vlmax is None
    assert runner.profiler.calls["trace_build"] == 3


def test_strict_mode_checks_a_shared_trace_at_its_own_vlmax(monkeypatch):
    checked = []
    require_clean = runner_module.require_clean

    def spy(trace, context=""):
        checked.append((trace.vlmax, context))
        require_clean(trace, context)

    monkeypatch.setattr(runner_module, "require_clean", spy)
    runner = _tiny_runner(strict_check=True)
    narrow = runner.trace_for("O3+EVE-32", "sw")
    wide = runner.trace_for("O3+EVE-1", "sw")
    assert wide.events is narrow.events
    assert checked == [(256, "strict check, vlmax=256"),
                       (2048, "strict check, vlmax=2048")]
    assert runner.profiler.calls["trace_build"] == 1
    assert runner.run("O3+EVE-1", "sw").cycles > 0


def test_strict_mode_refuses_a_shared_trace_failing_at_its_vlmax(
        monkeypatch):
    runner = _tiny_runner(strict_check=True)
    runner.trace_for("O3+EVE-32", "sw")

    def fail_wide(trace, context=""):
        if trace.vlmax == 2048:
            raise AnalysisError(f"rejected ({context})")

    monkeypatch.setattr(runner_module, "require_clean", fail_wide)
    with pytest.raises(AnalysisError, match="vlmax=2048"):
        runner.run("O3+EVE-1", "sw")
    assert ("sw", 2048) not in runner._traces
