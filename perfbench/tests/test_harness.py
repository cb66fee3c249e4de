"""Tests of the benchmark harness: ledger arithmetic, wrapper restoration,
the traced path's cycle identity, the reference check and the host-speed
scaling.

From the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import time

import pytest

from perfbench import layers, ledger, reference, run, speed
from perfbench.workloads import ATTRIBUTED, WORKLOADS, cell_output

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _span(sid, parent, t0, t1, agg_child=0.0):
    return ledger.Span(sid, "x", parent, t0, t1, agg_child)


def _tiny_cell(system, kernel):
    from repro.experiments import ExperimentRunner
    from repro.workloads import tiny_overrides
    return ExperimentRunner(params_override=tiny_overrides()).run(system,
                                                                  kernel)


def test_self_time_subtracts_nested_children():
    own = ledger.self_times([_span("a", None, 0.0, 10.0),
                             _span("b", "a", 1.0, 4.0),
                             _span("c", "b", 2.0, 3.0)])
    assert own == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_self_time_unions_overlapping_children():
    # Two pool workers ran cells at once under one fan-out span, and the
    # last cell outlived it: only the covered part of the span counts.
    own = ledger.self_times([_span("f", None, 0.0, 10.0, agg_child=0.5),
                             _span("w1", "f", 1.0, 6.0),
                             _span("w2", "f", 3.0, 8.0),
                             _span("w3", "f", 9.0, 12.0)])
    assert own["f"] == pytest.approx(10.0 - 0.5 - (8.0 - 1.0) - (10.0 - 9.0))


def test_wrappers_charge_children_to_their_parent(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(ledger, "clock", lambda: float(next(ticks)))
    book = ledger.Ledger()
    inner = book.aggregate("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = book.span("outer", body)
    root = book.open_span("root")   # t=0
    outer()                         # outer 1..6, inner 2..3 and 4..5
    book.close_span(root)           # t=7
    own = ledger.self_times(book.spans)
    sid = {span.name: span.sid for span in book.spans}
    assert (own[sid["outer"]], own[sid["root"]]) == (3.0, 2.0)
    assert book.aggs["inner"] == [2, 2.0, 0.0]


def test_worker_delta_merges_under_the_fan_out_span():
    worker = ledger.Ledger()
    mark = worker.mark()
    cell = worker.open_span("parallel.cell")
    worker.count("parallel.cache_misses")
    worker.close_span(cell)
    delta = json.loads(json.dumps(worker.delta(mark)))
    parent = ledger.Ledger()
    fan = parent.open_span("parallel.fanout")
    parent.close_span(fan)
    parent.merge(delta, fan.sid)
    assert [span.parent for span in parent.spans] == [None, fan.sid]
    assert parent.counts == {"parallel.cache_misses": 1}


def test_restore_puts_every_original_back_by_identity():
    import repro.faults.fuzz as fuzz
    from repro.compiler.memengine import FastMemorySystem
    from repro.experiments import parallel

    def current():
        return (vars(FastMemorySystem)["access"], parallel.fan_out,
                parallel.simulate_cell, fuzz.generate_case)

    before = current()
    patches = ledger.install(layers.targets(ledger.Ledger()))
    try:
        assert all(now is not old for now, old in zip(current(), before))
        assert parallel.simulate_cell is ledger.traced_simulate_cell
    finally:
        ledger.restore(patches)
    assert all(now is old for now, old in zip(current(), before))
    assert all(vars(place)[name] is original
               for place, name, original in patches)


def test_traced_cell_keeps_every_cycle():
    plain = cell_output(_tiny_cell("O3+EVE-4", "backprop"))
    book = ledger.Ledger()
    patches = ledger.install(layers.targets(book))
    try:
        mark = book.mark()
        traced = cell_output(_tiny_cell("O3+EVE-4", "backprop"))
        delta = book.delta(mark)
    finally:
        ledger.restore(patches)
    assert traced == plain
    values = layers.evaluate(delta, None, {}, 0.0, book.pid)
    assert values["workloads.traces"] == 1
    assert values["compiler.blocks"] > 0
    assert values["mem.accesses"] > 0
    assert values["core.eve_s"] > 0


def test_reference_check_flags_one_perturbed_cell():
    entry = reference.expected("sweep", reference.DEFAULT_SEED)
    want = reference.phase_units(entry, "cold")
    assert reference.compare(copy.deepcopy(want), want) == (len(want), [])
    got = copy.deepcopy(want)
    cell = "O3+EVE-4/backprop"
    got[cell]["cycles"] = math.nextafter(got[cell]["cycles"], math.inf)
    assert reference.compare(got, want) == (len(want), [cell])


def test_cell_digest_covers_the_memory_statistics():
    result = _tiny_cell("IO", "vvadd")
    before = cell_output(result)
    result.mem_stats["dram"]["requests"] += 1
    after = cell_output(result)
    assert after["cycles"] == before["cycles"]
    assert after["sha256"] != before["sha256"]


def test_attributed_reference_cycles_equal_the_compiled_cells():
    for seed, entry in reference.load("sweep")["seeds"].items():
        units = entry["units"]
        attributed = [unit for unit in units if unit.startswith(ATTRIBUTED)]
        assert len(attributed) == 3, seed
        for unit in attributed:
            assert (units[unit]["cycles"]
                    == units[unit[len(ATTRIBUTED):]]["cycles"]), (seed, unit)


def test_samplers_record_every_cpu_and_stop(tmp_path):
    with speed.Samplers(str(tmp_path)) as samplers:
        time.sleep(6 * speed.INTERVAL_S)
    assert all(proc.poll() is not None for proc in samplers.procs)
    timelines = samplers.timelines()
    assert sorted(timelines) == sorted(os.sched_getaffinity(0))
    assert all(timeline and all(value > 0 for _, value in timeline)
               for timeline in timelines.values())


def test_speed_in_averages_the_samples_inside_a_window():
    samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 0.6)]
    assert speed.speed_in(samples, 1.5, 3.5) == pytest.approx(0.8)
    assert speed.speed_in(samples, 3.8, 4.0) == 0.6  # none inside


def test_times_scale_by_the_sampled_speed():
    report = {"cold_s": 9.0, "warm_s": [8.0, 7.0], "setup_s": 0.6,
              "speed": {"setup": 0.75, "cold": 0.5, "warm": [0.625, 1.0]}}
    assert run.child_times(report, run.TIMES) == pytest.approx(
        {"wall_s": 4.5, "warm_s": 6.0, "setup_s": 0.45})
    assert run.child_times(report, ("wall_s",)) == pytest.approx(
        {"wall_s": 4.5, "warm_s": 7.5, "setup_s": 0.6})
    assert run.child_times(report) == {
        "wall_s": 9.0, "warm_s": 7.5, "setup_s": 0.6}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in doc["per_layer"]]
    assert per_layer == ([(m.name, m.unit, m.better) for m in layers.METRICS]
                         + [layers.TRACE_OVERHEAD])
