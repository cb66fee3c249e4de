"""Frozen reference for instrumented runs: what every machine reports at
the end of a run with a tracer, a metrics registry and an attribution
collector all on.

For each of the 70 tiny cells the reference holds the cycle count, the
machine-reported ``unit_cycles`` (the reference side of attribution's
conservation gate), and sha256 digests of ``metrics.flat()`` and of the
tracer's exported Chrome-trace document.  Cycles alone cannot catch an
end-of-run block that publishes a metric twice, drops a span, reorders
the trace, or hands attribution the wrong pool list; these digests do.

The reference was captured at ``57055ed`` by running this module as a
script (``PYTHONPATH=src python tests/test_instrumented_reference.py
--write <commit>``), so it freezes the machines' end-of-run behaviour
from before they shared one epilogue.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.config import all_system_names
from repro.experiments import ExperimentRunner
from repro.obs import AttributionCollector, MetricsRegistry, SpanTracer
from repro.workloads import REGISTRY

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference",
                              "instrumented_runs.json")

TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}


def _sha256(doc, sort_keys):
    blob = json.dumps(doc, sort_keys=sort_keys).encode()
    return hashlib.sha256(blob).hexdigest()


def instrumented_cell(runner, system, workload):
    """One cell with every hook on, reduced to the reference's form."""
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    attribution = AttributionCollector()
    result = runner.run(system, workload, tracer=tracer, metrics=metrics,
                        attribution=attribution)
    attribution.require_conserved(f"{system}/{workload}")
    return {
        "cycles": result.cycles,
        "unit_cycles": result.unit_cycles,
        "metrics_sha256": _sha256(metrics.flat(), sort_keys=True),
        # The exported document in the order ``SpanTracer.export``
        # writes it: event order is part of what is frozen.
        "trace_sha256": _sha256(tracer.to_dict(), sort_keys=False),
    }


def capture():
    runner = ExperimentRunner(params_override=TINY_PARAMS)
    cells = {f"{system}/{workload}": instrumented_cell(runner, system,
                                                       workload)
             for workload in sorted(REGISTRY)
             for system in all_system_names()}
    return json.loads(json.dumps(cells))


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(params_override=TINY_PARAMS)


def test_reference_covers_every_tiny_cell(reference):
    assert sorted(reference["cells"]) == sorted(
        f"{system}/{workload}" for workload in REGISTRY
        for system in all_system_names())


@pytest.mark.parametrize("system", all_system_names())
def test_instrumented_runs_match_the_reference(system, runner, reference):
    for workload in sorted(REGISTRY):
        want = reference["cells"][f"{system}/{workload}"]
        got = json.loads(json.dumps(instrumented_cell(runner, system,
                                                      workload)))
        assert got == want, workload


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_instrumented_reference.py --write <commit>")
    doc = {"captured_at": sys.argv[2],
           "description": "instrumented tiny cells: cycles, unit_cycles, "
                          "sha256 of metrics.flat() and of the exported "
                          "trace",
           "cells": capture()}
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")
