"""The benchmark's workloads.

A child process builds one workload and drives it as ``setup(seed,
workdir)``, ``cold()``, then ``warm()`` ``warm_repeats`` times.
``cold_outputs()`` / ``warm_outputs()`` return the deterministic outputs of
the pass just run, one entry per unit, which the child checks against the
captured reference; ``results()`` returns the per-layer counts read from
simulated outputs.  :mod:`repro` is imported inside ``setup``: a traced
process installs its wrappers first, so the workload holds the wrapped
callables.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, Iterable, Tuple

from .reference import DEFAULT_SEED

#: Inputs of ``sweep``: each kernel at 1/16 of its
#: default work, backprop at 1/8.  Backprop keeps 16 hidden units (one
#: weight per cache line) and its 256 KB of weights plus the input vector
#: still overflow the EVE-mode L2, so column re-reads take the LLC path.
BENCH_PARAMS = {
    "backprop": {"n_in": 4096, "n_hidden": 16},
    "jacobi-2d": {"n": 128, "iters": 2},
    "k-means": {"n": 128, "f": 34, "k": 5},
    "mmult": {"m": 12, "k": 256, "p": 12},
    "pathfinder": {"cols": 2048, "rows": 10},
    "sw": {"n": 96},
    "vvadd": {"n": 4096},
}

#: ``repro attribute`` cells: Figure 8's two MSHR-bound kernels on the
#: balanced EVE design, and a scalar-core cell.
ATTRIBUTE_CELLS = (("O3+EVE-4", "backprop"), ("O3+EVE-4", "k-means"),
                   ("O3", "pathfinder"))

#: Generated cases per fuzz pass, each checked at all six widths.
FUZZ_CASES = 5

#: Unit-name prefixes of an attributed cell and of a fuzz (case seed,
#: width) check; grid cells are named ``system/kernel``.
ATTRIBUTED = "attribute:"
FUZZ = "fuzz:"

MEM_COUNTS = ("mem.l1d_hits", "mem.l1d_misses", "mem.l2_hits",
              "mem.l2_misses", "mem.llc_hits", "mem.llc_misses",
              "mem.dram_requests", "mem.mshr_stall_cycles")


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cell_output(result) -> dict:
    """One simulated cell's check value: its cycles in clear and a digest
    of every deterministic field, floats by ``repr``."""
    full = {"cycles": result.cycles, "instructions": result.instructions,
            "time_ns": result.time_ns, "mem_stats": result.mem_stats,
            "breakdown": (result.breakdown.as_dict()
                          if result.breakdown is not None else None),
            "vmu_llc_stall_frac": result.vmu_llc_stall_frac}
    return {"cycles": result.cycles, "sha256": digest(full)}


def payload_output(payload) -> dict:
    """A sweep payload as ``repro sweep --json`` prints it (minus its
    wall-clock cache block): digest and length of its bytes."""
    text = json.dumps(payload, indent=2) + "\n"
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text)}


def mem_counts(results: Iterable) -> Dict[str, float]:
    """Simulated memory-system statistics summed over cells."""
    counts: Dict[str, float] = dict.fromkeys(MEM_COUNTS, 0)
    for result in results:
        stats = result.mem_stats
        for level in ("l1d", "l2", "llc"):
            hits, misses = stats[level]
            counts[f"mem.{level}_hits"] += hits
            counts[f"mem.{level}_misses"] += misses
        counts["mem.dram_requests"] += stats["dram"]["requests"]
        counts["mem.mshr_stall_cycles"] += sum(
            value["stall_cycles"] for key, value in stats.items()
            if key.endswith("_mshr"))
    return counts


class Workload:
    """What the workloads share."""

    name = ""
    warm_repeats = 1
    #: Environment of the child process, beyond ``PYTHONPATH=src``.
    env: Dict[str, str] = {}
    #: Runs on one CPU: its child pins itself to one, and its times are
    #: scaled by the speed sampled on that CPU alone
    #: (``perfbench/speed.py``).
    serial = False
    #: End-to-end times reported scaled to the host's fast state.
    scaled: Tuple[str, ...] = ("wall_s", "warm_s", "setup_s")


class Sweep(Workload):
    """One serial session in one process: all 70 Table III cells at
    ``BENCH_PARAMS`` through a compiled ``ExperimentRunner`` without a disk
    cache, the payload and the scorecard graded on that runner, ``repro
    attribute`` on ``ATTRIBUTE_CELLS`` and ``fuzz_many`` over a fixed case
    range; warm: the same again on a fresh runner, so imports and
    process-wide tables are set up but every trace, compile and cell runs
    again."""

    name = "sweep"
    serial = True

    def setup(self, seed: int, workdir: str) -> None:
        from repro.analysis import build_depgraph
        from repro.config import all_system_names
        from repro.experiments import (ExperimentRunner, sweep_pairs,
                                       sweep_result_payload)
        from repro.faults.fuzz import FUZZ_WIDTHS, SEED_STRIDE, fuzz_many
        from repro.obs import (AttributionCollector, build_bottleneck_report,
                               collect_nodes)
        from repro.obs.scorecard import build_scorecard
        from repro.workloads import REGISTRY
        self.systems = all_system_names()
        self.kernels = sorted(REGISTRY)
        self.pairs = sweep_pairs(self.systems, self.kernels)
        self.payload_of = sweep_result_payload
        self.scorecard_of = build_scorecard
        self.attribution = (AttributionCollector, collect_nodes,
                            build_depgraph, build_bottleneck_report)
        self.fuzz_many = fuzz_many
        self.fuzz_units = [f"{FUZZ}{DEFAULT_SEED * SEED_STRIDE + i}:n{width}"
                           for i in range(FUZZ_CASES) for width in FUZZ_WIDTHS]
        self.new_runner = lambda: ExperimentRunner(
            params_override=BENCH_PARAMS, seed=seed)

    def _attribute(self) -> None:
        collector, nodes_of, depgraph_of, report_of = self.attribution
        self.attributed = {}
        for system, kernel in ATTRIBUTE_CELLS:
            attr = collector()
            result = self.runner.run(system, kernel, attribution=attr)
            attr.require_conserved(
                context=f"{result.system}/{result.workload}")
            trace = self.runner.trace_for(system, kernel)
            nodes = nodes_of(attr, trace)
            graph = depgraph_of(trace) if trace.vlmax is not None else None
            report = report_of(attr, nodes, graph, result.system,
                               result.workload, top=10)
            self.attributed[f"{system}/{kernel}"] = (result, report)

    def _pass(self) -> None:
        self.runner = self.new_runner()
        self.runner.prefetch(self.pairs)
        self.payload = self.payload_of(self.runner, self.systems,
                                       self.kernels)
        self.card = self.scorecard_of(runner=self.runner)
        self._attribute()
        # One fixed case range: the work per case depends on its random
        # op mix (divides dominate), so another range would change the
        # work, not only the data.
        self.mismatches = self.fuzz_many(FUZZ_CASES, master_seed=DEFAULT_SEED)

    cold = warm = _pass

    def _outputs(self) -> dict:
        out = {f"{s}/{w}": cell_output(self.runner.run(s, w))
               for s, w in self.pairs}
        out["payload"] = payload_output(self.payload)
        out["scorecard.geomean_err_core"] = self.card.geomean_error(
            core_only=True)
        for cell, (result, report) in self.attributed.items():
            out[ATTRIBUTED + cell] = {
                "cycles": result.cycles, "unit_cycles": result.unit_cycles,
                "report": digest(report.to_json_dict())}
        out.update(dict.fromkeys(self.fuzz_units, 0))
        for mismatch in self.mismatches:
            unit = f"{FUZZ}{mismatch.case.seed}:n{mismatch.factor}"
            out[unit] = out.get(unit, 0) + 1
        return out

    cold_outputs = warm_outputs = _outputs

    def results(self) -> Dict[str, float]:
        counts = mem_counts(self.runner.run(s, w) for s, w in self.pairs)
        counts["scorecard.geomean_err_core"] = self.card.geomean_error(
            core_only=True)
        counts["fuzz.divergences"] = len(self.mismatches)
        return counts


class Fanout(Workload):
    """The ``--tiny`` grid through ``ParallelRunner`` at nproc workers,
    fresh disk cache, event log and strict checks on; warm: a fresh
    runner on the same cache.  Each pass ends with its payload."""

    name = "fanout"
    warm_repeats = 5
    env = {"EVE_STRICT_CHECK": "1"}
    # The cold pass runs in one worker per CPU, so it is scaled by the
    # speed of all of them.  About 50 ms of a 67 ms warm re-run is one
    # fixed sleep of the result poll, which the host's speed does not
    # stretch, and set-up runs on one CPU no sampler follows alone.
    scaled = ("wall_s",)

    def setup(self, seed: int, workdir: str) -> None:
        from repro.config import all_system_names
        from repro.experiments import (ParallelRunner, sweep_pairs,
                                       sweep_result_payload)
        from repro.experiments.parallel import sweep_config_fingerprint
        from repro.obs.events import CampaignTelemetry, EventLog
        from repro.workloads import REGISTRY, tiny_overrides
        cache_root = os.path.join(workdir, "cache")
        shutil.rmtree(cache_root, ignore_errors=True)
        os.makedirs(cache_root)
        log = EventLog(os.path.join(workdir, "events.jsonl"))
        fingerprint = sweep_config_fingerprint()
        self.systems = all_system_names()
        self.kernels = sorted(REGISTRY)
        self.pairs = sweep_pairs(self.systems, self.kernels)
        self.payload_of = sweep_result_payload

        def new_runner():
            return ParallelRunner(
                params_override=tiny_overrides(), jobs=os.cpu_count(),
                cache_root=cache_root, seed=seed,
                telemetry=CampaignTelemetry("sweep", log=log,
                                            fingerprint=fingerprint))
        self.new_runner = new_runner
        self.runner = new_runner()

    def _pass(self, runner) -> None:
        try:
            runner.prefetch(self.pairs)
        finally:
            runner.telemetry.finalize()
        self.runner = runner
        self.payload = self.payload_of(runner, self.systems, self.kernels)

    def cold(self) -> None:
        self._pass(self.runner)

    def warm(self) -> None:
        self._pass(self.new_runner())

    def _outputs(self) -> dict:
        out = {f"{s}/{w}": cell_output(self.runner.run(s, w))
               for s, w in self.pairs}
        out["payload"] = payload_output(self.payload)
        return out

    cold_outputs = warm_outputs = _outputs

    def results(self) -> Dict[str, float]:
        return mem_counts(self.runner.run(s, w) for s, w in self.pairs)


WORKLOADS = {cls.name: cls for cls in (Sweep, Fanout)}
