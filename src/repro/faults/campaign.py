"""Fault-injection campaigns: thousands of seeded faults, classified.

Each injection is one picklable spec fanned out over the same process
pool that powers ``repro sweep`` (:func:`~repro.experiments.parallel.
fan_out`).  A worker runs the three-pass protocol from DESIGN.md §11:

1. **oracle** — the numpy golden model executes the generated case;
2. **probe** — the micro-programmed engine runs it fault-free with a
   :class:`~repro.faults.inject.FaultProbe` counting injectable events;
3. **armed** — the engine re-runs with a seed-addressed
   :class:`~repro.faults.inject.FaultInjector` live.

The armed outcome is classified against the oracle:

* ``masked``   — observations identical (the fault hit dead state, was
  overwritten, or landed outside the observed window);
* ``detected`` — the engine raised: ``detected_watchdog`` when the
  micro-program watchdog tripped, ``detected_exception`` for any other
  simulator-raised error (a lint/bounds/consistency trap);
* ``sdc``      — silent data corruption: the run completed but some
  observation differs from the oracle.

Classification is fully deterministic given the campaign seed: case
generation, injection addressing, and the round-robin over fault models
and segment widths are all derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FaultInjectionError, MicroExecutionError
from ..experiments.parallel import fan_out
from ..obs.events import NULL_TELEMETRY, TelemetryMonitor
from .fuzz import (
    DEFAULT_OPS,
    FUZZ_WIDTHS,
    SEED_STRIDE,
    compare_runs,
    generate_case,
    run_dut,
    run_oracle,
)
from .inject import FAULT_MODELS, FaultInjector, FaultProbe, FaultSpec

#: Classification labels, in reporting order.
OUTCOMES = ("masked", "detected_watchdog", "detected_exception", "sdc")

#: ROM macro name -> reporting family (Figure 4's op taxonomy).
_MACRO_FAMILY = {
    "add": "arith", "sub": "arith", "rsub": "arith", "minmax": "arith",
    "logic": "logical", "shift_scalar": "shift", "shift_variable": "shift",
    "mul": "mul", "div": "div", "compare": "compare",
    "merge": "move", "move": "move", "splat": "move",
}


def family_of(macro: Optional[str]) -> str:
    """Reporting family of a ROM macro-op name (``other`` when unknown)."""
    if macro is None:
        return "other"
    return _MACRO_FAMILY.get(macro, "other")


@dataclass(frozen=True)
class InjectionOutcome:
    """One classified injection."""

    index: int
    model: str
    factor: int
    case_seed: int
    injection_seed: int
    outcome: str
    family: str
    fired: bool
    detail: dict

    def to_json_dict(self) -> dict:
        return {
            "index": self.index, "model": self.model, "factor": self.factor,
            "case_seed": self.case_seed,
            "injection_seed": self.injection_seed,
            "outcome": self.outcome, "family": self.family,
            "fired": self.fired, "detail": self.detail,
        }


# -- the worker ----------------------------------------------------------------


def _run_injection(spec: tuple) -> dict:
    """Run one injection; ``spec`` is picklable for the process pool:
    ``(index, case_seed, vlmax, num_ops, factor, model, injection_seed)``.
    """
    index, case_seed, vlmax, num_ops, factor, model, injection_seed = spec
    case = generate_case(case_seed, vlmax=vlmax, num_ops=num_ops)
    oracle = run_oracle(case)

    probe = FaultProbe()
    fault_free = run_dut(case, factor, faults=probe)
    if compare_runs(oracle, fault_free) is not None:  # pragma: no cover
        # The fuzzer guarantees this never happens on a healthy tree; a
        # pre-existing mismatch would corrupt every classification.
        raise FaultInjectionError(
            f"case seed {case_seed} already diverges at n={factor} "
            "without any fault; run `repro fuzz` first")

    fault_spec = FaultSpec(model=model, seed=injection_seed)
    engine_rows = max(256, 32 * (32 // factor))
    try:
        injector = FaultInjector(
            fault_spec, wb_events=probe.wb_events,
            carry_events=probe.carry_events, rows=engine_rows,
            cols=case.vlmax * factor, groups=case.vlmax)
    except FaultInjectionError as exc:
        # Unarmable (e.g. stuck_carry on a carry-free program): by
        # definition nothing was perturbed.
        return {"index": index, "model": model, "factor": factor,
                "case_seed": case_seed, "injection_seed": injection_seed,
                "outcome": "masked", "family": "other", "fired": False,
                "detail": {"unarmable": str(exc)}}

    armed = run_dut(case, factor, faults=injector)
    detail: dict = {"fault": injector.describe()}
    if "crash" in armed:
        detail["crash"] = armed["crash"]
        if armed["crash"].startswith(MicroExecutionError.__name__):
            outcome = "detected_watchdog"
        else:
            outcome = "detected_exception"
    else:
        divergence = compare_runs(oracle, armed)
        if divergence is None:
            outcome = "masked"
        else:
            outcome = "sdc"
            detail["divergence"] = divergence
    return {"index": index, "model": model, "factor": factor,
            "case_seed": case_seed, "injection_seed": injection_seed,
            "outcome": outcome, "family": family_of(injector.fired_macro),
            "fired": injector.fired, "detail": detail}


# -- aggregation ---------------------------------------------------------------


def _rate_table(outcomes: Sequence[InjectionOutcome],
                key) -> Dict[str, dict]:
    table: Dict[str, dict] = {}
    for out in outcomes:
        bucket = table.setdefault(str(key(out)),
                                  {"injections": 0, "sdc": 0})
        bucket["injections"] += 1
        bucket["sdc"] += out.outcome == "sdc"
    for bucket in table.values():
        bucket["sdc_rate"] = bucket["sdc"] / bucket["injections"]
    return table


@dataclass
class CampaignReport:
    """Aggregate view of one campaign, JSON-able for records and CI."""

    seed: int
    count: int
    models: Tuple[str, ...]
    factors: Tuple[int, ...]
    outcomes: List[InjectionOutcome] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in OUTCOMES}
        for out in self.outcomes:
            counts[out.outcome] += 1
        return counts

    @property
    def sdc_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.counts["sdc"] / len(self.outcomes)

    @property
    def detected_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        counts = self.counts
        detected = counts["detected_watchdog"] + counts["detected_exception"]
        return detected / len(self.outcomes)

    def by_factor(self) -> Dict[str, dict]:
        return _rate_table(self.outcomes, lambda o: o.factor)

    def by_model(self) -> Dict[str, dict]:
        return _rate_table(self.outcomes, lambda o: o.model)

    def by_family(self) -> Dict[str, dict]:
        return _rate_table(self.outcomes, lambda o: o.family)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed, "count": self.count,
            "models": list(self.models), "factors": list(self.factors),
            "counts": self.counts,
            "sdc_rate": self.sdc_rate,
            "detected_rate": self.detected_rate,
            "by_factor": self.by_factor(),
            "by_model": self.by_model(),
            "by_family": self.by_family(),
            "outcomes": [o.to_json_dict() for o in self.outcomes],
        }


def _describe_injection(out: dict):
    """Telemetry view of one worker outcome dict: the spec's one unit,
    never cached, no extra events, the classification as the terminal
    detail, and the spec's own times."""
    return [(False, (), {"outcome": out.get("outcome"),
                         "model": out.get("model"),
                         "factor": out.get("factor"),
                         "fired": bool(out.get("fired"))}, None, None)]


def run_campaign(count: int, *, models: Optional[Sequence[str]] = None,
                 factors: Sequence[int] = FUZZ_WIDTHS, seed: int = 0,
                 jobs: int = 1, vlmax: Optional[int] = 16,
                 num_ops: int = DEFAULT_OPS, profiler=None,
                 metrics=None, telemetry=NULL_TELEMETRY) -> CampaignReport:
    """Fan ``count`` seeded injections over the pool and classify each.

    Fault models and segment widths are round-robined so every
    ``(model, factor)`` pair gets near-equal coverage; case and injection
    seeds both derive from ``seed``, making the whole campaign — including
    every classification — reproducible bit-for-bit.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives counters under
    the reserved ``faults`` namespace; ``telemetry`` (a
    :class:`~repro.obs.events.CampaignTelemetry`) streams one
    ``inj:<index>`` unit per injection.
    """
    if count <= 0:
        raise FaultInjectionError("campaign count must be positive")
    models = tuple(models) if models else FAULT_MODELS
    for model in models:
        if model not in FAULT_MODELS:
            raise FaultInjectionError(f"unknown fault model {model!r}")
    factors = tuple(factors)
    specs = []
    for i in range(count):
        case_seed = seed * SEED_STRIDE + i
        injection_seed = case_seed * 31 + 7
        specs.append((i, case_seed, vlmax, num_ops,
                      factors[i % len(factors)], models[i % len(models)],
                      injection_seed))
    units = [f"inj:{spec[0]}" for spec in specs]
    telemetry.begin(units)
    monitor = TelemetryMonitor(telemetry, units,
                               describe=_describe_injection, jobs=jobs)
    raw = fan_out(_run_injection, specs, jobs, profiler=profiler,
                  phase="faults", monitor=monitor)
    outcomes = [InjectionOutcome(**out) for out in raw]
    report = CampaignReport(seed=seed, count=count, models=models,
                            factors=factors, outcomes=outcomes)
    if metrics is not None:
        metrics.reserve("faults", "FaultCampaign")
        metrics.counter("faults.injections").inc(len(outcomes))
        for name, value in report.counts.items():
            metrics.counter(f"faults.{name}").inc(value)
        metrics.gauge("faults.sdc_rate").set(report.sdc_rate)
    return report
