"""Simulation results and the execution-breakdown buckets of Figure 7."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Bucket order as plotted in Figure 7.
BREAKDOWN_BUCKETS = (
    "busy", "vru_stall", "ld_mem_stall", "st_mem_stall",
    "ld_dt_stall", "st_dt_stall", "vmu_stall", "empty_stall", "dep_stall",
)


@dataclass
class StallBreakdown:
    """Where the vector engine's cycles went (Figure 7).

    * ``busy`` — executing useful work;
    * ``vru_stall`` — reduction-unit structural hazard;
    * ``ld_mem_stall`` / ``st_mem_stall`` — waiting on load/store data;
    * ``ld_dt_stall`` / ``st_dt_stall`` — waiting on (de)transpose;
    * ``vmu_stall`` — memory-unit structural hazard;
    * ``empty_stall`` — no instruction available from the core;
    * ``dep_stall`` — register dependency on an in-flight instruction.
    """

    busy: float = 0.0
    vru_stall: float = 0.0
    ld_mem_stall: float = 0.0
    st_mem_stall: float = 0.0
    ld_dt_stall: float = 0.0
    st_dt_stall: float = 0.0
    vmu_stall: float = 0.0
    empty_stall: float = 0.0
    dep_stall: float = 0.0

    def total(self) -> float:
        return sum(getattr(self, bucket) for bucket in BREAKDOWN_BUCKETS)

    def as_dict(self) -> Dict[str, float]:
        return {bucket: getattr(self, bucket) for bucket in BREAKDOWN_BUCKETS}

    def add(self, bucket: str, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"negative stall time for {bucket!r}")
        setattr(self, bucket, getattr(self, bucket) + cycles)

    def normalised_to(self, reference_cycles: float) -> Dict[str, float]:
        """Buckets as fractions of a reference execution time (Figure 7
        normalises every design to EVE-1's total)."""
        if reference_cycles <= 0:
            raise ValueError("reference cycles must be positive")
        return {bucket: value / reference_cycles
                for bucket, value in self.as_dict().items()}


@dataclass
class SimResult:
    """Outcome of running one workload trace on one machine."""

    system: str
    workload: str
    cycles: float
    cycle_time_ns: float
    instructions: int = 0
    breakdown: Optional[StallBreakdown] = None
    mem_stats: Dict[str, object] = field(default_factory=dict)
    #: Figure 8: fraction of execution time the VMU spent stalled on the LLC.
    vmu_llc_stall_frac: float = 0.0
    #: Full :class:`~repro.obs.MetricsRegistry` snapshot, when the run was
    #: instrumented (``None`` otherwise — the common, uninstrumented case).
    metrics: Optional[Dict[str, object]] = None
    #: Machine-reported per-unit busy+stall totals (``unit -> bucket ->
    #: cycles``), populated only on attribution-instrumented runs — the
    #: reference side of the cycle-attribution conservation invariant
    #: (see :mod:`repro.obs.attribution`).
    unit_cycles: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def time_ns(self) -> float:
        """Wall-clock time — the cross-system comparable metric (EVE-16/32
        pay their cycle-time penalty here)."""
        return self.cycles * self.cycle_time_ns

    def speedup_over(self, other: "SimResult") -> float:
        return other.time_ns / self.time_ns

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serialisable view: scalar fields, the stall breakdown, the
        memory-system stats, and (if instrumented) the metrics snapshot."""
        out: Dict[str, object] = {
            "system": self.system,
            "workload": self.workload,
            "cycles": self.cycles,
            "cycle_time_ns": self.cycle_time_ns,
            "time_ns": self.time_ns,
            "instructions": self.instructions,
            "vmu_llc_stall_frac": self.vmu_llc_stall_frac,
        }
        if self.breakdown is not None:
            out["breakdown"] = self.breakdown.as_dict()
        if self.mem_stats:
            out["mem_stats"] = {key: (list(value) if isinstance(value, tuple)
                                      else value)
                                for key, value in self.mem_stats.items()}
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.unit_cycles is not None:
            out["unit_cycles"] = {unit: dict(buckets)
                                  for unit, buckets
                                  in sorted(self.unit_cycles.items())}
        return out
