"""Longitudinal trend analytics over the run store.

Where :mod:`repro.obs.diff` compares *two* records, this module looks
at the last N records of a kind and asks "which metrics are drifting?"
— each flat metric key becomes a :class:`MetricTrend` carrying its full
value series, and the newest step is classified against the previous
one under the *same* tolerance policies the diff gate uses, so a trend
flags a regression exactly when ``repro diff`` would.

Also home to the small record-filtering helpers (`record_matches`,
`select_records`, and `filter_history`, the one history query) shared
by ``repro history``, ``repro report``, and the trend computation
itself, plus the historical per-cell wall-clock estimate the progress
renderer's ETA and the watchdog's stall threshold are seeded from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .diff import TolerancePolicy, default_policies, policy_for
from .runstore import RunRecord, RunStore, flatten_record


# -- record filtering (shared with `repro history`) ----------------------------

def record_matches(record: RunRecord, *, kind: Optional[str] = None,
                   workload: Optional[str] = None,
                   system: Optional[str] = None) -> bool:
    """Does one record satisfy every given filter?

    ``workload`` / ``system`` match against the record's ``results``
    grid and its ``speedups`` table (a record qualifies if the name
    appears in either), so filters work for run/compare/sweep records
    alike.
    """
    if kind is not None and record.kind != kind:
        return False
    if system is not None:
        systems = set(record.results)
        for table in record.speedups.values():
            systems.update(table)
        if system not in systems:
            return False
    if workload is not None:
        workloads = set(record.speedups)
        for table in record.results.values():
            workloads.update(table)
        if workload not in workloads:
            return False
    return True


def select_records(records: Sequence[RunRecord], *,
                   kind: Optional[str] = None,
                   workload: Optional[str] = None,
                   system: Optional[str] = None,
                   last: Optional[int] = None) -> List[RunRecord]:
    """Filter (and optionally truncate to the newest ``last``) while
    preserving oldest-first order."""
    rows = [r for r in records
            if record_matches(r, kind=kind, workload=workload, system=system)]
    if last is not None and last > 0:
        rows = rows[-last:]
    return rows


def filter_history(store: RunStore, *, kind: Optional[str] = None,
                   workload: Optional[str] = None,
                   system: Optional[str] = None,
                   limit: Optional[int] = None) -> List[Dict[str, object]]:
    """Record summaries (:meth:`RunRecord.summary`), newest first, of
    the records that pass every filter, at most ``limit`` of them."""
    rows = [record.summary() for record in store.records()
            if record_matches(record, kind=kind, workload=workload,
                              system=system)]
    rows.reverse()
    return rows[:limit] if limit else rows


# -- the trends ----------------------------------------------------------------

@dataclass
class MetricTrend:
    """One flat metric key's trajectory across the selected records."""

    name: str
    values: List[float]
    record_ids: List[str]
    policy: str
    gate: bool
    #: Newest step classified vs the previous record: one of
    #: same/improved/regressed/changed, or "new" with a single point.
    status: str = "new"

    @property
    def latest(self) -> float:
        return self.values[-1]

    @property
    def rel_delta(self) -> Optional[float]:
        """Relative newest-step delta, ``None`` for single points or a
        zero baseline."""
        if len(self.values) < 2 or not self.values[-2]:
            return None
        return (self.values[-1] - self.values[-2]) / abs(self.values[-2])

    @property
    def regressed(self) -> bool:
        """True when the newest step would fail the diff gate."""
        return self.status == "regressed" and self.gate

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "values": self.values,
            "record_ids": self.record_ids, "latest": self.latest,
            "rel_delta": self.rel_delta, "status": self.status,
            "policy": self.policy, "gate": self.gate,
            "regressed": self.regressed,
        }


def compute_trends(records: Sequence[RunRecord], *,
                   policies: Optional[Sequence[Tuple[str, TolerancePolicy]]]
                   = None,
                   min_points: int = 1) -> List[MetricTrend]:
    """Per-metric trends over ``records`` (oldest first).

    A metric contributes one trend per key it appears under; keys seen
    in fewer than ``min_points`` records are dropped.  Status is the
    newest step classified under the diff's tolerance policies — a
    metric that vanished from the latest record simply has no trend
    point there (trends track presence, the two-record diff reports
    removals).
    """
    if policies is None:
        policies = default_policies()
    series: Dict[str, List[Tuple[str, float]]] = {}
    for record in records:
        for name, value in flatten_record(record).items():
            series.setdefault(name, []).append((record.record_id, value))
    trends: List[MetricTrend] = []
    for name in sorted(series):
        points = series[name]
        if len(points) < min_points:
            continue
        policy = policy_for(name, policies)
        trend = MetricTrend(
            name=name,
            values=[v for _, v in points],
            record_ids=[rid for rid, _ in points],
            policy=policy.kind, gate=policy.gate)
        if len(points) >= 2:
            trend.status = policy.classify(points[-2][1], points[-1][1])
        trends.append(trend)
    return trends


@dataclass
class TrendReport:
    """Trends plus the selection that produced them (JSON-able)."""

    kind: Optional[str]
    records: int
    trends: List[MetricTrend] = field(default_factory=list)

    def regressions(self) -> List[MetricTrend]:
        return [t for t in self.trends if t.regressed]

    def moving(self) -> List[MetricTrend]:
        """Trends whose newest step moved at all, regressions first."""
        rows = [t for t in self.trends if t.status not in ("same", "new")]
        rank = {"regressed": 0, "changed": 1, "improved": 2}
        rows.sort(key=lambda t: (rank.get(t.status, 3), t.name))
        return rows

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "records": self.records,
            "regressions": [t.name for t in self.regressions()],
            "trends": [t.to_json_dict() for t in self.trends],
        }


def trend_report(store: RunStore, *, kind: Optional[str] = None,
                 workload: Optional[str] = None,
                 system: Optional[str] = None, last: int = 20,
                 policies: Optional[Sequence[Tuple[str, TolerancePolicy]]]
                 = None) -> TrendReport:
    """Trends over the newest ``last`` matching records in the store."""
    records = select_records(list(store.records()), kind=kind,
                             workload=workload, system=system, last=last)
    return TrendReport(kind=kind, records=len(records),
                       trends=compute_trends(records, policies=policies))


# -- historical wall-clock (ETA / watchdog seed) -------------------------------

def historical_cell_seconds(store: RunStore, tiny: bool = False,
                            last: int = 10) -> Optional[float]:
    """Median per-simulated-cell wall-clock from recent sweep-carrying
    records at the same input scale (``tiny``), or ``None`` with no
    usable history.

    Only cells actually simulated count — cache hits would drag the
    estimate toward zero and make the first cold cell look stalled.
    Tiny cells run in milliseconds, so a tiny record must never seed a
    full-scale campaign's watchdog (nor the other way round).
    """
    samples: List[float] = []
    for record in list(store.records())[-4 * last:]:
        sweep = record.extra.get("sweep")
        if record.tiny != tiny or not isinstance(sweep, dict):
            continue
        seconds = sweep.get("seconds")
        simulated = sweep.get("simulated")
        if (isinstance(seconds, (int, float))
                and isinstance(simulated, (int, float)) and simulated >= 1
                and seconds > 0):
            samples.append(float(seconds) / float(simulated))
    if not samples:
        return None
    samples = samples[-last:]
    samples.sort()
    return samples[len(samples) // 2]


# -- sparklines ----------------------------------------------------------------

SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], glyphs: str = SPARK_GLYPHS) -> str:
    """A unicode mini-chart of ``values`` (flat series render low)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return glyphs[0] * len(values)
    top = len(glyphs) - 1
    return "".join(glyphs[int((v - lo) / span * top)] for v in values)
