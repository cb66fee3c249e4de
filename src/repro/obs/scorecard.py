"""Paper-fidelity scorecard: grade the reproduction against the paper.

Runs the Figure 6 / Table IV / Figure 7 / Figure 8 harnesses in
:mod:`repro.experiments.figures` and compares every datapoint that the
paper publishes (encoded in :mod:`repro.experiments.paper_targets`)
against what our simulator measures, producing:

* a per-datapoint **grade** — A (within the tight budget), B (within the
  figure's error budget: reproduced up to the documented input-scale
  compression), C (right direction, wrong magnitude), F (miss);
* per-figure **shape checks** — the ordinal claims (EVE-8 peaks, EVE-1
  weakest, mmult's bit-serial loss, the Figure 7 U-shape, Figure 8's
  falling stall fractions) that EXPERIMENTS.md calls the reproduced
  claims;
* a **geometric-mean multiplicative error** over all datapoints, and a
  *core* variant that excludes the known deviations — the core geomean
  against :data:`~repro.experiments.paper_targets.GEOMEAN_ERROR_BUDGET`
  plus the gating shape checks decide the overall verdict.

Datapoints listed in ``KNOWN_DEVIATIONS`` are graded and reported but
never gate: EXPERIMENTS.md documents *why* they cannot reproduce at our
input scale, and the scorecard's job is drift detection, not re-litigating
the scale trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..config import EVE_FACTORS
from ..experiments import paper_targets as targets
from ..experiments.figures import (ALL_APPS, EVE_SYSTEMS, GEOMEAN_APPS,
                                   figure6, figure7, figure8,
                                   table4_speedups)
from ..experiments.runner import ExperimentRunner

GRADES = ("A", "B", "C", "F")

FIGURES = ("fig6", "table4", "fig7", "fig8")

#: Figure 8's kernel set (the paper plots these three).
FIG8_APPS = ("k-means", "pathfinder", "backprop")


def ratio_error(paper: float, measured: float) -> float:
    """Multiplicative distance: ``max(m/p, p/m)`` — 1.0 is perfect,
    2.0 means off by 2x in either direction, ``inf`` for sign misses."""
    if paper <= 0 or measured <= 0:
        return math.inf
    return max(measured / paper, paper / measured)


def grade_datapoint(figure: str, paper: float, measured: float,
                    pivot: Optional[float] = None) -> tuple:
    """``(ratio_error, grade)`` under the figure's error budgets.

    ``pivot`` gives "direction" a meaning for grade C: a speedup
    datapoint keeps C as long as measured and paper sit on the same side
    of 1.0 (e.g. mmult's bit-serial *loss* to the integrated unit).
    """
    budgets = targets.ERROR_BUDGETS[figure]
    error = ratio_error(paper, measured)
    if pivot is not None and (paper >= pivot) != (measured >= pivot):
        # Direction miss (the paper claims a speedup, we measured a
        # slowdown or vice versa): never better than C, F beyond budget.
        return error, ("C" if error <= 1.0 + budgets["budget"] else "F")
    if error <= 1.0 + budgets["tight"]:
        return error, "A"
    if error <= 1.0 + budgets["budget"]:
        return error, "B"
    if pivot is not None or error <= 1.0 + 3 * budgets["budget"]:
        return error, "C"
    return error, "F"


@dataclass
class ScoreEntry:
    figure: str
    kernel: str
    metric: str
    paper: float
    measured: float
    error: float
    grade: str
    known_deviation: bool = False
    note: str = ""

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "figure": self.figure, "kernel": self.kernel,
            "metric": self.metric, "paper": self.paper,
            "measured": self.measured,
            "error": None if math.isinf(self.error) else self.error,
            "grade": self.grade,
            "known_deviation": self.known_deviation,
            "note": self.note,
        }


@dataclass
class ShapeCheck:
    figure: str
    name: str
    ok: bool
    detail: str = ""
    gate: bool = True

    def to_json_dict(self) -> Dict[str, object]:
        return {"figure": self.figure, "name": self.name, "ok": self.ok,
                "detail": self.detail, "gate": self.gate}


class Scorecard:
    """Accumulates datapoint grades and shape checks; renders verdicts."""

    def __init__(self, figures: Sequence[str], apps: Sequence[str],
                 tiny: bool = False) -> None:
        self.figures = tuple(figures)
        self.apps = tuple(apps)
        self.tiny = tiny
        self.entries: List[ScoreEntry] = []
        self.checks: List[ShapeCheck] = []

    def add_datapoint(self, figure: str, kernel: str, metric: str,
                      paper: float, measured: float,
                      pivot: Optional[float] = None) -> None:
        error, grade = grade_datapoint(figure, paper, measured, pivot)
        self.entries.append(ScoreEntry(
            figure=figure, kernel=kernel, metric=metric, paper=paper,
            measured=measured, error=error, grade=grade,
            known_deviation=targets.is_known_deviation(figure, kernel),
            note=targets.deviation_note(figure, kernel)))

    def add_check(self, figure: str, name: str, ok: bool,
                  detail: str = "", gate: bool = True) -> None:
        self.checks.append(ShapeCheck(figure=figure, name=name, ok=ok,
                                      detail=detail, gate=gate))

    # -- aggregation -----------------------------------------------------------

    def _errors(self, core_only: bool) -> List[float]:
        return [e.error for e in self.entries
                if math.isfinite(e.error)
                and not (core_only and e.known_deviation)]

    def geomean_error(self, core_only: bool = False) -> float:
        """Geometric mean of the multiplicative errors (1.0 = perfect)."""
        errors = self._errors(core_only)
        if not errors:
            return 1.0
        return math.exp(sum(math.log(e) for e in errors) / len(errors))

    def grade_counts(self) -> Dict[str, int]:
        counts = {g: 0 for g in GRADES}
        for entry in self.entries:
            counts[entry.grade] += 1
        return counts

    def failed_checks(self) -> List[ShapeCheck]:
        return [c for c in self.checks if not c.ok and c.gate]

    @property
    def passed(self) -> bool:
        return (not self.failed_checks()
                and self.geomean_error(core_only=True)
                <= targets.GEOMEAN_ERROR_BUDGET)

    def kernel_summary(self) -> List[Dict[str, object]]:
        """Per-(figure, kernel) fidelity: geomean error + grade string."""
        grouped: Dict[tuple, List[ScoreEntry]] = {}
        for entry in self.entries:
            grouped.setdefault((entry.figure, entry.kernel), []).append(entry)
        rows = []
        for (figure, kernel), entries in sorted(grouped.items()):
            finite = [e.error for e in entries if math.isfinite(e.error)]
            geo = (math.exp(sum(math.log(e) for e in finite) / len(finite))
                   if finite else math.inf)
            rows.append({
                "figure": figure,
                "kernel": kernel,
                "grades": "".join(e.grade for e in entries),
                "geomean_error": geo,
                "known_deviation": all(e.known_deviation for e in entries),
            })
        return rows

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "figures": list(self.figures),
            "apps": list(self.apps),
            "tiny": self.tiny,
            "entries": [e.to_json_dict() for e in self.entries],
            "checks": [c.to_json_dict() for c in self.checks],
            "kernel_summary": self.kernel_summary(),
            "grades": self.grade_counts(),
            "geomean_error": self.geomean_error(),
            "geomean_error_core": self.geomean_error(core_only=True),
            "geomean_error_budget": targets.GEOMEAN_ERROR_BUDGET,
            "failed_checks": [c.name for c in self.failed_checks()],
            "passed": self.passed,
        }


# -- per-figure scoring --------------------------------------------------------

def _score_fig6(card: Scorecard, runner: ExperimentRunner,
                apps: Sequence[str]) -> None:
    rows = figure6(runner, apps)
    by_workload = {r["workload"]: r for r in rows}
    vector_systems = [s for s in rows[0]
                      if s not in ("workload", "IO", "O3")]
    for app in apps:
        row = by_workload[app]
        laggards = [s for s in vector_systems if row[s] <= 1.0]
        card.add_check(
            "fig6", f"{app}: every vector system beats IO",
            not laggards, detail=", ".join(laggards) or "ok",
            gate=not targets.is_known_deviation("fig6", app))
    if "vvadd" in by_workload:
        flat = [by_workload["vvadd"][f"O3+EVE-{n}"] for n in (1, 2, 4, 8)]
        card.add_check(
            "fig6", "vvadd flat across EVE-1..8 (memory-bound plateau)",
            max(flat) / min(flat) < 1.35,
            detail=f"spread {max(flat) / min(flat):.2f}x")
    geo = by_workload.get("geomean*")
    if geo is not None:
        eve = {s: geo[s] for s in EVE_SYSTEMS if s in geo}
        card.add_check("fig6", "EVE geomean peaks at EVE-8",
                       max(eve, key=eve.get) == "O3+EVE-8",
                       detail=f"peak {max(eve, key=eve.get)}")
        card.add_check("fig6", "bit-serial EVE-1 is the weakest EVE design",
                       min(eve, key=eve.get) == "O3+EVE-1",
                       detail=f"floor {min(eve, key=eve.get)}")
        card.add_check("fig6", "O3+DV is the strongest baseline",
                       geo["O3+DV"] > geo["O3+IV"] and geo["O3+DV"] > geo["O3"])
        for system, paper in targets.FIG6_GEOMEAN_VS_IO.items():
            metric = "geomean* vs IO"
            if system in targets.FIG6_DERIVED:
                metric += " (derived target)"
            card.add_datapoint("fig6", system, metric, paper, geo[system],
                               pivot=1.0)


def _score_table4(card: Scorecard, runner: ExperimentRunner,
                  apps: Sequence[str]) -> None:
    rows = table4_speedups(runner, apps)
    by_workload = {r["workload"]: r for r in rows}
    for app in apps:
        paper_row = targets.TABLE4_SPEEDUP_VS_IV.get(app)
        if paper_row is None:
            continue
        for column, paper in paper_row.items():
            card.add_datapoint("table4", app, f"{column} vs O3+IV",
                               paper, by_workload[app][column], pivot=1.0)
    if "mmult" in by_workload:
        row = by_workload["mmult"]
        card.add_check(
            "table4", "mmult: bit-serial EVE-1 loses to IV, EVE-8 wins",
            row["E-1"] < 1.0 < row["E-8"],
            detail=f"E-1 {row['E-1']:.2f}, E-8 {row['E-8']:.2f}")
    geo = by_workload.get("geomean*")
    if geo is not None:
        for column, paper in targets.TABLE4_GEOMEAN_VS_IV.items():
            card.add_datapoint("table4", "geomean*", f"{column} vs O3+IV",
                               paper, geo[column], pivot=1.0)
        eve_cols = {f"E-{n}": geo[f"E-{n}"] for n in EVE_FACTORS}
        card.add_check("table4", "EVE geomean vs IV peaks at E-8",
                       max(eve_cols, key=eve_cols.get) == "E-8",
                       detail=f"peak {max(eve_cols, key=eve_cols.get)}")


def _score_fig7(card: Scorecard, runner: ExperimentRunner,
                apps: Sequence[str]) -> None:
    apps = [a for a in apps if a in GEOMEAN_APPS]
    if not apps:  # figure 7 only covers the geomean kernels
        return
    rows = figure7(runner, apps)
    by_key = {(r["workload"], r["system"]): r for r in rows}
    for app in apps:
        busy = {s: by_key[(app, s)]["busy"] for s in EVE_SYSTEMS}
        card.add_check(
            "fig7", f"{app}: busy fraction U-shape (E-1 > E-4 < E-32)",
            busy["O3+EVE-1"] > busy["O3+EVE-4"] < busy["O3+EVE-32"],
            detail=(f"E-1 {busy['O3+EVE-1']:.2f}, E-4 "
                    f"{busy['O3+EVE-4']:.2f}, E-32 "
                    f"{busy['O3+EVE-32']:.2f}"),
            gate=not targets.is_known_deviation("fig7", app))
        e32 = by_key[(app, "O3+EVE-32")]
        card.add_check(
            "fig7", f"{app}: EVE-32 has zero transpose stalls",
            e32["ld_dt_stall"] + e32["st_dt_stall"] == 0.0)


def _score_fig8(card: Scorecard, runner: ExperimentRunner,
                apps: Sequence[str]) -> None:
    apps = [a for a in apps if a in FIG8_APPS]
    if not apps:  # figure 8 is the backprop / k-means deep dive
        return
    rows = figure8(runner, apps)
    by_workload = {r["workload"]: r for r in rows}
    for app, paper_row in targets.FIG8_VMU_STALL.items():
        if app not in by_workload:
            continue
        for system, paper in paper_row.items():
            card.add_datapoint("fig8", app, f"{system} VMU LLC-stall frac",
                               paper, by_workload[app][system])
    if "backprop" in by_workload:
        row = by_workload["backprop"]
        series = [row[f"O3+EVE-{n}"] for n in (4, 8, 16, 32)]
        card.add_check(
            "fig8", "backprop: stall fraction falls from the balanced "
                    "factor onward (halved MSHR demand)",
            all(a >= b for a, b in zip(series, series[1:])),
            detail=" -> ".join(f"{v:.2f}" for v in series))


_SCORERS = {
    "fig6": _score_fig6,
    "table4": _score_table4,
    "fig7": _score_fig7,
    "fig8": _score_fig8,
}


def scorecard_pairs(figures: Iterable[str] = FIGURES,
                    apps: Iterable[str] = ALL_APPS) -> List[tuple]:
    """Every (system, workload) cell the requested figures will simulate,
    in deterministic order — the prefetch set for a parallel scorecard.
    """
    from ..config import all_system_names
    requested = set(figures)
    apps = [a for a in ALL_APPS if a in set(apps)]
    wanted: List[tuple] = []
    seen = set()

    def add(systems: Sequence[str], figure_apps: Sequence[str]) -> None:
        for app in figure_apps:
            for system in systems:
                if (system, app) not in seen:
                    seen.add((system, app))
                    wanted.append((system, app))

    # The fig6/table4 geomean* rows always span GEOMEAN_APPS, even when
    # the app filter is narrower, so their cells are always needed.
    with_geomean = [a for a in ALL_APPS
                    if a in set(apps) | set(GEOMEAN_APPS)]
    if "fig6" in requested:
        add(all_system_names(), with_geomean)
    if "table4" in requested:
        add(("O3+IV", "O3+DV") + EVE_SYSTEMS, with_geomean)
    if "fig7" in requested:
        add(EVE_SYSTEMS, [a for a in apps if a in GEOMEAN_APPS])
    if "fig8" in requested:
        add(EVE_SYSTEMS, [a for a in apps if a in FIG8_APPS])
    return wanted


def build_scorecard(runner: Optional[ExperimentRunner] = None,
                    figures: Iterable[str] = FIGURES,
                    apps: Iterable[str] = ALL_APPS,
                    tiny: bool = False) -> Scorecard:
    """Run the requested figure harnesses and grade them.

    One shared :class:`ExperimentRunner` means each (system, workload)
    simulation happens once no matter how many figures consume it.
    """
    requested = set(figures)
    unknown = requested - set(FIGURES)
    figures = [f for f in FIGURES if f in requested]
    if unknown:
        raise ValueError(f"unknown scorecard figures {sorted(unknown)}; "
                         f"choose from {FIGURES}")
    apps = [a for a in ALL_APPS if a in set(apps)]
    if runner is None:
        runner = ExperimentRunner()
    card = Scorecard(figures=figures, apps=apps, tiny=tiny)
    for figure in figures:
        _SCORERS[figure](card, runner, apps)
    return card
