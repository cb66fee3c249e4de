"""Data generators for every evaluation table and figure.

Each function returns plain data structures (lists of dicts) that the
benchmark drivers render with :mod:`repro.experiments.report`; nothing here
depends on plotting so the results are easy to assert against in tests.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from ..analytics import figure2_series
from ..circuits_model import AreaModel, system_area_factor
from ..config import EVE_FACTORS, all_system_names, make_system
from ..errors import ExperimentError
from ..workloads import get_workload
from .runner import ExperimentRunner
from .systems import trace_vlmax

#: Applications of the evaluation (Table IV rows).
ALL_APPS = ("vvadd", "mmult", "k-means", "pathfinder", "jacobi-2d",
            "backprop", "sw")

#: Applications in the paper's geometric mean (Table IV footnote).
GEOMEAN_APPS = ("k-means", "pathfinder", "jacobi-2d", "backprop", "sw")

EVE_SYSTEMS = tuple(f"O3+EVE-{n}" for n in EVE_FACTORS)


def geomean(values: Iterable[float], what: str = "values") -> float:
    """Geometric mean; raises :class:`~repro.errors.ExperimentError` on
    an empty selection (e.g. an app filter that matches nothing) instead
    of dividing by zero."""
    values = list(values)
    if not values:
        raise ExperimentError(
            f"geometric mean over an empty selection of {what}; "
            f"check the app/system filters")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- Figure 2 -----------------------------------------------------------------

def figure2(measured: bool = True) -> List[Dict[str, float]]:
    """Latency/throughput vs parallelization factor (Section II)."""
    return figure2_series(measured=measured)


# -- Table III -----------------------------------------------------------------

def table3() -> List[Dict[str, object]]:
    """The simulated-systems table, including derived EVE vector lengths."""
    rows = []
    for name in all_system_names():
        config = make_system(name)
        rows.append({
            "system": name,
            "l2_kb": config.l2.size_bytes // 1024,
            "l2_ways": config.l2.ways,
            "hardware_vl": (config.vector.hardware_vl if config.vector else 0),
            "vlmax": trace_vlmax(config),
            "cycle_time_ns": config.cycle_time_ns,
        })
    return rows


# -- Figure 6 / Table IV -----------------------------------------------------------

def figure6(runner: ExperimentRunner,
            apps: Iterable[str] = ALL_APPS,
            systems: Optional[Iterable[str]] = None) -> List[Dict[str, float]]:
    """Speedups over IO for every system and application."""
    systems = list(systems or all_system_names())
    rows = []
    for app in apps:
        row: Dict[str, float] = {"workload": app}
        for system in systems:
            row[system] = runner.speedup(system, app, baseline="IO")
        rows.append(row)
    geo: Dict[str, float] = {"workload": "geomean*"}
    for system in systems:
        geo[system] = geomean(
            (runner.speedup(system, app, baseline="IO")
             for app in GEOMEAN_APPS),
            what=f"{system} speedups over the geomean apps")
    rows.append(geo)
    return rows


def table4_characterization(apps: Iterable[str] = ALL_APPS,
                            vlmax: int = 64) -> List[Dict[str, float]]:
    """The static characterisation columns of Table IV."""
    from ..isa.opcodes import Category
    rows = []
    for app in apps:
        workload = get_workload(app)
        vstats = workload.vector_trace(vlmax).stats()
        sstats = workload.scalar_trace().stats()
        rows.append({
            "workload": app,
            "suite": workload.suite,
            "scalar_dins": sstats.dynamic_instrs,
            "vector_dins": vstats.dynamic_instrs,
            "vi_pct": vstats.vi_pct,
            "ctrl": vstats.mix_pct(Category.CTRL),
            "ialu": vstats.mix_pct(Category.IALU),
            "imul": vstats.mix_pct(Category.IMUL),
            "xe": vstats.mix_pct(Category.XELEM),
            "us": vstats.mix_pct(Category.MEM_UNIT),
            "st": vstats.mix_pct(Category.MEM_STRIDE),
            "idx": vstats.mix_pct(Category.MEM_INDEX),
            "prd": vstats.prd_pct,
            "vo_pct": vstats.vo_pct,
            "vpar": vstats.vpar,
            "winf": vstats.total_ops / max(1, sstats.dynamic_instrs),
            "arint": vstats.arith_intensity,
        })
    return rows


def table4_speedups(runner: ExperimentRunner,
                    apps: Iterable[str] = ALL_APPS) -> List[Dict[str, float]]:
    """Speedups vs O3+IV plus the E-8 ratio columns of Table IV."""
    rows = []
    for app in apps:
        row: Dict[str, float] = {"workload": app}
        row["DV"] = runner.speedup("O3+DV", app, baseline="O3+IV")
        for n in EVE_FACTORS:
            row[f"E-{n}"] = runner.speedup(f"O3+EVE-{n}", app, baseline="O3+IV")
        row["E8/E1"] = row["E-8"] / row["E-1"]
        row["E8/E32"] = row["E-8"] / row["E-32"]
        rows.append(row)
    geo: Dict[str, float] = {"workload": "geomean*"}
    for key in ["DV"] + [f"E-{n}" for n in EVE_FACTORS]:
        system = "O3+DV" if key == "DV" else f"O3+EVE-{key.split('-')[1]}"
        geo[key] = geomean(
            (runner.speedup(system, app, baseline="O3+IV")
             for app in GEOMEAN_APPS),
            what=f"{system} speedups over the geomean apps")
    geo["E8/E1"] = geo["E-8"] / geo["E-1"]
    geo["E8/E32"] = geo["E-8"] / geo["E-32"]
    rows.append(geo)
    return rows


# -- Figure 7 -------------------------------------------------------------------

def figure7(runner: ExperimentRunner,
            apps: Iterable[str] = GEOMEAN_APPS) -> List[Dict[str, float]]:
    """Execution breakdown of every EVE design, normalised to EVE-1."""
    rows = []
    for app in apps:
        reference = runner.run("O3+EVE-1", app).cycles
        for system in EVE_SYSTEMS:
            result = runner.run(system, app)
            normalised = result.breakdown.normalised_to(reference)
            row = {"workload": app, "system": system,
                   "total": result.cycles / reference}
            row.update(normalised)
            rows.append(row)
    return rows


# -- Figure 8 --------------------------------------------------------------------

def figure8(runner: ExperimentRunner,
            apps: Iterable[str] = ("k-means", "pathfinder", "backprop"),
            ) -> List[Dict[str, float]]:
    """Fraction of execution time the VMU stalls issuing LLC requests."""
    rows = []
    for app in apps:
        row: Dict[str, float] = {"workload": app}
        for system in EVE_SYSTEMS:
            row[system] = runner.run(system, app).vmu_llc_stall_frac
        rows.append(row)
    return rows


# -- Area efficiency (Section VII-B) -------------------------------------------------

def area_table() -> List[Dict[str, float]]:
    """System area factors and EVE circuit overheads."""
    rows = []
    for name in all_system_names():
        row: Dict[str, object] = {"system": name,
                                  "area_factor": system_area_factor(name)}
        if name.startswith("O3+EVE-"):
            model = AreaModel(int(name.split("-")[-1]))
            row["stack_overhead"] = model.stack_overhead
            row["eve_sram_overhead"] = model.eve_sram_overhead
            row["l2_overhead"] = model.l2_overhead
        rows.append(row)
    return rows


def area_efficiency(runner: ExperimentRunner,
                    apps: Iterable[str] = GEOMEAN_APPS) -> List[Dict[str, float]]:
    """Performance per area relative to the O3 baseline (the paper's
    area-normalised performance argument)."""
    apps = list(apps)
    rows = []
    for name in ("O3+IV", "O3+DV") + EVE_SYSTEMS:
        perf = geomean(
            (runner.speedup(name, app, baseline="O3") for app in apps),
            what=f"{name} speedups over {', '.join(apps) or 'no apps'}")
        area = system_area_factor(name)
        rows.append({"system": name, "speedup_vs_o3": perf,
                     "area_factor": area, "perf_per_area": perf / area})
    return rows
