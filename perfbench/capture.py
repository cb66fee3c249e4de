"""Capture the reference outputs every benchmark run is checked against.

    PYTHONPATH=src python3 -m perfbench.capture [--workload NAME ...]

Run from the root of a checkout at the commit whose simulated outputs are
the reference.  For each workload, and each of its run seeds plus the
held-out seed, one child process runs the set-up, the cold pass and the
warm re-run and reports its raw outputs, written to
``perfbench/reference/<workload>.json``.  Recapture only in a change that
is meant to move simulated outputs, and account for every delta.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

from . import reference
from .run import OUT_DIR, run_child
from .workloads import ATTRIBUTED, WORKLOADS


def capture_seed(name: str, seed: int) -> dict:
    report = run_child(name, seed, os.path.join(OUT_DIR, "capture"),
                       capture=True)
    units: dict = {}
    for phase in ("cold", "warm"):
        for unit, value in report["outputs"][phase].items():
            if unit in units and (reference.canonical(units[unit])
                                  != reference.canonical(value)):
                raise SystemExit(f"{name} seed {seed}: {unit} differs "
                                 "between the cold and the warm pass")
            units[unit] = value
    # An attributed cell must take exactly the cycles of the same cell
    # simulated plain and compiled in the grid.
    bad = [unit for unit in units if unit.startswith(ATTRIBUTED)
           and units[unit]["cycles"]
           != units[unit[len(ATTRIBUTED):]]["cycles"]]
    if bad:
        raise SystemExit(f"{name} seed {seed}: {bad} differ from the "
                         "compiled cells' cycles")
    return {"units": units,
            "cold": sorted(report["outputs"]["cold"]),
            "warm": sorted(report["outputs"]["warm"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(reference.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        doc = {"workload": name, "seeds": {}}
        for seed in reference.RUN_SEEDS + (reference.HELD_OUT_SEED,):
            doc["seeds"][str(seed)] = capture_seed(name, seed)
            print(f"captured {name} input seed {seed}")
        with open(reference.path(name), "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    shutil.rmtree(os.path.join(OUT_DIR, "capture"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
