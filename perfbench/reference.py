"""Reference outputs: the input seeds they cover and how a pass is checked.

``perfbench/reference/<workload>.json`` holds, per input seed, the
deterministic output of every unit the cold pass and the warm re-run
produce, captured by ``python3 -m perfbench.capture``.  Units compare as
canonical JSON: floats by ``repr``, no tolerance, so a float-residue cycle
count such as ``2212759.9999880777`` must repeat digit for digit.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: ``repro.workloads.DEFAULT_SEED``: the inputs every repro command uses
#: unless told otherwise.
DEFAULT_SEED = 1234

#: The named held-out input seed: captured, but never chosen by
#: ``--seed``, so a later claim can be re-checked on inputs nobody tuned
#: against (``run.py --input-seed 4321``).
HELD_OUT_SEED = 4321

#: Input seeds ``--seed N`` selects from (``N % 4``): the kernels' traces
#: have the same shape for every seed, so the data changes and the work
#: does not.
RUN_SEEDS = (DEFAULT_SEED, 1, 2, 3)


def path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load(workload: str) -> dict:
    with open(path(workload)) as handle:
        return json.load(handle)


def expected(workload: str, seed: int) -> dict:
    """One input seed's entry: ``units`` (unit -> output) plus the unit
    names the ``cold`` and the ``warm`` pass produce."""
    seeds = load(workload)["seeds"]
    if str(seed) not in seeds:
        raise KeyError(f"no {workload} reference for input seed {seed} "
                       f"(captured: {', '.join(sorted(seeds, key=int))})")
    return seeds[str(seed)]


def phase_units(entry: dict, phase: str) -> Dict[str, object]:
    return {unit: entry["units"][unit] for unit in entry[phase]}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def compare(outputs: Dict[str, object],
            want: Dict[str, object]) -> Tuple[int, List[str]]:
    """``(attempted, failed units)`` over every unit either side names; a
    unit passes only when its canonical JSON is identical."""
    units = sorted(set(outputs) | set(want))
    failed = [unit for unit in units
              if unit not in outputs or unit not in want
              or canonical(outputs[unit]) != canonical(want[unit])]
    return len(units), failed
