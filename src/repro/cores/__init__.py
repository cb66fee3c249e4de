"""Baseline machine models: scalar IO/O3 cores and the IV/DV vector units.

* :mod:`repro.cores.machine` — the base every machine shares: hooks,
  a cold hierarchy per run, compile on demand, the end-of-run epilogue.
* :mod:`repro.cores.result` — simulation results and the Figure 7 stall
  breakdown.
* :mod:`repro.cores.scalar` — trace-driven in-order and out-of-order
  scalar cores.
* :mod:`repro.cores.iv` — the integrated vector unit (O3+IV).
* :mod:`repro.cores.dv` — the decoupled vector engine (O3+DV).

The EVE engine itself lives in :mod:`repro.core` (it is the paper's
contribution, not a baseline).
"""

from .result import SimResult, StallBreakdown
from .scalar import ScalarCore
from .iv import IntegratedVectorMachine
from .dv import DecoupledVectorMachine

__all__ = [
    "SimResult",
    "StallBreakdown",
    "ScalarCore",
    "IntegratedVectorMachine",
    "DecoupledVectorMachine",
]
