"""Def-use chains, liveness, and the ``vl`` state machine for one trace.

Traces are straight-line programs (the workload generators unroll all
control flow), so reaching definitions are exact — SSA in all but name:
every definition site is a unique (event index, register) pair and every
use binds to exactly one reaching definition or to "uninitialized".

The heavy lifting lives in :class:`repro.analysis.columns.TraceColumns`
(vectorized, shared with the checkers and the dependence graph); this
module materialises the object view — per-definition use lists, kill
sites, live-out sets — for callers that want to walk the facts rather
than batch over them (tests, ``repro stats``, the corpus cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.trace import Trace
from .columns import TraceColumns


@dataclass
class RegDef:
    """One definition site of a vector register."""

    index: int              #: event index of the defining instruction
    reg: int
    vl: int                 #: vector length the definition was made at
    uses: List[int] = field(default_factory=list)   #: event indices
    killed_by: int = -1     #: index of the next def of the same reg; -1 = live-out

    @property
    def is_dead(self) -> bool:
        """Defined, never used, and overwritten later (a true dead write)."""
        return not self.uses and self.killed_by >= 0

    @property
    def live_out(self) -> bool:
        return self.killed_by < 0


@dataclass
class DefUse:
    """Whole-trace def-use facts (see :func:`build_defuse`)."""

    #: All definition sites, in program order.
    defs: List[RegDef]
    #: (event index, register) pairs read without any reaching definition.
    uninit_uses: List[Tuple[int, int]]
    #: Registers still holding a value at trace end: reg -> final RegDef.
    live_out: Dict[int, RegDef]
    #: Maximum number of simultaneously live register values.
    live_high_water: int


def build_defuse(trace: Trace,
                 columns: Optional[TraceColumns] = None) -> DefUse:
    """Materialise the def-use object view from the columnar facts."""
    cols = columns if columns is not None else TraceColumns(trace)
    defs = [RegDef(index=int(cols.def_event[pos]),
                   reg=int(cols.def_reg[pos]),
                   vl=int(cols.def_vl[pos]),
                   killed_by=int(cols.def_killed_by[pos]))
            for pos in range(len(cols.def_event))]
    for use in range(len(cols.use_row)):
        pos = int(cols.use_def[use])
        if pos >= 0:
            uses = defs[pos].uses
            event = int(cols.use_event[use])
            if not uses or uses[-1] != event:
                uses.append(event)
    for d in defs:
        d.uses.sort()
    uninit = sorted(
        (int(cols.use_event[use]), int(cols.use_reg[use]))
        for use in range(len(cols.use_row)) if cols.use_def[use] < 0)
    live_out = {reg: defs[pos] for reg, pos in cols.live_out().items()}
    return DefUse(defs=defs, uninit_uses=uninit, live_out=live_out,
                  live_high_water=cols.live_high_water())
