"""Block scheduler: packs trace events into dependence-legal blocks.

The scheduler partitions a trace into maximal program-order runs of
like-kind events (scalar block / control / memory / cross-element /
compute).  Program order is a topological order of the dependence DAG,
so the partition is dependence-legal by construction — but the legality
is *proved*, not assumed: :func:`schedule_blocks` validates every
dependence edge (register RAW/WAR/WAW, vl-state, and memory ordering,
the same relation :func:`~repro.analysis.depgraph.build_depgraph`
exposes) against the block assignment and raises
:class:`CompilerError` on any backward edge or coverage gap.

Each block carries its dependence *level* — its longest-path depth in
the block DAG induced by cross-block edges — so downstream consumers
(the machines' replay loops, reports) see how much of the trace's critical
structure a pack spans.  The machines iterate blocks outer, events
inner, which is program order exactly (``enumerate(trace.events)``).

Edges are consumed in the bulk array form
(:func:`~repro.analysis.depgraph.dependence_edge_groups`) rather than
as a materialised :class:`~repro.analysis.depgraph.DepGraph`: on the
hundred-thousand-event full-parameter traces, building per-edge objects
costs more than the simulation the compiler is speeding up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.columns import TraceColumns
from ..analysis.depgraph import DepGraph, dependence_edge_groups
from ..errors import CompilerError
from ..isa.instructions import ScalarBlock, VectorInstr
from ..isa.opcodes import Category
from ..isa.trace import Trace


@dataclass(frozen=True)
class Block:
    """One scheduled pack of same-kind, program-contiguous events."""

    kind: str                 # "scalar" | "ctrl" | "mem" | "xelem" | "compute"
    events: Tuple[int, ...]   # original trace indices, ascending
    level: int                # longest-path depth in the block DAG

    def __len__(self) -> int:
        return len(self.events)


def event_kind(event) -> str:
    """Scheduling class of one trace event."""
    if isinstance(event, ScalarBlock):
        return "scalar"
    instr: VectorInstr = event
    category = instr.category
    if category is Category.CTRL:
        return "ctrl"
    if category.is_memory:
        return "mem"
    if category is Category.XELEM or instr.info.is_reduction:
        return "xelem"
    return "compute"


def schedule_blocks(trace: Trace,
                    depgraph: Optional[DepGraph] = None,
                    columns: Optional[TraceColumns] = None) -> List[Block]:
    """Pack ``trace`` into kind-homogeneous blocks and prove legality.

    ``depgraph`` reuses an already-built graph's edge set; otherwise the
    bulk edge relation is derived directly (``columns`` shares the
    def-use facts with other passes).
    """
    n = len(trace.events)
    if depgraph is not None:
        src = np.asarray([e.src for e in depgraph.edges], dtype=np.int64)
        dst = np.asarray([e.dst for e in depgraph.edges], dtype=np.int64)
        groups = [(src, dst, "dep")] if len(src) else []
    else:
        groups = dependence_edge_groups(trace, columns=columns)

    # Maximal program-order runs of one scheduling kind.
    spans: List[Tuple[str, int, int]] = []   # (kind, start, end)
    start = 0
    while start < n:
        kind = event_kind(trace.events[start])
        end = start + 1
        while end < n and event_kind(trace.events[end]) == kind:
            end += 1
        spans.append((kind, start, end))
        start = end

    # Event -> block position (spans are contiguous and ascending).
    sizes = np.asarray([end - beg for _, beg, end in spans], dtype=np.int64)
    block_of = np.repeat(np.arange(len(spans), dtype=np.int64), sizes)

    # Legality proof: no dependence may point to an earlier block.
    cross_src: List[np.ndarray] = []
    cross_dst: List[np.ndarray] = []
    for src, dst, kind in groups:
        if np.any((src < 0) | (dst >= n)):
            raise CompilerError(
                f"dependence edge out of range for trace {trace.name!r}")
        bsrc = block_of[src]
        bdst = block_of[dst]
        backward = bsrc > bdst
        if np.any(backward):
            at = int(np.nonzero(backward)[0][0])
            raise CompilerError(
                f"block schedule for {trace.name!r} violates {kind} "
                f"dependence {int(src[at])}->{int(dst[at])}")
        cross = bsrc < bdst
        cross_src.append(bsrc[cross])
        cross_dst.append(bdst[cross])

    # Block levels: longest path over the cross-block edges.  All edges
    # point forward, so one pass in ascending destination order
    # finalises each block's level before it is read as a source.
    levels = [0] * len(spans)
    if cross_src:
        all_src = np.concatenate(cross_src)
        all_dst = np.concatenate(cross_dst)
        order = np.argsort(all_dst, kind="stable")
        for s, d in zip(all_src[order].tolist(), all_dst[order].tolist()):
            if levels[s] + 1 > levels[d]:
                levels[d] = levels[s] + 1

    return [Block(kind=kind, events=tuple(range(beg, end)),
                  level=levels[position])
            for position, (kind, beg, end) in enumerate(spans)]
