"""Trace-compiler passes: dead-op elimination and memory-line hoisting.

Both passes are *pre-computation*, not re-timing: the simulated machines
replay every event of the original trace in program order.  What the
passes buy:

* :func:`eliminate_dead_ops` produces the compiled trace's *architectural
  work view* — the trace minus true dead writes, found via
  :meth:`TraceColumns.dead_def_positions` to a fixpoint — together with
  the eliminated sites and an old→new index map.  The view is what the
  static checkers see for a compiled trace; :func:`verify_dce_findings`
  is the gate that elimination never silently contradicts ``repro
  check``: findings on the optimized trace must be exactly the original
  findings minus those anchored at eliminated sites.

* :func:`hoist_memory_lines` precomputes, once per trace, the cache-line
  request list of every memory-touching event from its
  :class:`MemAccess` pattern, through :meth:`MemAccess.request_lines`
  (a ``range`` of lines when the stride is under a line, numpy address
  arithmetic for per-element lists, ``np.unique`` only for explicit
  address vectors).  The machines time every memory event from these
  lists, so their per-event loops are plain-int iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.checkers import check_trace
from ..analysis.columns import TraceColumns
from ..errors import CompilerError
from ..isa.instructions import ScalarBlock, VectorInstr
from ..isa.opcodes import Category
from ..isa.trace import Trace

#: Line-request table: event index -> a range or tuple of line addresses
#: (vector memory ops) or a list of per-pattern line lists (scalar
#: blocks).
LinesTable = Dict[int, object]


# -- dead-op elimination ------------------------------------------------------


@dataclass
class DceResult:
    """Outcome of dead-op elimination on one trace."""

    #: The optimized (analysis-view) trace with dead defs removed.
    trace: Trace
    #: Original event indices that were eliminated, ascending.
    eliminated: Tuple[int, ...]
    #: Surviving original event index -> index in :attr:`trace`.
    index_map: Dict[int, int]
    #: Fixpoint rounds taken (0 = nothing was dead).
    rounds: int


def _eliminable(event) -> bool:
    """True for pure compute defs: no memory, control, or cross-element
    side effects, so removing the def removes exactly one write."""
    if not isinstance(event, VectorInstr):
        return False
    category = event.category
    if category.is_memory or category is Category.CTRL:
        return False
    if category is Category.XELEM or event.info.is_reduction:
        return False
    if event.info.writes_scalar:
        return False
    return event.dest >= 0


def _without(trace: Trace, doomed: frozenset) -> Trace:
    pruned = Trace(trace.name)
    pruned.vlmax = trace.vlmax
    pruned.buffers = dict(trace.buffers)
    for index, event in enumerate(trace.events):
        if index not in doomed:
            pruned.append(event)
    return pruned


def eliminate_dead_ops(trace: Trace,
                       columns: Optional[TraceColumns] = None) -> DceResult:
    """Remove true dead writes (never read, later overwritten) to a
    fixpoint.

    Iterating matters: eliminating a dead def can strand its operands'
    producers, whose own defs then show up dead in the next round.
    Stopping early would leave the optimized trace with *new* dead-write
    findings the original never had, violating the findings invariant.
    """
    current = trace
    back: List[int] = list(range(len(trace.events)))
    eliminated: List[int] = []
    cols = columns
    rounds = 0
    while True:
        if cols is None:
            cols = TraceColumns(current)
        dead_events = {int(cols.def_event[pos])
                       for pos in cols.dead_def_positions()}
        doomed = frozenset(index for index in dead_events
                           if _eliminable(current.events[index]))
        cols = None
        if not doomed:
            break
        rounds += 1
        eliminated.extend(back[index] for index in doomed)
        back = [orig for index, orig in enumerate(back)
                if index not in doomed]
        current = _without(current, doomed)
    index_map = {orig: new for new, orig in enumerate(back)}
    return DceResult(trace=current, eliminated=tuple(sorted(eliminated)),
                     index_map=index_map, rounds=rounds)


def verify_dce_findings(original: Trace, dce: DceResult,
                        original_findings: Optional[Sequence] = None,
                        strict: bool = False):
    """Check the satellite invariant: checker findings on the optimized
    trace == original findings minus exactly those at eliminated sites.

    Findings are compared as ``(original index, rule)`` pairs, with the
    optimized trace's anchors mapped back through :attr:`DceResult.index_map`
    (messages may legitimately re-number killer references).  Returns
    ``(ok, missing, unexpected)``; with ``strict=True`` a violation
    raises :class:`CompilerError` carrying both finding lists.
    """
    originals = (list(original_findings) if original_findings is not None
                 else check_trace(original))
    optimized = check_trace(dce.trace)
    eliminated = set(dce.eliminated)
    expected = {(f.index, f.rule) for f in originals
                if f.index not in eliminated}
    reverse = {new: old for old, new in dce.index_map.items()}
    got = {(reverse.get(f.index, -1), f.rule) for f in optimized}
    missing = tuple(sorted(expected - got))
    unexpected = tuple(sorted(got - expected))
    ok = not missing and not unexpected
    if not ok and strict:
        parts = []
        if missing:
            parts.append("lost " + ", ".join(
                f"{rule}@{index}" for index, rule in missing[:4]))
        if unexpected:
            parts.append("introduced " + ", ".join(
                f"{rule}@{index}" for index, rule in unexpected[:4]))
        raise CompilerError(
            f"dead-op elimination on trace {original.name!r} changed the "
            f"static-check verdict beyond the eliminated sites: "
            + "; ".join(parts), findings=list(originals) + list(optimized))
    return ok, missing, unexpected


# -- memory-line hoisting -----------------------------------------------------


def hoist_memory_lines(trace: Trace) -> LinesTable:
    """Precompute every event's cache-line request list.

    Vector memory ops get their request stream
    (:meth:`MemAccess.request_lines`, a ``range`` or a ``tuple``): one
    request per element for strided and indexed categories, one per
    distinct line in first-touch order for unit-stride.  Scalar blocks
    get a list holding one line list per access pattern; those stay
    lists because the benchmark harness tells a scalar entry by its
    first item being a ``list``.  All entries are plain Python ints so
    the per-request simulation loops never touch numpy scalars.  Only
    explicit address vectors (gathers and scatters) are deduplicated
    with ``np.unique``; an arithmetic pattern's distinct lines are
    written down directly (547 of the 18,368 patterns hoisted for
    perfbench's ``BENCH_PARAMS`` programs are explicit).
    """
    table: LinesTable = {}
    for index, event in enumerate(trace.events):
        if isinstance(event, ScalarBlock):
            if event.accesses:
                table[index] = [list(pattern.request_lines(False))
                                for pattern in event.accesses]
        elif isinstance(event, VectorInstr) and event.mem is not None:
            table[index] = event.mem.request_lines(event.per_element)
    return table
