"""Trace compiler: DCE + line hoisting + block scheduling.

Without it, every simulation would re-derive each memory event's
cache-line stream through numpy.  This package compiles a trace once,
and every simulation of it, on any system at its vlmax, replays the
compiled form:

* :mod:`passes` — dead-op elimination (the architectural work view,
  gated against the static checkers) and memory-line hoisting (the
  per-event request lists, precomputed to plain ints);
* :mod:`blocks` — the block scheduler, packing events into
  dependence-legal kind-homogeneous blocks proved against the
  :class:`~repro.analysis.depgraph.DepGraph`;
* :mod:`memengine` — a re-export of :mod:`repro.mem`'s uninstrumented
  model under the import path the benchmark harness's layer targets
  name; nothing in the package uses it.

The machines replay every original event in original order (blocks
outer, events inner), dead ops included — elimination changes what
the *checkers* see, never what the timing models charge — so a
compiled run takes the cycles of a run of the bare trace.  Instrumented
runs (tracer, metrics, attribution) replay the compiled trace too.

:data:`COMPILER_VERSION` and the pass list are folded into experiment
fingerprints (see :func:`compiler_descriptor`), so results of different
compiler versions never collide in the result cache or the run store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis.columns import TraceColumns
from ..errors import CompilerError
from ..isa.trace import Trace
from .blocks import Block, schedule_blocks
from .passes import (DceResult, LinesTable, eliminate_dead_ops,
                     hoist_memory_lines, verify_dce_findings)

#: Bumped whenever a pass changes observable behaviour; part of every
#: compiled run's fingerprint.
COMPILER_VERSION = 1

#: The full pipeline, in the order it runs.
DEFAULT_PASSES: Tuple[str, ...] = ("dce", "hoist", "schedule")

_KNOWN_PASSES = frozenset(DEFAULT_PASSES)


@dataclass(frozen=True)
class CompilerConfig:
    """Which passes run, and whether equivalence gates are fatal."""

    passes: Tuple[str, ...] = DEFAULT_PASSES
    strict: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.passes) - _KNOWN_PASSES
        if unknown:
            raise CompilerError(
                f"unknown compiler pass(es): {sorted(unknown)} "
                f"(known: {sorted(_KNOWN_PASSES)})")

    def descriptor(self) -> Dict[str, object]:
        """Fingerprint ingredient: identifies the compiled semantics."""
        return {"compiler_version": COMPILER_VERSION,
                "passes": list(self.passes)}


class CompiledTrace:
    """One trace, compiled: line tables, block schedule, DCE view.

    The machines drive a compiled run through :meth:`iter_events`
    (block-at-a-time event stream, order-identical to ``enumerate``)
    and :meth:`lines_for` (the hoisted request list, or ``None`` for
    non-memory events).
    """

    def __init__(self, trace: Trace, config: CompilerConfig,
                 lines: LinesTable, blocks: Optional[List[Block]],
                 dce: Optional[DceResult],
                 dce_ok: bool = True,
                 dce_mismatch: Tuple[tuple, tuple] = ((), ())) -> None:
        self.trace = trace
        self.config = config
        self.lines = lines
        self.blocks = blocks
        self.dce = dce
        #: Did the DCE-vs-checker findings invariant hold?  Always True
        #: in strict mode (a violation raises at compile time).
        self.dce_ok = dce_ok
        self.dce_mismatch = dce_mismatch

    @property
    def optimized(self) -> Trace:
        """The analysis view: original trace minus eliminated dead ops."""
        return self.dce.trace if self.dce is not None else self.trace

    @property
    def eliminated(self) -> Tuple[int, ...]:
        return self.dce.eliminated if self.dce is not None else ()

    def iter_events(self) -> Iterator[tuple]:
        """Yield ``(index, event)`` block-at-a-time, program order."""
        events = self.trace.events
        if self.blocks is None:
            for index, event in enumerate(events):
                yield index, event
            return
        for block in self.blocks:
            for index in block.events:
                yield index, events[index]

    def lines_for(self, index: int):
        return self.lines.get(index)

    def descriptor(self) -> Dict[str, object]:
        return self.config.descriptor()

    def summary(self) -> Dict[str, object]:
        return {
            "events": len(self.trace.events),
            "blocks": len(self.blocks) if self.blocks is not None else 0,
            "max_block": max((len(b) for b in self.blocks), default=0)
                         if self.blocks is not None else 0,
            "dep_levels": max((b.level for b in self.blocks), default=0) + 1
                          if self.blocks else 0,
            "eliminated": len(self.eliminated),
            "dce_rounds": self.dce.rounds if self.dce is not None else 0,
            "dce_ok": self.dce_ok,
            "hoisted_events": len(self.lines),
        }


def compile_trace(trace: Trace, config: Optional[CompilerConfig] = None,
                  columns: Optional[TraceColumns] = None) -> CompiledTrace:
    """Run the pass pipeline over ``trace``.

    ``columns`` lets a caller that already built the def-use facts (the
    analysis pipeline, strict check) share them with the first DCE
    round.  With ``config.strict`` the findings gate raises on
    violation; otherwise a violation is recorded on the result and the
    DCE view is discarded (the unoptimized trace stands in), so a
    non-strict compile never contradicts ``repro check``.
    """
    config = config if config is not None else CompilerConfig()
    passes = config.passes
    if columns is None and ("dce" in passes or "schedule" in passes):
        columns = TraceColumns(trace)

    dce = None
    dce_ok = True
    dce_mismatch: Tuple[tuple, tuple] = ((), ())
    if "dce" in passes:
        dce = eliminate_dead_ops(trace, columns=columns)
        if dce.eliminated:
            dce_ok, missing, unexpected = verify_dce_findings(
                trace, dce, strict=config.strict)
            dce_mismatch = (missing, unexpected)
            if not dce_ok:
                dce = None

    lines: LinesTable = (hoist_memory_lines(trace)
                         if "hoist" in passes else {})

    blocks = None
    if "schedule" in passes:
        blocks = schedule_blocks(trace, columns=columns)

    return CompiledTrace(trace, config, lines, blocks, dce,
                         dce_ok=dce_ok, dce_mismatch=dce_mismatch)


def compiler_descriptor(config: Optional[CompilerConfig] = None
                        ) -> Dict[str, object]:
    """The fingerprint ingredient every simulated result carries."""
    return (config if config is not None else CompilerConfig()).descriptor()


__all__ = [
    "COMPILER_VERSION", "DEFAULT_PASSES", "CompilerConfig", "CompiledTrace",
    "compile_trace", "compiler_descriptor", "Block", "schedule_blocks",
    "DceResult", "eliminate_dead_ops", "verify_dce_findings",
    "hoist_memory_lines",
]
