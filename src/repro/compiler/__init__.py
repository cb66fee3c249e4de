"""Trace compiler: DCE + line hoisting + block scheduling.

This package compiles a trace once, and every simulation of it, on any
system at its vlmax, replays the compiled form; a machine handed only a
trace compiles it on demand (:class:`~repro.cores.machine.Machine`).
The machines time every memory event from its hoisted cache-line
stream, derived through numpy once per trace instead of once per run.

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
the *checkers* see, never what the timing models charge.  Instrumented
runs (tracer, metrics, attribution) replay the compiled trace too.

Every compile runs every pass, in the order :data:`DEFAULT_PASSES`
lists; only the strictness of the DCE gate is configurable
(:class:`CompilerConfig`).  :data:`COMPILER_VERSION` and the pass list
are folded into experiment fingerprints (see
:func:`compiler_descriptor`), so results of different compiler
versions never collide in the result cache or the run store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis.columns import TraceColumns
from ..isa.trace import Trace
from ..mem.hierarchy import TagWalk
from .blocks import Block, schedule_blocks
from .passes import (DceResult, LinesTable, eliminate_dead_ops,
                     hoist_memory_lines, verify_dce_findings)

#: Bumped whenever a pass changes observable behaviour; part of every
#: compiled run's fingerprint.
COMPILER_VERSION = 1

#: The pipeline, in the order it runs: every compile runs every pass.
DEFAULT_PASSES: Tuple[str, ...] = ("dce", "hoist", "schedule")


@dataclass(frozen=True)
class CompilerConfig:
    """Whether the DCE equivalence gate is fatal."""

    strict: bool = False


class CompiledTrace:
    """One trace, compiled: line tables, block schedule, DCE view.

    The machines drive a run through :meth:`iter_events`
    (block-at-a-time event stream, order-identical to ``enumerate``)
    and :meth:`lines_for` (the hoisted request list, ``()`` for an event
    with no requests), and keep in :attr:`walks` the tag walk each
    machine class records on its first run of the program, which every
    later run of that class on the same cache geometry replays.
    """

    def __init__(self, trace: Trace, config: CompilerConfig,
                 lines: LinesTable, blocks: List[Block],
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
        #: Tag walks recorded by runs of this program, by the machine's
        #: walk key (:meth:`~repro.cores.machine.Machine._start`).
        self.walks: Dict[tuple, TagWalk] = {}

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
        for block in self.blocks:
            for index in block.events:
                yield index, events[index]

    def lines_for(self, index: int):
        return self.lines.get(index, ())

    def descriptor(self) -> Dict[str, object]:
        return compiler_descriptor()

    def summary(self) -> Dict[str, object]:
        return {
            "events": len(self.trace.events),
            "blocks": len(self.blocks),
            "max_block": max((len(b) for b in self.blocks), default=0),
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
    if columns is None:
        columns = TraceColumns(trace)

    dce = eliminate_dead_ops(trace, columns=columns)
    dce_ok = True
    dce_mismatch: Tuple[tuple, tuple] = ((), ())
    if dce.eliminated:
        dce_ok, missing, unexpected = verify_dce_findings(
            trace, dce, strict=config.strict)
        dce_mismatch = (missing, unexpected)
        if not dce_ok:
            dce = None

    lines = hoist_memory_lines(trace)
    blocks = schedule_blocks(trace, columns=columns)
    return CompiledTrace(trace, config, lines, blocks, dce,
                         dce_ok=dce_ok, dce_mismatch=dce_mismatch)


def compiler_descriptor() -> Dict[str, object]:
    """The fingerprint ingredient every simulated result carries: the
    compiler version and its pass list."""
    return {"compiler_version": COMPILER_VERSION,
            "passes": list(DEFAULT_PASSES)}


__all__ = [
    "COMPILER_VERSION", "DEFAULT_PASSES", "CompilerConfig", "CompiledTrace",
    "compile_trace", "compiler_descriptor", "Block", "schedule_blocks",
    "DceResult", "eliminate_dead_ops", "verify_dce_findings",
    "hoist_memory_lines",
]
