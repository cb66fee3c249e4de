"""Whole-trace static analysis over the Trace/VectorInstr/ScalarBlock IR.

Layered like a small compiler middle-end:

* :mod:`repro.analysis.columns` — the shared vectorized substrate: the
  whole trace lowered to numpy columns with reaching definitions, use
  counts, kill sites, and the ``vl`` state machine derived by array ops;
* :mod:`repro.analysis.footprint` — byte-interval memory footprints per
  buffer plus the load/store dependence (alias) relation;
* :mod:`repro.analysis.depgraph` — the exported :class:`DepGraph`
  (nodes = trace events, edges = register RAW/WAR/WAW + memory + vl +
  fence dependences) that the trace compiler will consume;
* :mod:`repro.analysis.replay` — a trace-level reference executor used
  to validate the dependence graph (any topological order must produce
  bit-identical state) and to cross-check corpus observations;
* :mod:`repro.analysis.checkers` — the hazard checker suite behind
  ``repro check`` and the strict-mode experiment hook.
"""

from .checkers import (AnalysisReport, AnalysisSummary, analyze_trace,
                       check_trace, require_clean)
from .columns import TraceColumns
from .depgraph import DepEdge, DepGraph, build_depgraph
from .footprint import BufferMap, MemoryFootprint, build_footprint
from .replay import TraceReplayer

__all__ = [
    "AnalysisReport", "AnalysisSummary", "analyze_trace", "check_trace",
    "require_clean", "TraceColumns", "DepEdge", "DepGraph",
    "build_depgraph", "BufferMap", "MemoryFootprint", "build_footprint",
    "TraceReplayer",
]
