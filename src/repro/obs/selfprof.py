"""Wall-clock self-profiler: where does the *simulator's* host time go?

ROADMAP's north star is simulator speed, so the toolkit watches its own
perf trajectory: the :class:`SelfProfiler` attributes host wall-clock
seconds to named phases (``trace_build``, ``sim:<system>``, ``report``)
via nestable context managers.  ``repro run --record`` and
``repro sweep --record`` archive these numbers into the run store
(:mod:`repro.obs.runstore`) so CI records the trend.

Each phase records **exclusive** time: a child phase's elapsed seconds
are subtracted from its enclosing phase, so nesting (a ``sim:`` phase
inside a ``sweep`` phase) never double-counts and
``sum(profiler.seconds.values())`` equals the wall-clock spent inside
top-level phases.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List


class SelfProfiler:
    """Accumulates host wall-clock time per named phase (exclusive)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Stack of open frames: ``[name, child_elapsed_seconds]``.
        self._stack: List[List[object]] = []

    @contextmanager
    def phase(self, name: str):
        """Time a phase; nested phases record exclusive time (the parent
        is charged only for seconds not attributed to a child phase)."""
        frame: List[object] = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            exclusive = max(0.0, elapsed - float(frame[1]))
            self.seconds[name] = self.seconds.get(name, 0.0) + exclusive
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][1] = float(self._stack[-1][1]) + elapsed

    @property
    def current_phase(self) -> str:
        return str(self._stack[-1][0]) if self._stack else ""

    def total(self) -> float:
        """Seconds spent inside top-level phases.  Because every phase is
        exclusive, this is a plain sum with no double-counting."""
        return sum(self.seconds.values())

    def absorb(self, phases: Dict[str, Dict[str, float]],
               prefix: str = "") -> None:
        """Merge another profiler's :meth:`as_dict` output into this one,
        optionally namespaced (``prefix="worker:"`` keeps child-process
        time distinguishable from the parent's own phases).  Keys are
        merged in sorted order so repeated merges are deterministic."""
        for name in sorted(phases):
            info = phases[name]
            key = prefix + name
            self.seconds[key] = (self.seconds.get(key, 0.0)
                                 + float(info.get("seconds", 0.0)))
            self.calls[key] = (self.calls.get(key, 0)
                               + int(info.get("calls", 0)))

    def as_dict(self) -> Dict[str, object]:
        return {name: {"seconds": self.seconds[name],
                       "calls": self.calls[name]}
                for name in sorted(self.seconds)}

    def merged(self, prefix_sep: str = ":") -> Dict[str, float]:
        """Phase seconds with per-instance suffixes collapsed
        (``sim:O3+EVE-4`` and ``sim:IO`` merge into ``sim``)."""
        out: Dict[str, float] = {}
        for name, secs in self.seconds.items():
            key = name.split(prefix_sep, 1)[0]
            out[key] = out.get(key, 0.0) + secs
        return out
