"""Outside-in per-layer host-time ledger.

A traced benchmark process measures the simulator's layers from the
benchmark's own files: :func:`install` replaces public functions and
methods of :mod:`repro` with timing wrappers before the first pass, and
:func:`restore` puts every original object back, checked by identity.
Nothing in ``src/`` changes and the program gains no switch.

Two kinds of wrapper keep the cost in proportion to what they measure:

* an **aggregate** wraps a per-line or per-uop call (a cache access, an
  SRAM uop, an attribution charge) and only adds to a ``[calls,
  inclusive, child]`` accumulator;
* a **span** wraps a coarse call (a cell, a trace build, a compiler pass,
  a cache read or write, a payload) and keeps an in-memory record with a
  parent link; the records are written out when the run ends.

A layer's self time is its duration minus the part its children cover.
Aggregate children run back to back in one thread, so their time is
summed; child spans are unioned, because the spans pool workers send back
overlap each other.  ``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on
Linux, which is system-wide, so worker and parent times share one axis.
The ledger is single-threaded: only the main thread may call a wrapper.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Key under which a pool worker returns its ledger delta inside the cell
#: payload; the parent pops it before the runner merges the payload.
DELTA_KEY = "_perfbench_ledger"

#: A wrapping request: ``("module:Qualified.name", make)``, where
#: ``make(original)`` returns the wrapper.
Target = Tuple[str, Callable[[Callable], Callable]]


class LedgerError(RuntimeError):
    """A wrapper could not be installed, or was left installed."""


class Span:
    """One coarse call: its interval, its parent span, and the summed time
    of the aggregate calls made directly inside it."""

    __slots__ = ("sid", "name", "parent", "t0", "t1", "agg_child", "pid")

    def __init__(self, sid: str, name: str, parent: Optional[str],
                 t0: float, t1: float = 0.0, agg_child: float = 0.0,
                 pid: int = 0) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = t1
        self.agg_child = agg_child
        self.pid = pid

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}

    @classmethod
    def from_json(cls, doc: dict) -> "Span":
        return cls(**doc)


def covered(t0: float, t1: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    total = 0.0
    end = t0
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, t1)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per span id: duration minus its aggregate children
    minus the union of its child spans."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.t0, span.t1))
    return {span.sid: max(0.0, span.t1 - span.t0 - span.agg_child
                          - covered(span.t0, span.t1,
                                    children.get(span.sid, ())))
            for span in spans}


class Ledger:
    """The accumulators, counts and span records of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: name -> ``[calls, inclusive seconds, child seconds]``
        self.aggs: Dict[str, list] = {}
        #: exact counts recorded by hooks (bytes, findings, events, ...)
        self.counts: Dict[str, float] = {}
        self.spans: List[Span] = []
        #: Open frames, innermost last: ``[child_seconds]`` for an
        #: aggregate call, ``[child_seconds, span]`` for a span.  Wrappers
        #: close over this list, so it is only ever changed in place.
        self.stack: List[list] = [[0.0]]
        self._serial = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def accumulator(self, name: str) -> list:
        return self.aggs.setdefault(name, [0, 0.0, 0.0])

    # -- spans -----------------------------------------------------------------

    def open_span(self, name: str) -> Span:
        top = self.stack[-1]
        self._serial += 1
        pid = os.getpid()
        span = Span(f"{pid}.{self._serial}", name,
                    top[1].sid if len(top) == 2 else None, clock(), pid=pid)
        self.stack.append([0.0, span])
        return span

    def close_span(self, span: Span) -> None:
        span.t1 = clock()
        span.agg_child = self.stack.pop()[0]
        self.spans.append(span)
        top = self.stack[-1]
        if len(top) == 1:
            # Opened inside an aggregate call, which sums its children.
            top[0] += span.t1 - span.t0

    # -- deltas ----------------------------------------------------------------

    def mark(self) -> tuple:
        return ({name: list(acc) for name, acc in self.aggs.items()},
                dict(self.counts), len(self.spans))

    def delta(self, mark: tuple) -> dict:
        """Everything recorded since ``mark``, as plain JSON data."""
        aggs0, counts0, first = mark
        aggs = {}
        for name, acc in self.aggs.items():
            base = aggs0.get(name, (0, 0.0, 0.0))
            if acc[0] != base[0]:
                aggs[name] = [acc[0] - base[0], acc[1] - base[1],
                              acc[2] - base[2]]
        counts = {name: value - counts0.get(name, 0)
                  for name, value in self.counts.items()
                  if value != counts0.get(name, 0)}
        return {"aggs": aggs, "counts": counts,
                "spans": [span.to_json() for span in self.spans[first:]]}

    def merge(self, delta: dict, parent: Optional[str]) -> None:
        """Fold in a worker's delta; its top-level spans become children
        of ``parent``."""
        for name, (calls, inclusive, child) in delta["aggs"].items():
            acc = self.accumulator(name)
            acc[0] += calls
            acc[1] += inclusive
            acc[2] += child
        for name, value in delta["counts"].items():
            self.count(name, value)
        for doc in delta["spans"]:
            span = Span.from_json(doc)
            if span.parent is None:
                span.parent = parent
            self.spans.append(span)

    # -- wrappers --------------------------------------------------------------

    def aggregate(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot call: three additions to one accumulator."""
        acc = self.accumulator(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += frame[0]
                stack[-1][0] += elapsed
        return wrapper

    def span(self, name: str, fn: Callable, hook=None) -> Callable:
        """Wrap a coarse call in a span; ``hook(ledger, result, args,
        kwargs)`` records counts read from its result."""
        def wrapper(*args, **kwargs):
            span = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(span)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        return wrapper

    def fan_out(self, fn: Callable) -> Callable:
        """Wrap the pool fan-out in a span, then pop each worker's delta
        from its payload and merge it under that span."""
        def wrapper(*args, **kwargs):
            span = self.open_span("parallel.fanout")
            try:
                outs = fn(*args, **kwargs)
            finally:
                self.close_span(span)
            for out in outs:
                delta = (out.pop(DELTA_KEY, None)
                         if isinstance(out, dict) else None)
                if delta is not None:
                    self.merge(delta, span.sid)
            return outs
        return wrapper

    def worker(self, fn: Callable) -> Callable:
        """Wrap ``simulate_cell``.  A process pool pickles the function it
        runs by import path, so the wrapper is the module-level
        :func:`traced_simulate_cell`, which finds this ledger and the
        original through :data:`_WORKER`."""
        _WORKER["ledger"] = self
        _WORKER["original"] = fn
        return traced_simulate_cell


#: The ledger and original ``simulate_cell`` behind
#: :func:`traced_simulate_cell`; pool workers inherit it through ``fork``.
_WORKER: Dict[str, object] = {}


def traced_simulate_cell(spec):
    """``simulate_cell`` under the ledger.  In a pool worker it starts from
    an empty frame stack and ships its delta, with the pickled size of
    its payload, back inside that payload."""
    ledger = _WORKER["ledger"]
    original = _WORKER["original"]
    if os.getpid() == ledger.pid:  # fan_out ran the cell in-process
        return ledger.span("parallel.cell", original)(spec)
    ledger.stack[:] = [[0.0]]
    mark = ledger.mark()
    payload = ledger.span("parallel.cell", original)(spec)
    delta = ledger.delta(mark)
    delta["counts"]["parallel.result_bytes"] = len(
        pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    payload[DELTA_KEY] = delta
    return payload


# -- installation ----------------------------------------------------------------

def _owner(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(targets: Iterable[Target]) -> list:
    """Wrap every target; returns the patches :func:`restore` undoes.

    A method is replaced in its own class's ``__dict__``.  A function is
    replaced in its module and in every loaded ``repro`` module that
    imported it by name, since callers look it up there.
    """
    patches: list = []
    try:
        for target, make in targets:
            owner, attr = _owner(target)
            if attr not in vars(owner):
                raise LedgerError(f"{target} is not defined there")
            original = vars(owner)[attr]
            places = [(owner, attr)]
            if not isinstance(owner, type):
                places += [
                    (module, name)
                    for module in list(sys.modules.values())
                    if module is not owner and getattr(
                        module, "__name__", "").partition(".")[0] == "repro"
                    for name, value in list(vars(module).items())
                    if value is original]
            wrapper = make(original)
            for place, name in places:
                setattr(place, name, wrapper)
                patches.append((place, name, original))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list) -> None:
    """Put every original object back; raise :class:`LedgerError` if any
    place does not hold its original afterwards (checked by identity)."""
    for place, name, original in reversed(patches):
        setattr(place, name, original)
    _WORKER.clear()
    left = [f"{getattr(place, '__name__', place)}.{name}"
            for place, name, original in patches
            if vars(place).get(name) is not original]
    if left:
        raise LedgerError(f"wrappers left installed: {', '.join(left)}")
