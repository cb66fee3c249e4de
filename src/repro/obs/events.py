"""Campaign telemetry: a schema-versioned, append-only JSONL event log.

Every campaign-scale run — a ``repro sweep`` over (system, workload)
cells, a fuzzing run over seeds, a fault-injection campaign — is a set
of *units of work* whose lifecycle this module records as events:

``queued``
    The parent registered the unit (always first).
``started``
    A worker began executing the unit (carries the worker id).
``heartbeat``
    The parent observed the unit still in flight (periodic; live-only).
``cache_hit``
    The unit was satisfied from the on-disk cell cache (terminal).
``cache_corrupt``
    A cache entry for the unit did not match its digest or failed to
    unpickle; the offending file was quarantined (renamed, not deleted)
    and the unit re-simulated.
``finished`` / ``failed``
    The unit completed / raised (terminal; ``failed`` carries the
    error).
``cancelled``
    The unit was abandoned before executing (terminal).  No current
    producer emits it; the kind stays in the schema so logs written by
    earlier builds still read and conserve.
``stalled``
    The watchdog flagged the unit as exceeding ``k x`` the historical
    p95 per-unit wall-clock (the unit may still finish later).  A spec
    that runs ``n`` units in turn is judged as a whole against ``n k x``
    and flagged on its last unit.

Invariants the log is designed around:

* **Conservation** — every queued unit gets *exactly one* terminal
  event (``cache_hit`` / ``finished`` / ``failed``), in a failed
  campaign too; a violation means the campaign was interrupted
  mid-flight.  :func:`check_conservation` verifies this and ``repro
  events --check`` gates on it in CI.
* **Deterministic merge** — workers report their events through the
  pool's result channel; the parent buffers them and writes the log in
  *unit input order* (never completion order), so two runs of the same
  campaign produce the same ``(unit, event)`` sequence for the
  deterministic event kinds regardless of ``--jobs``.  ``heartbeat`` /
  ``stalled`` are wall-clock-driven and explicitly excluded.
* **One failure contract** — every campaign runs its units through
  :func:`~repro.experiments.parallel.fan_out`: a unit that raises is
  reported ``failed``, its siblings still run, and the first failure
  in input order is re-raised once all have finished.
* **Zero cost when off** — call sites hold :data:`NULL_TELEMETRY` and
  call it like a live hub, the same null-hook pattern the metrics
  registry and tracer use; a telemetry-off run takes the same unit
  loop, and its results are byte-identical.

Timestamps are ``time.monotonic()`` seconds relative to the campaign
epoch.  On the platforms the toolkit targets the monotonic clock is
system-wide, so worker-process timestamps are directly comparable to
the parent's; the log never depends on wall-clock time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import EventLogError
from .journal import Journal

#: Bump when the event layout changes incompatibly.
EVENT_SCHEMA_VERSION = 1

#: Default event-log location (sibling of ``runs.jsonl`` in the store).
DEFAULT_EVENTS_PATH = os.path.join(".eve-runs", "events.jsonl")

#: Every event kind the schema admits.
EVENT_KINDS = (
    "campaign_started", "queued", "started", "heartbeat", "cache_hit",
    "cache_corrupt", "finished", "failed", "cancelled", "stalled",
    "campaign_finished",
)

#: Exactly one of these per unit (the conservation invariant).
TERMINAL_EVENTS = ("cache_hit", "finished", "failed", "cancelled")

#: Wall-clock-driven kinds, excluded from determinism comparisons.
LIVE_EVENTS = ("heartbeat", "stalled")

#: ``unit`` value for campaign-scope events.
CAMPAIGN_UNIT = "*"

#: Within one unit the log orders events by lifecycle rank (stable, so
#: emission order breaks ties); terminal kinds share the final rank.
_RANK = {"queued": 0, "started": 1, "heartbeat": 2, "stalled": 3,
         "cache_corrupt": 4, "cache_hit": 5, "finished": 5, "failed": 5,
         "cancelled": 5}


# -- the event -----------------------------------------------------------------

@dataclass
class Event:
    """One schema-versioned telemetry event."""

    event: str
    unit: str
    t: float
    campaign: str
    seq: int = -1
    worker: str = "parent"
    fingerprint: str = ""
    detail: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "v": EVENT_SCHEMA_VERSION, "seq": self.seq,
            "t": round(self.t, 6), "campaign": self.campaign,
            "event": self.event, "unit": self.unit, "worker": self.worker,
            "fp": self.fingerprint, "detail": self.detail,
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "Event":
        if not isinstance(doc, dict):
            raise EventLogError(
                f"event must be an object, got {type(doc).__name__}")
        version = doc.get("v")
        if version != EVENT_SCHEMA_VERSION:
            raise EventLogError(
                f"event schema version {version!r} is not supported "
                f"(this build reads version {EVENT_SCHEMA_VERSION})")
        kind = doc.get("event")
        if kind not in EVENT_KINDS:
            raise EventLogError(f"unknown event kind {kind!r}")
        try:
            return cls(event=str(kind), unit=str(doc["unit"]),
                       t=float(doc["t"]), campaign=str(doc["campaign"]),
                       seq=int(doc.get("seq", -1)),
                       worker=str(doc.get("worker", "parent")),
                       fingerprint=str(doc.get("fp", "")),
                       detail=dict(doc.get("detail") or {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise EventLogError(f"malformed event: {exc}") from exc


# -- the on-disk log -----------------------------------------------------------

class EventLog:
    """Append-only JSONL event file under the journal contract of
    :mod:`repro.obs.journal` (locked on the log file itself): concurrent
    campaigns never interleave lines, readers skip an unterminated tail
    and raise :class:`EventLogError` on interior corruption."""

    def __init__(self, path: str = DEFAULT_EVENTS_PATH) -> None:
        self.path = path

    def append(self, events: Sequence[Event]) -> int:
        """Append ``events``; returns how many were written."""
        if not events:
            return 0
        _journal(self.path).append([event.to_json_dict()
                                    for event in events])
        return len(events)

    def read(self, campaign: Optional[str] = None) -> List["Event"]:
        return read_events(self.path, campaign=campaign)


def _journal(path: str) -> Journal:
    return Journal(path, EventLogError, "event")


def read_events(path: str, campaign: Optional[str] = None,
                tail: Optional[int] = None) -> List[Event]:
    """Every committed event in ``path`` (oldest first), optionally
    filtered to one campaign and/or the last ``tail`` events."""
    if not os.path.exists(path):
        raise EventLogError(f"no event log at {path!r} (record one with: "
                            f"repro sweep --events {path})")
    events = [Event.from_json_dict(doc) for doc in _journal(path).docs()]
    if campaign is not None:
        events = [e for e in events if e.campaign == campaign]
    if tail is not None and tail >= 0:
        events = events[-tail:] if tail else []
    return events


def follow_events(path: str, poll_seconds: float = 0.5,
                  stop: Optional[Callable[[], bool]] = None,
                  campaign: Optional[str] = None) -> Iterable[Event]:
    """Yield events appended to ``path`` as they land (``tail -f``).

    Polls the journal for newly committed lines with the same reader
    :func:`read_events` uses, so a line is yielded only once its newline
    is on disk.  A missing file simply means "no events yet" (no
    campaign has finalized into it), and a shrinking file (rotated or
    truncated log) restarts from the top.  ``stop`` is checked once per
    idle poll; without one, iterate until interrupted.
    """
    journal = _journal(path)
    offset = lineno = 0
    while True:
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if size < offset:  # truncated or rotated: start over
            offset = lineno = 0
        progressed = False
        for lineno, offset, doc in journal.scan(offset, lineno):
            progressed = True
            event = Event.from_json_dict(doc)
            if campaign is None or event.campaign == campaign:
                yield event
        if progressed:
            continue  # re-check immediately after a batch
        if stop is not None and stop():
            return
        time.sleep(poll_seconds)


# -- log analysis --------------------------------------------------------------

def check_conservation(events: Iterable[Event]) -> List[str]:
    """Violations of the one-terminal-event-per-unit invariant.

    Returns human-readable messages (empty list == conserved): units
    with zero or multiple terminal events, and terminal events for
    units that were never queued.
    """
    queued: Dict[Tuple[str, str], int] = {}
    terminal: Dict[Tuple[str, str], List[str]] = {}
    for event in events:
        if event.unit == CAMPAIGN_UNIT:
            continue
        key = (event.campaign, event.unit)
        if event.event == "queued":
            queued[key] = queued.get(key, 0) + 1
        elif event.event in TERMINAL_EVENTS:
            terminal.setdefault(key, []).append(event.event)
    violations = []
    for key, count in sorted(queued.items()):
        kinds = terminal.get(key, [])
        if count != 1:
            violations.append(
                f"{key[0]}: unit {key[1]!r} queued {count} times")
        if len(kinds) != 1:
            violations.append(
                f"{key[0]}: unit {key[1]!r} has {len(kinds)} terminal "
                f"event(s) {kinds} (want exactly 1)")
    for key, kinds in sorted(terminal.items()):
        if key not in queued:
            violations.append(
                f"{key[0]}: unit {key[1]!r} has terminal event(s) {kinds} "
                f"but was never queued")
    return violations


def campaign_summaries(events: Iterable[Event]) -> List[Dict[str, object]]:
    """Per-campaign rollup (kind, unit/event counts, cache telemetry,
    stall flags, wall-clock span), oldest campaign first."""
    order: List[str] = []
    table: Dict[str, Dict[str, object]] = {}
    for event in events:
        if event.campaign not in table:
            order.append(event.campaign)
            table[event.campaign] = {
                "campaign": event.campaign, "kind": "", "units": 0,
                "events": 0, "counts": {}, "cache": {"hits": 0, "corrupt": 0},
                "stalled_units": [], "seconds": 0.0, "conserved": True,
            }
        row = table[event.campaign]
        row["events"] += 1
        counts = row["counts"]
        counts[event.event] = counts.get(event.event, 0) + 1
        row["seconds"] = max(float(row["seconds"]), event.t)
        if event.event == "campaign_started":
            row["kind"] = str(event.detail.get("kind", ""))
            row["units"] = int(event.detail.get("units", 0))
        elif event.event == "cache_hit":
            row["cache"]["hits"] += 1
        elif event.event == "cache_corrupt":
            row["cache"]["corrupt"] += 1
        elif event.event == "stalled":
            if event.unit not in row["stalled_units"]:
                row["stalled_units"].append(event.unit)
    by_campaign: Dict[str, List[Event]] = {}
    for event in events:
        by_campaign.setdefault(event.campaign, []).append(event)
    for campaign, rows in by_campaign.items():
        table[campaign]["conserved"] = not check_conservation(rows)
    return [table[c] for c in order]


# -- the watchdog --------------------------------------------------------------

class Watchdog:
    """Flags units whose wall-clock exceeds ``factor x`` the p95 of
    historical per-unit durations.

    History blends two sources: durations observed *this* campaign
    (:meth:`observe`, preferred once ``min_history`` cells completed)
    and an optional prior from the run store (``hint_seconds``, e.g.
    the median per-cell wall-clock of past sweeps).  Until either
    exists the watchdog never fires — a cold first run cannot stall.
    """

    def __init__(self, factor: float = 4.0,
                 hint_seconds: Optional[float] = None,
                 min_seconds: float = 0.5, min_history: int = 3) -> None:
        if factor <= 1.0:
            raise EventLogError("watchdog factor must exceed 1.0")
        self.factor = factor
        self.hint_seconds = hint_seconds
        self.min_seconds = min_seconds
        self.min_history = min_history
        self.durations: List[float] = []

    def observe(self, seconds: float) -> None:
        """Record one completed unit's wall-clock seconds."""
        if seconds >= 0:
            self.durations.append(seconds)

    def p95(self) -> Optional[float]:
        """Historical p95 per-unit seconds, or ``None`` with no data."""
        if len(self.durations) >= self.min_history:
            ordered = sorted(self.durations)
            return ordered[min(len(ordered) - 1,
                               int(0.95 * (len(ordered) - 1) + 0.999))]
        return self.hint_seconds

    def threshold(self) -> Optional[float]:
        """Seconds after which an in-flight unit counts as stalled."""
        p95 = self.p95()
        if p95 is None:
            return None
        return max(self.min_seconds, self.factor * p95)

    def is_stalled(self, elapsed: float, units: int = 1) -> bool:
        """Whether ``elapsed`` seconds spent on ``units`` units run in
        turn exceed ``units x`` the threshold."""
        threshold = self.threshold()
        return threshold is not None and elapsed > threshold * units


# -- the telemetry hub ---------------------------------------------------------

def make_campaign_id(kind: str) -> str:
    """A sortable, process-unique campaign id."""
    return (f"{kind}-{time.strftime('%Y%m%dT%H%M%S')}"
            f"-{os.getpid() % 100000:05d}")


class NullTelemetry:
    """Do-nothing telemetry; the zero-cost default at every call site."""

    progress = None

    def now(self) -> float:
        return 0.0

    def begin(self, units) -> None:
        pass

    def emit(self, event, unit, **kwargs) -> None:
        pass

    def unit_finished(self, unit, **kwargs) -> None:
        pass

    def heartbeat(self, in_flight, group_sizes=None) -> None:
        pass

    def finalize(self, detail=None):
        return {}


#: Shared no-op instance (the null-hook pattern; see obs.metrics).
NULL_TELEMETRY = NullTelemetry()


class CampaignTelemetry:
    """Buffers one campaign's events and writes them deterministically.

    The parent emits ``queued`` for every unit up front, workers hand
    their observations back through the pool's result channel
    (timestamps, worker pid, cache events), and the parent replays them
    as ``started`` / ``cache_*`` / terminal events per unit.  Live
    events (``heartbeat`` / ``stalled``) come from the parent's polling
    loop.  :meth:`finalize` orders everything — campaign header, then
    each unit's events in *input* order by lifecycle rank, then the
    campaign footer — assigns sequence numbers, and appends to the
    :class:`EventLog` (when one is attached) in a single locked write.
    """

    def __init__(self, kind: str, *, log: Optional[EventLog] = None,
                 progress=None, watchdog: Optional[Watchdog] = None,
                 fingerprint: str = "", campaign_id: Optional[str] = None,
                 clock: Callable[[], float] = time.monotonic,
                 heartbeat_every: float = 5.0) -> None:
        self.kind = kind
        self.log = log
        self.progress = progress
        self.watchdog = watchdog or Watchdog()
        self.fingerprint = fingerprint
        self.clock = clock
        self.epoch = clock()
        self.campaign = campaign_id or make_campaign_id(kind)
        self.heartbeat_every = heartbeat_every
        self._unit_order: List[str] = []
        self._unit_events: Dict[str, List[Event]] = {}
        self._head: List[Event] = []
        self._tail: List[Event] = []
        self._stalled: set = set()
        self._last_heartbeat = -float("inf")
        self._done = self._cached = self._failed = self._corrupt = 0
        self._finalized: Optional[Dict[str, object]] = None

    # -- time ------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the campaign epoch (monotonic)."""
        return self.clock() - self.epoch

    def to_rel(self, raw_monotonic: float) -> float:
        """Convert a worker's raw ``time.monotonic()`` reading to
        campaign-relative seconds (the monotonic clock is system-wide)."""
        return raw_monotonic - self.epoch

    # -- emission --------------------------------------------------------------

    def _event(self, event: str, unit: str, t: Optional[float],
               worker: str, detail: Optional[dict]) -> Event:
        return Event(event=event, unit=unit,
                     t=self.now() if t is None else t,
                     campaign=self.campaign, worker=worker,
                     fingerprint=self.fingerprint, detail=detail or {})

    def emit(self, event: str, unit: str, *, t: Optional[float] = None,
             worker: str = "parent", detail: Optional[dict] = None) -> None:
        if event not in EVENT_KINDS:
            raise EventLogError(f"unknown event kind {event!r}")
        record = self._event(event, unit, t, worker, detail)
        if unit == CAMPAIGN_UNIT:
            (self._head if not self._unit_order or event == "campaign_started"
             else self._tail).append(record)
            return
        if unit not in self._unit_events:
            self._unit_order.append(unit)
            self._unit_events[unit] = []
        self._unit_events[unit].append(record)

    def begin(self, units: Sequence[str]) -> None:
        """Register + queue every unit and announce the campaign."""
        if not self._head:
            self.emit("campaign_started", CAMPAIGN_UNIT,
                      detail={"kind": self.kind, "units": len(units)})
        t = self.now()
        for unit in units:
            self.emit("queued", unit, t=t)
        if self.progress is not None:
            self.progress.begin(len(units))

    def unit_finished(self, unit: str, *, ok: bool = True,
                      cached: bool = False, t_start: Optional[float] = None,
                      t_end: Optional[float] = None, worker: str = "parent",
                      detail: Optional[dict] = None,
                      events: Sequence[Tuple[str, dict]] = ()) -> None:
        """Record one unit's completion (started + extras + terminal).

        ``t_start`` / ``t_end`` are raw ``time.monotonic()`` readings
        from the worker (converted to campaign-relative here);
        ``events`` carries worker-side extras such as ``cache_corrupt``
        as ``(kind, detail)`` pairs.
        """
        start = self.to_rel(t_start) if t_start is not None else self.now()
        end = self.to_rel(t_end) if t_end is not None else self.now()
        if not cached:
            self.emit("started", unit, t=start, worker=worker)
        for kind, extra_detail in events:
            self.emit(kind, unit, t=end, worker=worker, detail=extra_detail)
            if kind == "cache_corrupt":
                self._corrupt += 1
        terminal = "cache_hit" if cached else ("finished" if ok else "failed")
        self.emit(terminal, unit, t=end, worker=worker, detail=detail)
        self._done += 1
        self._cached += bool(cached)
        self._failed += not ok
        if ok and not cached:
            self.watchdog.observe(end - start)
        if self.progress is not None:
            self.progress.update(self._done, cached=self._cached,
                                 failed=self._failed,
                                 stalled=len(self._stalled))

    def heartbeat(self, in_flight: Dict[str, float],
                  group_sizes: Optional[Dict[str, int]] = None) -> None:
        """Periodic liveness check from the parent's polling loop.

        ``in_flight`` maps unit -> campaign-relative start seconds for
        the units believed to be executing right now.  Emits at most
        one ``heartbeat`` per unit per ``heartbeat_every`` window and a
        single ``stalled`` event the first time a unit crosses the
        watchdog threshold.  ``group_sizes`` maps a unit that stands
        for a group of units run in turn to the group's size; the
        group's elapsed time is judged against the threshold times it.
        """
        now = self.now()
        beat = now - self._last_heartbeat >= self.heartbeat_every
        if beat:
            self._last_heartbeat = now
        for unit, started in in_flight.items():
            elapsed = now - started
            size = (group_sizes or {}).get(unit, 1)
            if beat:
                self.emit("heartbeat", unit,
                          detail={"elapsed_seconds": round(elapsed, 3)})
            if (unit not in self._stalled
                    and self.watchdog.is_stalled(elapsed, size)):
                self._stalled.add(unit)
                threshold = self.watchdog.threshold() * size
                self.emit("stalled", unit, detail={
                    "elapsed_seconds": round(elapsed, 3),
                    "threshold_seconds": round(threshold, 3),
                    "factor": self.watchdog.factor})
        if self.progress is not None:
            self.progress.update(self._done, cached=self._cached,
                                 failed=self._failed,
                                 stalled=len(self._stalled),
                                 active=sorted(in_flight))

    @property
    def stalled_units(self) -> List[str]:
        return sorted(self._stalled)

    # -- the deterministic merge -----------------------------------------------

    def ordered_events(self) -> List[Event]:
        """All events in the canonical order: header, then each unit in
        input order with its events stable-sorted by lifecycle rank,
        then the footer."""
        out = list(self._head)
        for unit in self._unit_order:
            out.extend(sorted(self._unit_events[unit],
                              key=lambda e: _RANK.get(e.event, 9)))
        out.extend(self._tail)
        return out

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for events in self._unit_events.values():
            for event in events:
                counts[event.event] = counts.get(event.event, 0) + 1
        return counts

    def finalize(self, detail: Optional[dict] = None) -> Dict[str, object]:
        """Seal the campaign: emit the footer, write the log, report.

        Idempotent — a second call returns the first summary without
        re-appending to the log (the CLI calls this from ``finally``
        blocks so aborted campaigns still persist their events).
        """
        if self._finalized is not None:
            return self._finalized
        footer = dict(detail or {})
        footer.update({"units": len(self._unit_order),
                       "counts": self.counts()})
        self.emit("campaign_finished", CAMPAIGN_UNIT, detail=footer)
        events = self.ordered_events()
        for seq, event in enumerate(events):
            event.seq = seq
        written = self.log.append(events) if self.log is not None else 0
        if self.progress is not None:
            self.progress.finish()
        self._finalized = {
            "campaign": self.campaign, "kind": self.kind,
            "units": len(self._unit_order), "events": len(events),
            "written": written,
            "log_path": self.log.path if self.log is not None else None,
            "counts": self.counts(), "stalled": self.stalled_units,
            "seconds": self.now(),
        }
        return self._finalized


# -- the fan-out monitor -------------------------------------------------------

class TelemetryMonitor:
    """Adapts :class:`CampaignTelemetry` (or :data:`NULL_TELEMETRY`) to
    the executor's fan-out hooks.

    The pool executor calls :meth:`on_dispatch` as specs are submitted,
    :meth:`on_complete` as observed results arrive (completion order —
    only *live* state depends on it), and :meth:`poll` between checks.
    ``units[i]`` names the unit spec ``i`` runs, or is a tuple naming
    the units of a spec that runs several in turn.  ``describe`` maps a
    spec's return value to one ``(cached, extra_events, detail, t0, t1,
    error)`` per unit, in order, where ``t0``/``t1`` are the worker's
    raw monotonic readings around that unit, or ``None`` to take the
    spec's own, and ``error`` is the exception the unit raised, or
    ``None``: units of one spec succeed or fail on their own.  A spec
    that raised as a whole fails each of its units once.
    ``jobs`` bounds how many dispatched specs are assumed to be actually
    executing (chunksize-1 pools start work in dispatch order).  The
    parent cannot see which units of an executing spec have finished,
    so the spec is in flight as its last unit, the one certain not to
    have, and its stall threshold scales by its unit count.
    """

    def __init__(self, telemetry: Union[CampaignTelemetry, NullTelemetry],
                 units: Sequence, describe: Optional[Callable] = None,
                 jobs: int = 1) -> None:
        self.telemetry = telemetry
        self.units = [(unit,) if isinstance(unit, str) else tuple(unit)
                      for unit in units]
        self.describe = describe
        self.jobs = max(1, jobs)
        self._dispatched: Dict[int, float] = {}
        self._open: List[int] = []

    def on_dispatch(self, index: int) -> None:
        self._dispatched[index] = self.telemetry.now()
        self._open.append(index)

    def in_flight(self) -> Dict[str, float]:
        """unit -> start seconds for the (at most ``jobs``) oldest
        dispatched-but-unfinished specs, each named by its last unit."""
        return {self.units[i][-1]: self._dispatched[i]
                for i in self._open[:self.jobs]}

    def on_complete(self, index: int, observed: Dict[str, object]) -> None:
        if index in self._open:
            self._open.remove(index)
        units = self.units[index]
        error = observed.get("error")
        if error is None and self.describe is not None:
            outcomes = self.describe(observed["value"])
        else:
            outcomes = [(False, (), None, None, None, error)] * len(units)
        for unit, (cached, extra_events, detail, t0, t1, error) in zip(
                units, outcomes):
            if error is not None:
                detail = {"error": f"{type(error).__name__}: {error}"}
            self.telemetry.unit_finished(
                unit, ok=error is None, cached=cached,
                t_start=observed.get("t0") if t0 is None else t0,
                t_end=observed.get("t1") if t1 is None else t1,
                worker=str(observed.get("pid", "parent")),
                detail=detail, events=extra_events)

    def poll(self) -> None:
        self.telemetry.heartbeat(self.in_flight(), group_sizes={
            self.units[i][-1]: len(self.units[i])
            for i in self._open[:self.jobs]})


class NullMonitor:
    """Do-nothing fan-out hooks: what an unobserved fan-out reports to."""

    def on_dispatch(self, *_args) -> None:
        pass

    on_complete = poll = on_dispatch


NULL_MONITOR = NullMonitor()
