"""Hierarchically named simulation metrics: counters, gauges, histograms.

Every instrument lives in a :class:`MetricsRegistry` under a dotted
hierarchical name (``eve.vmu.busy_cycles``, ``mem.l2.miss``,
``mshr.l1d.occupancy``), so a whole registry snapshot flattens naturally
into JSON/CSV and groups naturally by subsystem prefix.

Three instrument kinds cover the simulator's needs:

* :class:`Counter` — monotonically increasing totals (requests, hits);
* :class:`Gauge` — a level that moves both ways and remembers its
  high-water mark (MSHR occupancy, outstanding requests);
* :class:`Histogram` — log2-bucketed distributions (access latency,
  micro-program cycle counts) — constant memory, no sample storage.

The :data:`NULL_METRICS` singleton is the disabled-mode stand-in: it hands
out shared no-op instruments and reports ``enabled = False`` so hot paths
can skip metric computation entirely.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Union

from ..errors import MetricsSchemaError

#: Log2 bucket count: bucket i covers [2**(i-1), 2**i); bucket 0 is < 1.
#: 48 buckets reach 2**47 — far beyond any simulated-cycle quantity.
HISTOGRAM_BUCKETS = 48


def bucket_index(value: float) -> int:
    """Log2 bucket of ``value``: 0 for values below 1, else the exponent
    ``e`` with ``2**(e-1) <= value < 2**e``, clamped to the bucket range."""
    if value < 1.0:
        return 0
    return min(HISTOGRAM_BUCKETS - 1, math.frexp(value)[1])


def bucket_upper_bound(index: int) -> float:
    """Exclusive upper edge of bucket ``index``."""
    return float(2 ** index) if index > 0 else 1.0


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A level that moves both ways and tracks its high-water mark."""

    __slots__ = ("name", "value", "hwm")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.hwm = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.hwm:
            self.hwm = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "hwm": self.hwm}


class Histogram:
    """A log2-bucketed distribution with count/sum/min/max."""

    __slots__ = ("name", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: List[int] = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding the
        ``q``-th sample (exact to within a factor of two)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n > 0:
                return bucket_upper_bound(i)
        return bucket_upper_bound(HISTOGRAM_BUCKETS - 1)

    def snapshot(self) -> Dict[str, object]:
        buckets = {f"le_{bucket_upper_bound(i):g}": n
                   for i, n in enumerate(self.counts) if n}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


Instrument = Union[Counter, Gauge, Histogram]

#: Legal metric names: dotted lowercase segments (``mem.l2.miss``).
#: Digits, ``_`` and ``-`` are allowed inside a segment (``l1d``,
#: ``busy_cycles``); uppercase and whitespace are not.
_NAME_RE = re.compile(r"^[a-z0-9_-]+(\.[a-z0-9_-]+)*$")


class MetricsRegistry:
    """Get-or-create registry of hierarchically named instruments.

    Units may *reserve* their name prefix (``metrics.reserve("mem",
    owner="MemorySystem")``): a second unit reserving the same or an
    overlapping prefix raises :class:`~repro.errors.MetricsSchemaError`
    instead of silently publishing colliding metric names.
    :meth:`assert_schema` additionally validates name syntax and that no
    gauge/histogram ``flat()`` expansion (``.value`` / ``.hwm`` / ...)
    shadows another instrument's name.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._reserved: Dict[str, str] = {}

    def _get(self, name: str, cls) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name)
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def reserve(self, prefix: str, owner: str) -> None:
        """Claim a name prefix for one unit; conflicting claims raise.

        Re-reserving with the same owner is a no-op, so constructors can
        reserve unconditionally.
        """
        if not _NAME_RE.match(prefix):
            raise MetricsSchemaError(f"illegal metric prefix {prefix!r}")
        for existing, existing_owner in self._reserved.items():
            if existing_owner == owner:
                continue
            if (existing == prefix
                    or existing.startswith(prefix + ".")
                    or prefix.startswith(existing + ".")):
                raise MetricsSchemaError(
                    f"metric prefix {prefix!r} (owner {owner!r}) collides "
                    f"with {existing!r} reserved by {existing_owner!r}")
        self._reserved[prefix] = owner

    def assert_schema(self) -> None:
        """Raise :class:`~repro.errors.MetricsSchemaError` on any naming
        violation: malformed names, or a gauge/histogram whose ``flat()``
        suffix expansion (``.value``/``.hwm``/``.count``/...) shadows a
        separately registered instrument (two units whose names collide
        only in the flattened CSV view)."""
        names = set(self._instruments)
        flat_sources: Dict[str, str] = {}
        for name, instrument in self._instruments.items():
            if not _NAME_RE.match(name):
                raise MetricsSchemaError(f"illegal metric name {name!r}")
            if isinstance(instrument, Counter):
                expanded = (name,)
            elif isinstance(instrument, Gauge):
                expanded = (f"{name}.value", f"{name}.hwm")
            else:
                expanded = tuple(f"{name}.{s}"
                                 for s in ("count", "sum", "mean", "max"))
            for key in expanded:
                if key != name and key in names:
                    raise MetricsSchemaError(
                        f"{type(instrument).__name__} {name!r} flattens to "
                        f"{key!r}, shadowing the instrument of that name")
                previous = flat_sources.setdefault(key, name)
                if previous != name:
                    raise MetricsSchemaError(
                        f"metrics {previous!r} and {name!r} both flatten "
                        f"to {key!r}")

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, object]:
        """Full registry state, keyed by hierarchical name (sorted)."""
        return {name: self._instruments[name].snapshot()
                for name in self.names()}

    def flat(self) -> Dict[str, float]:
        """Scalar view for CSV reporting: gauges expand to ``.value`` /
        ``.hwm`` suffixes, histograms to ``.count`` / ``.sum`` / ``.mean``
        / ``.max`` (bucket detail stays in :meth:`snapshot`)."""
        out: Dict[str, float] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[f"{name}.value"] = instrument.value
                out[f"{name}.hwm"] = instrument.hwm
            else:
                out[f"{name}.count"] = float(instrument.count)
                out[f"{name}.sum"] = instrument.sum
                out[f"{name}.mean"] = instrument.mean
                out[f"{name}.max"] = instrument.max if instrument.count else 0.0
        return out


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled-mode hooks."""

    __slots__ = ()
    name = "null"
    value = 0.0
    hwm = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self):
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Disabled-mode registry: every instrument is a shared no-op."""

    enabled = False

    def reserve(self, prefix: str, owner: str) -> None:
        # The singleton is shared by every uninstrumented machine, so
        # ownership bookkeeping would raise spurious conflicts.
        pass

    def assert_schema(self) -> None:
        pass

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str):
        return _NULL_INSTRUMENT


#: Process-wide disabled registry; safe to share (it holds no state).
NULL_METRICS = NullMetricsRegistry()
