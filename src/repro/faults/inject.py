"""Deterministic, seed-addressable fault models for the EVE SRAM path.

Compute-in-SRAM designs are exactly where transient bit-line faults
matter: a flipped cell in a compute row, a stuck carry flip-flop on a
segment boundary, or a dropped peripheral write-back silently corrupts a
*value*, not a control word, so nothing in the machine traps.  This
module gives the simulator a way to inject exactly those faults — in a
fully deterministic, replayable way — so campaigns can measure how often
they are masked, detected, or become silent data corruption.

The hook pattern mirrors the observability layer: every hooked object
(:class:`~repro.sram.EveSram`, :class:`~repro.uops.executor.MicroEngine`,
:class:`~repro.core.functional.EveFunctionalEngine`) carries
:data:`NULL_FAULTS` by default and guards every call site with
``if self.faults.enabled:``, so the fault plumbing costs nothing when
disabled.  The functional engine calls ``on_macro`` just before each
macro-op's program runs and the micro-engine calls ``on_program`` as the
program starts, so a fault is attributed to the macro-op in flight.
The timing machines carry no fault hook.

Seed addressing is a two-pass protocol:

1. a **probe pass** runs the workload fault-free with a
   :class:`FaultProbe` attached, counting the write-back and carry-commit
   events the program generates (and capturing the golden outcome);
2. the **armed pass** re-runs it with a :class:`FaultInjector` whose
   target event index, fault site, and polarity are all drawn from
   ``random.Random(seed)`` against the probe's event counts.

Because micro-program control flow is data-independent, the armed pass
replays exactly the same event stream, so the same seed always fires the
same fault at the same micro-architectural instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import FaultInjectionError

#: The supported fault models (CLI ``--model`` values).
FAULT_MODELS = ("bitflip", "multi_bitflip", "stuck_carry", "drop_wb",
                "latch_wb")

#: Bit flips injected by ``multi_bitflip`` (a burst along a bit-line).
MULTI_FLIPS = 4


class NullFaultInjector:
    """Disabled-mode stand-in: hooked objects skip all fault work."""

    enabled = False

    def on_macro(self, macro: str) -> None:  # pragma: no cover - guarded
        pass

    def on_program(self, name: str) -> None:  # pragma: no cover - guarded
        pass

    def filter_wb(self, sram, dest, src, value):  # pragma: no cover
        return value

    def filter_carry(self, carry):  # pragma: no cover - guarded
        return carry


#: Shared zero-cost default for every hooked constructor.
NULL_FAULTS = NullFaultInjector()


@dataclass(frozen=True)
class FaultSpec:
    """One requested fault: a model plus the seed that addresses it."""

    model: str
    seed: int
    flips: int = MULTI_FLIPS

    def __post_init__(self) -> None:
        if self.model not in FAULT_MODELS:
            raise FaultInjectionError(
                f"unknown fault model {self.model!r} "
                f"(expected one of {', '.join(FAULT_MODELS)})")
        if self.flips <= 0:
            raise FaultInjectionError("flip count must be positive")


class FaultProbe:
    """Pass-1 hook: counts injectable events without perturbing anything.

    The counts parameterise :class:`FaultInjector` seed addressing; the
    probe is also how a campaign learns a case's fault-free event budget.
    """

    enabled = True

    def __init__(self) -> None:
        self.wb_events = 0
        self.carry_events = 0
        self.macro_ops = 0

    def on_macro(self, macro: str) -> None:
        self.macro_ops += 1

    def on_program(self, name: str) -> None:
        pass

    def filter_wb(self, sram, dest, src, value):
        self.wb_events += 1
        return value

    def filter_carry(self, carry):
        self.carry_events += 1
        return carry


class FaultInjector:
    """Pass-2 hook: fires one seed-addressed fault into the event stream.

    ``wb_events`` / ``carry_events`` are the probe's counts; ``rows`` /
    ``cols`` / ``groups`` the geometry of the SRAM under attack.  All
    random draws happen in the constructor in a fixed order, so equal
    ``(spec, counts, geometry)`` always produce an identical fault.
    """

    enabled = True

    def __init__(self, spec: FaultSpec, *, wb_events: int, carry_events: int,
                 rows: int, cols: int, groups: int) -> None:
        self.spec = spec
        self.model = spec.model
        self.fired = False
        #: Macro-op family active when the fault fired (report breakdown).
        self.fired_macro: Optional[str] = None
        self.fired_program: Optional[str] = None
        self._current_macro = ""
        self._current_program = ""
        self._wb_seen = 0
        self._carry_seen = 0
        self._stale_wb = 0
        self._stuck_active = False
        rng = random.Random(spec.seed)
        if self.model == "stuck_carry":
            if carry_events <= 0:
                raise FaultInjectionError(
                    "cannot arm stuck_carry: the probe saw no carry-commit "
                    "events (program has no multi-segment arithmetic)")
            self.target = rng.randrange(carry_events)
            self.group = rng.randrange(groups)
            self.stuck_value = rng.randrange(2)
            self._stuck_bit = 1 << (self.group * (cols // groups))
            self.flip_sites: List[Tuple[int, int]] = []
        else:
            if wb_events <= 0:
                raise FaultInjectionError(
                    "cannot arm a write-back fault: the probe saw no "
                    "write-back events")
            self.target = rng.randrange(wb_events)
            flips = spec.flips if self.model == "multi_bitflip" else 1
            self.flip_sites = [(rng.randrange(rows), rng.randrange(cols))
                               for _ in range(flips)]
            self.group = -1
            self.stuck_value = -1

    # -- context tracking --------------------------------------------------

    def on_macro(self, macro: str) -> None:
        self._current_macro = macro

    def on_program(self, name: str) -> None:
        self._current_program = name

    def _mark_fired(self) -> None:
        if not self.fired:
            self.fired = True
            self.fired_macro = self._current_macro or None
            self.fired_program = self._current_program or None

    # -- the two fault surfaces --------------------------------------------

    def filter_wb(self, sram, dest, src, value: int) -> Optional[int]:
        """Intercept one write-back of the word ``value``; returns the
        (possibly replaced) word, or ``None`` to drop the write entirely."""
        event = self._wb_seen
        self._wb_seen += 1
        if self.model == "stuck_carry" or event != self.target:
            if self.model == "latch_wb":
                self._stale_wb = value
            return value
        self._mark_fired()
        if self.model == "drop_wb":
            return None
        if self.model == "latch_wb":
            # The peripheral latch failed to capture this cycle's value:
            # the previous write-back's word (or reset state, 0) goes out.
            return self._stale_wb
        # bitflip / multi_bitflip: flip stored cells at the event boundary.
        for row, col in self.flip_sites:
            sram.array.flip(row % sram.rows, col % sram.cols)
        return value

    def filter_carry(self, carry: int) -> int:
        """Intercept one commit of the carry flags ``carry`` (one per
        group, at its LSB column); a stuck segment boundary holds its
        group's flip-flop at the stuck value from the target event on."""
        event = self._carry_seen
        self._carry_seen += 1
        if self.model != "stuck_carry":
            return carry
        if not self._stuck_active and event >= self.target:
            self._stuck_active = True
            self._mark_fired()
        if self._stuck_active:
            carry &= ~self._stuck_bit
            if self.stuck_value:
                carry |= self._stuck_bit
        return carry

    # -- reporting ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "model": self.model,
            "seed": self.spec.seed,
            "target_event": self.target,
            "fired": self.fired,
            "macro": self.fired_macro,
            "program": self.fired_program,
        }
        if self.model == "stuck_carry":
            info["group"] = self.group
            info["stuck_value"] = self.stuck_value
        elif self.flip_sites:
            info["sites"] = [list(site) for site in self.flip_sites]
        return info
