"""The 12 shared EVE counters (Section IV-A).

Counters come in three groups of four — segment counters (``seg0..seg3``),
bit counters (``bit0..bit3``), and array counters (``arr0..arr3``).  Each
counter auto-resets to its initial value when decremented to zero and keeps
two sticky flags:

* the *zero flag*, set when the counter wraps (``bnz`` falls through on a
  set flag and consumes it);
* the *binary-decade flag*, set when a decrement lands on a power of two
  (``bnd`` branches on it and consumes it when taken).

For address generation the counter also keeps ``index``: the number of
ticks since ``init`` less one, modulo the initial value (0 before the
first tick) — i.e. the current iteration of the loop it drives.  Each
tick updates it, so reading it costs an attribute load.
"""

from __future__ import annotations

from ..errors import MicroExecutionError

COUNTER_NAMES = tuple(
    f"{group}{i}" for group in ("seg", "bit", "arr") for i in range(4)
)


class Counter:
    """One hardware counter with auto-reset and sticky flags."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.init_value = 1
        self.value = 1
        self.ticks = 0
        #: 0-based iteration index of the loop this counter drives.
        self.index = 0
        self.zero_flag = False
        self.decade_flag = False

    def init(self, value: int) -> None:
        if value <= 0:
            raise MicroExecutionError(f"{self.name}: init value must be positive")
        self.init_value = value
        self.value = value
        self.ticks = 0
        self.index = 0
        self.zero_flag = False
        self.decade_flag = False

    def decr(self) -> None:
        self.value -= 1
        self.index = self.ticks % self.init_value
        self.ticks += 1
        if self.value == 0:
            self.zero_flag = True
            self.value = self.init_value  # hardware auto-reset
        if self.value & (self.value - 1) == 0:
            self.decade_flag = True

    def incr(self) -> None:
        """Count up from 0 towards the armed bound; the zero (wrap) flag
        sets when the bound is reached and the counter resets."""
        if self.value >= self.init_value:  # freshly armed: start from zero
            self.value = 0
        self.value += 1
        self.index = self.ticks % self.init_value
        self.ticks += 1
        if self.value == self.init_value:
            self.zero_flag = True
            self.value = 0

    def consume_zero(self) -> bool:
        """Read-and-clear used by ``bnz`` fall-through."""
        flag = self.zero_flag
        self.zero_flag = False
        return flag

    def consume_decade(self) -> bool:
        """Read-and-clear used by ``bnd`` when taken."""
        flag = self.decade_flag
        self.decade_flag = False
        return flag


class CounterFile(dict):
    """The 12 counters shared by all EVE SRAMs, keyed by name."""

    def __init__(self) -> None:
        super().__init__((name, Counter(name)) for name in COUNTER_NAMES)

    def __missing__(self, name: str) -> Counter:
        raise MicroExecutionError(f"unknown counter {name!r}")

    def reset(self) -> None:
        for counter in self.values():
            counter.init(1)
            counter.ticks = 0
