"""Cache and memory-system substrate (Table III parameters).

A timeline-based cycle-approximate model: caches keep real tag arrays with
LRU and dirty state; misses occupy MSHR entries for their full duration
(the Figure 8 bottleneck); DRAM is a single bandwidth-limited channel.

* :mod:`repro.mem.mshr` — MSHR pools as token heaps.
* :mod:`repro.mem.cache` — set-associative tag arrays with banking.
* :mod:`repro.mem.dram` — the DDR4-2400-like channel model.
* :mod:`repro.mem.hierarchy` — the composed L1D/L2/LLC/DRAM system with
  scalar and vector ports.
* :mod:`repro.mem.reconfig` — ephemeral spawn/teardown of the EVE ways
  (Section V-E).

Every run, plain or instrumented, times on the same model:
:class:`FastMemorySystem` and :class:`FastDramChannel` are the model,
and :class:`MemorySystem` / :class:`DramChannel` subclass them to add
only the tracer, metrics and attribution hooks.  Machines call
:func:`memory_system`, which picks the subclass only when a hook is on.
Every run streams its vector requests through the one fused kernel,
:meth:`FastMemorySystem.stream`; a traced or metered model observes the
hits the kernel resolves inline through its hit observer.
"""

from .mshr import MshrPool
from .cache import CacheArray
from .dram import DramChannel, FastDramChannel
from .hierarchy import (Completion, FastMemorySystem, MemorySystem,
                        memory_system)
from .reconfig import ReconfigCost, spawn_cost, teardown_cost

__all__ = [
    "MshrPool",
    "CacheArray",
    "DramChannel",
    "FastDramChannel",
    "Completion",
    "FastMemorySystem",
    "MemorySystem",
    "memory_system",
    "ReconfigCost",
    "spawn_cost",
    "teardown_cost",
]
