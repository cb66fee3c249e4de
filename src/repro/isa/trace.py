"""Trace container and Table IV characterisation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .instructions import ScalarBlock, VectorInstr
from .opcodes import Category

Event = Union[VectorInstr, ScalarBlock]


@dataclass
class TraceStats:
    """Characterisation of one trace (the columns of Table IV).

    Percentages of the vector-instruction mix are expressed in [0, 100].
    """

    dynamic_instrs: int = 0
    vector_instrs: int = 0
    scalar_instrs: int = 0
    total_ops: int = 0       # scalar instrs + sum of vector active lengths
    vector_ops: int = 0      # sum of vector active lengths
    predicated: int = 0
    by_category: dict = field(default_factory=dict)
    math_ops: int = 0        # vector arithmetic element operations
    mem_ops: int = 0         # vector memory element operations

    @property
    def vi_pct(self) -> float:
        """Percent of dynamic instructions that are vector (VI%)."""
        return 100.0 * self.vector_instrs / max(1, self.dynamic_instrs)

    @property
    def vo_pct(self) -> float:
        """Percent of operations performed by the vector unit (VO%)."""
        return 100.0 * self.vector_ops / max(1, self.total_ops)

    @property
    def vpar(self) -> float:
        """Logical parallelism: total ops / dynamic instructions (VPar)."""
        return self.total_ops / max(1, self.dynamic_instrs)

    @property
    def arith_intensity(self) -> float:
        """Vector arithmetic ops per vector memory op (ArInt)."""
        return self.math_ops / max(1, self.mem_ops)

    def mix_pct(self, category: Category) -> float:
        """Percent of vector instructions in ``category``."""
        return 100.0 * self.by_category.get(category, 0) / max(1, self.vector_instrs)

    @property
    def prd_pct(self) -> float:
        return 100.0 * self.predicated / max(1, self.vector_instrs)


class Trace:
    """An ordered sequence of vector instructions and scalar blocks."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.events: List[Event] = []
        #: Hardware vlmax the trace was built for; stamped by
        #: :meth:`VectorContext.finalize_trace`, ``None`` for hand-built or
        #: scalar traces.  The static analyzer uses it to check vsetvl use.
        self.vlmax: Optional[int] = None
        #: Buffer layout: name -> (base byte address, size in bytes).
        #: Stamped alongside :attr:`vlmax`; the analyzer checks every
        #: memory footprint against these declared extents.
        self.buffers: Dict[str, Tuple[int, int]] = {}

    def append(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def vector_instrs(self) -> Iterator[VectorInstr]:
        for event in self.events:
            if isinstance(event, VectorInstr):
                yield event

    def scalar_blocks(self) -> Iterator[ScalarBlock]:
        for event in self.events:
            if isinstance(event, ScalarBlock):
                yield event

    def max_avl(self) -> int:
        """The largest application vector length any ``vsetvl`` requested
        (0 when none did).  At most :attr:`vlmax` means no grant was
        clamped: a kernel that sees vlmax only through ``setvl`` then
        emits these same events at every vlmax of at least this."""
        return max((event.scalar for event in self.events
                    if isinstance(event, VectorInstr)
                    and event.op == "vsetvl"), default=0)

    def with_vlmax(self, vlmax: int) -> "Trace":
        """This trace's events and buffers, shared rather than copied,
        stamped with another hardware ``vlmax``."""
        twin = Trace(self.name)
        twin.events = self.events
        twin.buffers = self.buffers
        twin.vlmax = vlmax
        return twin

    def stats(self) -> TraceStats:
        """Compute the Table IV characterisation columns for this trace."""
        stats = TraceStats()
        for event in self.events:
            if isinstance(event, ScalarBlock):
                stats.scalar_instrs += event.n_instr
                stats.dynamic_instrs += event.n_instr
                stats.total_ops += event.n_instr
                continue
            instr: VectorInstr = event
            stats.vector_instrs += 1
            stats.dynamic_instrs += 1
            category = instr.category
            stats.by_category[category] = stats.by_category.get(category, 0) + 1
            if instr.masked:
                stats.predicated += 1
            active = instr.vl
            stats.vector_ops += active
            stats.total_ops += active
            if category.is_memory:
                stats.mem_ops += active
            elif category is not Category.CTRL:
                stats.math_ops += active
        return stats

    def memory_footprint_bytes(self) -> int:
        """Total bytes touched by all memory patterns (with duplicates)."""
        total = 0
        for event in self.events:
            if isinstance(event, VectorInstr) and event.mem is not None:
                total += event.mem.total_bytes()
            elif isinstance(event, ScalarBlock):
                total += sum(a.total_bytes() for a in event.accesses)
        return total
