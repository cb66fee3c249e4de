"""Trace events: vector instructions, scalar blocks, and memory patterns.

A workload trace is a sequence of :class:`VectorInstr` and
:class:`ScalarBlock` events. Memory-touching events carry a compact
:class:`MemAccess` pattern (base + stride + count, or an explicit address
vector for gathers/scatters) that machine models expand to cache-line
requests; this keeps traces small while driving a real cache simulator.

The three are immutable records backed by a tuple: each is a
``__slots__ = ()`` subclass of a :func:`collections.namedtuple`, because
a trace build makes one per event and a tuple is built in one call,
where a frozen dataclass pays an ``object.__setattr__`` per field.  A
record's ``__new__`` runs its validations, and a record pickles as its
constructor arguments (``__getnewargs__``), so unpickling validates
again.  A :class:`VectorInstr` resolves its opcode facts once, when it
is built: ``info``, ``category``, ``sources`` and ``dest`` are fields,
read per event by the timing loops, the trace compiler and the analyzer.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import IsaError
from .opcodes import OPCODES, Category

LINE_BYTES = 64

_new_record = tuple.__new__


class MemAccess(namedtuple("MemAccess", ("base", "stride", "count",
                                         "elem_bytes", "is_store",
                                         "addresses"))):
    """A compact description of the addresses one instruction touches.

    Either a (base, stride, count) arithmetic pattern, or an explicit
    ``addresses`` vector for indexed accesses. ``elem_bytes`` is the access
    granularity (always 4 for the 32-bit integer ISA).
    """

    __slots__ = ()

    def __new__(cls, base: int = 0, stride: int = 0, count: int = 0,
                elem_bytes: int = 4, is_store: bool = False,
                addresses: Optional[np.ndarray] = None) -> "MemAccess":
        if addresses is None:
            if stride == 0 and count > 1:
                raise IsaError("strided pattern with zero stride and count > 1")
            if count > 0 and (base < 0 or base + stride * (count - 1) < 0):
                raise IsaError("strided pattern reaches below address 0")
        else:
            addrs = np.asarray(addresses)
            if not np.issubdtype(addrs.dtype, np.integer):
                raise IsaError(
                    f"gather/scatter addresses must be integers "
                    f"(got dtype {addrs.dtype})")
            if addrs.size and int(addrs.min()) < 0:
                raise IsaError("gather/scatter addresses must be non-negative")
        return _new_record(cls, (base, stride, count, elem_bytes, is_store,
                                 addresses))

    @property
    def num_accesses(self) -> int:
        if self.addresses is not None:
            return int(len(self.addresses))
        return self.count

    def element_addresses(self) -> np.ndarray:
        """Byte address of every element access."""
        if self.addresses is not None:
            return np.asarray(self.addresses, dtype=np.int64)
        return self.base + self.stride * np.arange(self.count, dtype=np.int64)

    def line_addresses(self) -> np.ndarray:
        """Unique cache-line addresses, in first-touch order.

        :meth:`request_lines` derives an arithmetic pattern's list
        without it; the tests hold the two equal."""
        lines = self.element_addresses() // LINE_BYTES
        # np.unique sorts; preserve first-touch order for realistic streams.
        _, first = np.unique(lines, return_index=True)
        return lines[np.sort(first)] * LINE_BYTES

    def request_lines(self, per_element: bool) -> Sequence[int]:
        """The cache-line request stream a machine issues for this
        pattern, as plain ints in an immutable sequence: a ``range`` for
        an arithmetic run of lines, a ``tuple`` otherwise.

        ``per_element`` (strided and indexed accesses) issues one request
        per element at the line its address falls in, duplicates kept:
        each element is a request.  Otherwise one request per distinct
        line, in first-touch order (:meth:`line_addresses`).  The trace
        compiler's hoisted lists come from here, so every machine
        streams the same requests.

        Only an explicit address vector needs ``np.unique`` to find its
        distinct lines.  An arithmetic pattern's are written down
        directly: with ``|stride| < LINE_BYTES`` consecutive elements
        never skip a line, so they are the run of lines from the first
        element's to the last element's (descending for a negative
        stride); with ``|stride| >= LINE_BYTES`` every element has a
        line of its own, so they are the per-element list.

        CPython's cyclic collector never tracks a ``range`` and stops
        tracking a tuple of ints at its first collection, so a compiled
        trace's request lines cost the collector nothing on later
        passes, where lists would be traversed again at every full
        collection.
        """
        if self.addresses is not None and not per_element:
            return tuple(self.line_addresses().tolist())
        if per_element or abs(self.stride) >= LINE_BYTES:
            return tuple((self.element_addresses() // LINE_BYTES
                          * LINE_BYTES).tolist())
        if self.count == 0:
            return ()
        first = self.base // LINE_BYTES * LINE_BYTES
        last = (self.base + self.stride * (self.count - 1)) \
            // LINE_BYTES * LINE_BYTES
        step = -LINE_BYTES if self.stride < 0 else LINE_BYTES
        return range(first, last + step, step)

    def total_bytes(self) -> int:
        return self.num_accesses * self.elem_bytes


#: Per opcode: its info and category, whether it is a store, and
#: whether it writes a vector register (neither a store nor a scalar
#: writer).
_OPCODE_FACTS = {name: (info, info.category, info.is_store,
                        not (info.is_store or info.writes_scalar))
                 for name, info in OPCODES.items()}

#: The constructor arguments of a :class:`VectorInstr`, in order.
_VECTOR_ARGS = ("op", "vl", "vd", "vs1", "vs2", "scalar", "masked", "mem",
                "vidx", "vold")
_N_ARGS = len(_VECTOR_ARGS)


class VectorInstr(namedtuple("VectorInstr", _VECTOR_ARGS + (
        "info", "category", "sources", "dest"))):
    """One dynamic vector instruction in a trace.

    Built from ``op``, ``vl`` and the operand fields; the last four
    fields are the opcode facts ``__new__`` resolves from them:

    * ``info`` — the opcode's :class:`~repro.isa.opcodes.OpInfo`;
    * ``category`` — its Table IV :class:`~repro.isa.opcodes.Category`;
    * ``sources`` — the registers the timing scoreboards wait on:
      ``vs1``, ``vs2`` and ``vidx`` when set, plus a store's data
      register ``vd``;
    * ``dest`` — the vector register written, ``-1`` for stores and
      scalar writers.

    ``scalar`` is the scalar operand (shift amounts, vx forms, slide
    offsets).  ``vidx`` is the index register of an indexed memory op.
    ``vold`` is the merge-old register of a masked op or ``vslideup``:
    lanes the instruction does not produce are taken from it.  It is
    deliberately NOT one of the :attr:`sources`: the timing models treat
    the merge as part of the writeback, so dependence chains (and cycle
    counts) ignore it; the static analyzer reads it via :attr:`reads`.
    """

    __slots__ = ()

    def __new__(cls, op: str, vl: int, vd: int = -1, vs1: int = -1,
                vs2: int = -1, scalar: int = 0, masked: bool = False,
                mem: Optional[MemAccess] = None, vidx: int = -1,
                vold: int = -1) -> "VectorInstr":
        try:
            info, category, is_store, has_dest = _OPCODE_FACTS[op]
        except KeyError:
            raise IsaError(f"unknown vector opcode {op!r}") from None
        if mem is None and category.is_memory:
            raise IsaError(f"memory instruction {op} missing MemAccess")
        if vl < 0:
            raise IsaError("vector length must be non-negative")
        sources = (((vs1,) if vs1 >= 0 else ())
                   + ((vs2,) if vs2 >= 0 else ())
                   + ((vidx,) if vidx >= 0 else ()))
        if is_store and vd >= 0:
            sources += (vd,)  # stores read their "destination" register
        return _new_record(cls, (op, vl, vd, vs1, vs2, scalar, masked, mem,
                                 vidx, vold, info, category, sources,
                                 vd if has_dest else -1))

    def __getnewargs__(self) -> tuple:
        return self[:_N_ARGS]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(_VECTOR_ARGS, self))
        return f"VectorInstr({fields})"

    @property
    def per_element(self) -> bool:
        """Strided and indexed memory ops issue one request per element
        (see :meth:`MemAccess.request_lines`)."""
        return self.category in (Category.MEM_STRIDE, Category.MEM_INDEX)

    @property
    def reads(self) -> Tuple[int, ...]:
        """Every register whose *value* this instruction consumes.

        Superset of :attr:`sources`: adds the merge-old register and, for
        masked instructions, the v0 predicate.  The static analyzer uses
        this; the timing scoreboards keep using :attr:`sources` so cycle
        accounting is unchanged.
        """
        regs = list(self.sources)
        if self.vold >= 0:
            regs.append(self.vold)
        if self.masked:
            regs.append(0)
        return tuple(regs)


class ScalarBlock(namedtuple("ScalarBlock", ("n_instr", "accesses"))):
    """A block of scalar instructions between vector instructions.

    ``n_instr`` counts all scalar instructions in the block; ``accesses``
    describes its memory traffic as patterns that machine models expand to
    cache-line requests.
    """

    __slots__ = ()

    def __new__(cls, n_instr: int,
                accesses: Tuple[MemAccess, ...] = ()) -> "ScalarBlock":
        if n_instr < 0:
            raise IsaError("scalar block size must be non-negative")
        return _new_record(cls, (n_instr, accesses))

    @property
    def n_mem(self) -> int:
        return sum(a.num_accesses for a in self.accesses)
