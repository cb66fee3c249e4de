"""Trace-level reference executor (the analyzer's ground truth).

Replays a recorded instruction sequence against an explicit register
file and memory image, reusing the *same* semantic tables the intrinsics
layer executes with (:data:`repro.isa.intrinsics.BINARY_SEMANTICS` and
friends), so the two executors cannot drift.  Two uses:

* dependence-graph validation — executing the events in any topological
  order of the :class:`~repro.analysis.depgraph.DepGraph` must leave
  bit-identical final state to program order;
* corpus cross-checks — live-out register values must match the
  ``peek()`` observations the differential fuzz harness recorded.

Semantics notes (deliberate, documented trace-level choices):

* Gathers/scatters replay the *recorded* element addresses rather than
  recomputing them from the index register; the RAW edge from the index
  definition keeps this valid under reordering.
* Reductions fold with each opcode's canonical initial value — the
  kernel-supplied ``init`` is scalar-core state the trace does not
  record — and land in :attr:`TraceReplayer.scalars` keyed by event
  index, so reduction chains are not replayed through the accumulator.
* A read beyond the producing definition's ``vl`` sees zeros (the
  ``tail-undefined`` checker warns about such reads).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..isa.instructions import VectorInstr
from ..isa.intrinsics import (BINARY_SEMANTICS, COMPARE_SEMANTICS,
                              REDUCE_SEMANTICS, wrap32, wrap32_int)
from ..isa.trace import Trace

_I32 = np.int32


class TraceReplayer:
    """Executes a trace's events against explicit state.

    ``images`` maps base byte addresses to initial int32 buffer contents
    (copied); events touching addresses outside every image raise
    :class:`~repro.errors.AnalysisError`.
    """

    def __init__(self, trace: Trace,
                 images: Optional[Dict[int, np.ndarray]] = None) -> None:
        self.trace = trace
        self.memory: List[Tuple[int, np.ndarray]] = sorted(
            (int(base), np.array(data, dtype=_I32))
            for base, data in (images or {}).items())
        self._bases = [base for base, _ in self.memory]
        self.regs: Dict[int, np.ndarray] = {}
        self.mask = np.zeros(0, dtype=bool)
        self.scalars: Dict[int, int] = {}

    @staticmethod
    def _scalar64(scalar: int) -> np.int64:
        """Scalar operand wrapped to int32 first, as one ``np.int64`` the
        semantics tables broadcast (as the intrinsics layer's
        ``_operand`` does)."""
        return np.int64(wrap32_int(scalar))

    # -- state access ------------------------------------------------------

    def _read(self, reg: int, vl: int) -> np.ndarray:
        value = self.regs.get(reg)
        if value is None:
            return np.zeros(vl, dtype=_I32)
        if len(value) >= vl:
            return value[:vl]
        padded = np.zeros(vl, dtype=_I32)
        padded[:len(value)] = value
        return padded

    def _read_mask(self, vl: int) -> np.ndarray:
        if len(self.mask) >= vl:
            return self.mask[:vl]
        padded = np.zeros(vl, dtype=bool)
        padded[:len(self.mask)] = self.mask
        return padded

    def _locate(self, addrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(buffer array, element indices) for a batch of byte addresses."""
        if addrs.size == 0:
            return np.zeros(0, dtype=_I32), np.zeros(0, dtype=np.int64)
        slot = bisect_right(self._bases, int(addrs.min())) - 1
        if slot < 0:
            raise AnalysisError(
                f"replay access below every image: {int(addrs.min()):#x}")
        base, data = self.memory[slot]
        elems = (addrs - base) // 4
        if int(elems.min()) < 0 or int(elems.max()) >= data.size:
            raise AnalysisError(
                "replay access outside its containing image "
                f"(base {base:#x}, {data.size} elements)")
        return data, elems

    def load(self, addrs: np.ndarray) -> np.ndarray:
        data, elems = self._locate(np.asarray(addrs, dtype=np.int64))
        return data[elems].copy()

    def store(self, addrs: np.ndarray, values: np.ndarray) -> None:
        data, elems = self._locate(np.asarray(addrs, dtype=np.int64))
        data[elems] = values

    # -- execution ----------------------------------------------------------

    def run(self, order: Optional[Sequence[int]] = None) -> "TraceReplayer":
        """Execute the events (by index) in ``order``; defaults to program
        order.  Returns ``self`` for chaining into :meth:`snapshot`."""
        events = self.trace.events
        indices: Iterable[int] = (order if order is not None
                                  else range(len(events)))
        for index in indices:
            event = events[index]
            if isinstance(event, VectorInstr):
                self._execute(index, event)
        return self

    def _execute(self, index: int, instr: VectorInstr) -> None:
        op, vl = instr.op, instr.vl
        if op in ("vsetvl", "vmfence"):
            return
        if op in BINARY_SEMANTICS:
            a = self._read(instr.vs1, vl).astype(np.int64)
            b = (self._read(instr.vs2, vl).astype(np.int64)
                 if instr.vs2 >= 0 else self._scalar64(instr.scalar))
            result = wrap32(BINARY_SEMANTICS[op](a, b))
            if instr.masked:
                keep = (self._read(instr.vold, vl) if instr.vold >= 0
                        else np.zeros(vl, dtype=_I32))
                result = np.where(self._read_mask(vl), result, keep)
            self.regs[instr.vd] = result
            return
        if op in COMPARE_SEMANTICS:
            a = self._read(instr.vs1, vl).astype(np.int64)
            b = (self._read(instr.vs2, vl).astype(np.int64)
                 if instr.vs2 >= 0 else self._scalar64(instr.scalar))
            self.mask = COMPARE_SEMANTICS[op](a, b)
            return
        if op in REDUCE_SEMANTICS:
            values = self._read(instr.vs1, vl).astype(np.int64)
            if instr.masked:
                values = values[self._read_mask(vl)]
            init, fold = REDUCE_SEMANTICS[op]
            self.scalars[index] = wrap32_int(fold(values, init))
            return
        handler = getattr(self, "_op_" + op.replace(".", "_"), None)
        if handler is None:
            raise AnalysisError(f"replayer does not implement {op!r}")
        handler(index, instr)

    # -- memory ops ---------------------------------------------------------

    def _load_op(self, instr: VectorInstr) -> None:
        self.regs[instr.vd] = self.load(instr.mem.element_addresses())

    _op_vle32 = _op_vlse32 = _op_vluxei32 = (
        lambda self, index, instr: self._load_op(instr))

    def _op_vse32(self, index: int, instr: VectorInstr) -> None:
        addrs = instr.mem.element_addresses()
        values = self._read(instr.vd, len(addrs))
        if instr.masked:
            mask = self._read_mask(len(addrs))
            addrs, values = addrs[mask], values[mask]
        self.store(addrs, values)

    def _op_vsse32(self, index: int, instr: VectorInstr) -> None:
        addrs = instr.mem.element_addresses()
        self.store(addrs, self._read(instr.vd, len(addrs)))

    _op_vsuxei32 = _op_vsse32

    # -- moves, permutes, ramps ---------------------------------------------

    def _op_vmv(self, index: int, instr: VectorInstr) -> None:
        if instr.vs1 >= 0:
            self.regs[instr.vd] = self._read(instr.vs1, instr.vl).copy()
        else:
            self.regs[instr.vd] = np.full(instr.vl, wrap32_int(instr.scalar),
                                          dtype=_I32)

    def _op_vid(self, index: int, instr: VectorInstr) -> None:
        base = self._read(instr.vs1, instr.vl).astype(np.int64)
        ramp = base + np.arange(instr.vl, dtype=np.int64) * instr.scalar
        self.regs[instr.vd] = wrap32(ramp)

    def _op_vmerge(self, index: int, instr: VectorInstr) -> None:
        vl = instr.vl
        a = self._read(instr.vs1, vl)
        b = (self._read(instr.vs2, vl) if instr.vs2 >= 0
             else self._scalar64(instr.scalar).astype(_I32))
        self.regs[instr.vd] = np.where(self._read_mask(vl), a, b)

    def _op_vrgather(self, index: int, instr: VectorInstr) -> None:
        vl = instr.vl
        a = self._read(instr.vs1, vl)
        idx = self._read(instr.vs2, vl).astype(np.int64)
        in_range = (idx >= 0) & (idx < vl)
        self.regs[instr.vd] = np.where(
            in_range, a[np.clip(idx, 0, vl - 1)], 0).astype(_I32)

    def _op_vslidedown(self, index: int, instr: VectorInstr) -> None:
        vl, offset = instr.vl, instr.scalar
        result = np.zeros(vl, dtype=_I32)
        if offset < vl:
            result[:vl - offset] = self._read(instr.vs1, vl)[offset:]
        self.regs[instr.vd] = result

    def _op_vslideup(self, index: int, instr: VectorInstr) -> None:
        vl, offset = instr.vl, instr.scalar
        result = (self._read(instr.vold, vl).copy() if instr.vold >= 0
                  else np.zeros(vl, dtype=_I32))
        if offset < vl:
            result[offset:] = self._read(instr.vs1, vl)[:vl - offset]
        self.regs[instr.vd] = result

    def _op_vmv_x_s(self, index: int, instr: VectorInstr) -> None:
        self.scalars[index] = int(self._read(instr.vs1, 1)[0])

    def _op_vmv_s_x(self, index: int, instr: VectorInstr) -> None:
        result = np.zeros(instr.vl, dtype=_I32)
        if instr.vl:
            result[0] = wrap32_int(instr.scalar)
        self.regs[instr.vd] = result

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Hashable-comparable final state: registers, mask, memory,
        scalar results.  Two snapshots compare equal iff the replayed
        executions were bit-identical."""
        return {
            "regs": {reg: value.tobytes()
                     for reg, value in self.regs.items()},
            "mask": self.mask.tobytes(),
            "memory": {base: data.tobytes() for base, data in self.memory},
            "scalars": dict(self.scalars),
        }
