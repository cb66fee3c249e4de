"""Columnar view of a trace: the analysis passes' shared substrate.

The checker suite must stay a few percent of trace-build time so strict
mode can run on every freshly built trace.  Per-event Python property
walks (``instr.reads`` builds a tuple per instruction) are too slow for
that, so this module lowers the whole trace into numpy columns in one
pass — opcode ids, operand registers, vector lengths — and derives the
def-use facts with array operations:

* reaching definitions via a key-sorted ``searchsorted`` (register ×
  event-index keys make "latest def of r strictly before i" a binary
  search);
* use counts / last uses per definition via ``bincount`` / ``maximum.at``;
* kill sites and live-out sets from the reg-major def ordering;
* the ``vl`` state machine via ``searchsorted`` over vsetvl sites.

Everything downstream (checkers, DepGraph construction) reads these
arrays instead of the event objects.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..isa.instructions import MemAccess, ScalarBlock, VectorInstr
from ..isa.opcodes import OPCODES
from ..isa.trace import Trace

#: Stable opcode -> small-int id (table order).
OP_ID: Dict[str, int] = {name: i for i, name in enumerate(OPCODES)}
OP_NAME: List[str] = list(OPCODES)

_I = np.int64


def _flag_table(attr: str) -> np.ndarray:
    return np.array([getattr(info, attr) for info in OPCODES.values()],
                    dtype=bool)


IS_STORE = _flag_table("is_store")
IS_LOAD = _flag_table("is_load")
IS_REDUCTION = _flag_table("is_reduction")
WRITES_SCALAR = _flag_table("writes_scalar")
IS_MEMORY = np.array([info.category.is_memory for info in OPCODES.values()],
                     dtype=bool)

SETVL = OP_ID["vsetvl"]
FENCE = OP_ID["vmfence"]
VMV_X_S = OP_ID["vmv.x.s"]
VMV_S_X = OP_ID["vmv.s.x"]

#: Use-slot codes: which operand position a (use, reg) record came from.
SLOT_VS1, SLOT_VS2, SLOT_VIDX, SLOT_STORE, SLOT_VOLD, SLOT_MASK = range(6)


class TraceColumns:
    """One trace lowered to arrays; all fields are program-order parallel
    over the *vector* instructions (``row`` indexes them; ``self.index``
    maps rows back to event indices within the full event list)."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.n_events = len(trace.events)
        index, op_id, vl, vd, vs1, vs2, vidx, vold, masked, scalar = \
            [], [], [], [], [], [], [], [], [], []
        mem_rows: List[Tuple[int, MemAccess]] = []
        # Bound-method locals halve the extraction loop's cost (it is the
        # single largest slice of check_trace's strict-mode budget).
        ap_index, ap_op, ap_vl, ap_vd = (index.append, op_id.append,
                                         vl.append, vd.append)
        ap_vs1, ap_vs2, ap_vidx, ap_vold = (vs1.append, vs2.append,
                                            vidx.append, vold.append)
        ap_masked, ap_scalar, ap_mem = (masked.append, scalar.append,
                                        mem_rows.append)
        op_table = OP_ID
        for i, e in enumerate(trace.events):
            if type(e) is VectorInstr:
                ap_index(i)
                ap_op(op_table[e.op])
                ap_vl(e.vl)
                ap_vd(e.vd)
                ap_vs1(e.vs1)
                ap_vs2(e.vs2)
                ap_vidx(e.vidx)
                ap_vold(e.vold)
                ap_masked(e.masked)
                ap_scalar(e.scalar)
                if e.mem is not None:
                    ap_mem((i, e.mem))
            elif type(e) is ScalarBlock:
                for access in e.accesses:
                    ap_mem((i, access))
        self.index = np.array(index, dtype=_I)
        self.op_id = np.array(op_id, dtype=_I)
        self.vl = np.array(vl, dtype=_I)
        self.vd = np.array(vd, dtype=_I)
        self.vs1 = np.array(vs1, dtype=_I)
        self.vs2 = np.array(vs2, dtype=_I)
        self.vidx = np.array(vidx, dtype=_I)
        self.vold = np.array(vold, dtype=_I)
        self.masked = np.array(masked, dtype=bool)
        self.scalar = np.array(scalar, dtype=_I)
        #: (event index, MemAccess) for every memory access, program order.
        self.mem_rows = mem_rows

        self.is_store = IS_STORE[self.op_id]
        self.is_reduction = IS_REDUCTION[self.op_id]
        #: Destination register (-1 for stores and scalar writers).
        self.dest = np.where(self.is_store | WRITES_SCALAR[self.op_id],
                             -1, self.vd)
        self._build_defs_uses()
        self._build_vl_state()

    # -- defs, uses, reaching bindings -------------------------------------

    def _build_defs_uses(self) -> None:
        n = max(self.n_events, 1)
        defining = self.dest >= 0
        #: Per definition (program order): event index, register, vl, op.
        self.def_event = self.index[defining]
        self.def_reg = self.dest[defining]
        self.def_vl = self.vl[defining]
        self.def_op_id = self.op_id[defining]

        order = np.argsort(self.def_reg * n + self.def_event, kind="stable")
        self._def_order = order
        self._def_keys = (self.def_reg * n + self.def_event)[order]
        #: Defs in (register, event) order — consecutive same-register
        #: entries are redefinition (WAW) pairs.
        self.def_sorted_reg = self.def_reg[order]
        self.def_sorted_event = self.def_event[order]
        #: Event index of the next def of the same register, -1 = live-out.
        killed_sorted = np.full(len(order), -1, dtype=_I)
        if len(order) > 1:
            same = self.def_sorted_reg[1:] == self.def_sorted_reg[:-1]
            killed_sorted[:-1][same] = self.def_sorted_event[1:][same]
        self.def_killed_by = np.empty(len(order), dtype=_I)
        self.def_killed_by[order] = killed_sorted
        self._live_out_def_pos = order[killed_sorted < 0]

        # Use records: one per (instruction, operand-slot) register read.
        rows, regs, slots = [], [], []
        for slot, (sel, reg) in enumerate((
                (self.vs1 >= 0, self.vs1),
                (self.vs2 >= 0, self.vs2),
                (self.vidx >= 0, self.vidx),
                (self.is_store & (self.vd >= 0), self.vd),
                (self.vold >= 0, self.vold),
                (self.masked, np.zeros_like(self.vs1)))):
            picked = np.nonzero(sel)[0]
            rows.append(picked)
            regs.append(reg[picked])
            slots.append(np.full(len(picked), slot, dtype=_I))
        self.use_row = np.concatenate(rows)
        self.use_reg = np.concatenate(regs)
        self.use_slot = np.concatenate(slots)
        self.use_event = self.index[self.use_row]

        # Bind each use to its reaching definition (or -1 if none): the
        # greatest def key strictly below reg*n + event is the latest def
        # of that register before the use.
        pos = np.searchsorted(self._def_keys, self.use_reg * n
                              + self.use_event, side="left") - 1
        if len(order):
            in_range = pos >= 0
            bound_sorted = np.where(in_range, pos, 0)
            valid = in_range & (self.def_sorted_reg[bound_sorted]
                                == self.use_reg)
            #: Per use: index into the def arrays, -1 when uninitialized.
            self.use_def = np.where(valid, order[bound_sorted], -1)
        else:
            valid = np.zeros(len(self.use_row), dtype=bool)
            self.use_def = np.full(len(self.use_row), -1, dtype=_I)

        self.def_use_count = np.bincount(
            self.use_def[valid], minlength=len(self.def_event)).astype(_I)
        self.def_last_use = np.full(len(self.def_event), -1, dtype=_I)
        np.maximum.at(self.def_last_use, self.use_def[valid],
                      self.use_event[valid])

    # -- vl state -----------------------------------------------------------

    def _build_vl_state(self) -> None:
        setvl_rows = np.nonzero(self.op_id == SETVL)[0]
        self.setvl_event = self.index[setvl_rows]
        self.setvl_vl = self.vl[setvl_rows]
        self.setvl_avl = self.scalar[setvl_rows]
        #: Per row: event index of the governing vsetvl (-1 = none yet)
        #: and the vl it granted (0 before the first vsetvl).  For vsetvl
        #: rows these describe the *previous* grant.
        if len(self.setvl_event):
            slot = np.searchsorted(self.setvl_event, self.index,
                                   side="left") - 1
            governed = slot >= 0
            clamped = np.where(governed, slot, 0)
            self.vl_setter = np.where(governed, self.setvl_event[clamped], -1)
            self.vl_granted = np.where(governed, self.setvl_vl[clamped], 0)
        else:
            self.vl_setter = np.full(len(self.index), -1, dtype=_I)
            self.vl_granted = np.zeros(len(self.index), dtype=_I)

    # -- derived summaries ---------------------------------------------------

    def fence_events(self) -> List[int]:
        """Event indices of every ``vmfence``, program order."""
        return self.index[self.op_id == FENCE].tolist()

    def dead_def_positions(self) -> np.ndarray:
        """Defs never used and later overwritten (true dead writes)."""
        return np.nonzero((self.def_use_count == 0)
                          & (self.def_killed_by >= 0))[0]

    def live_out(self) -> Dict[int, int]:
        """Register -> def position of the value live at trace end."""
        return {int(self.def_reg[pos]): int(pos)
                for pos in self._live_out_def_pos}

    def live_high_water(self) -> int:
        """Max simultaneously live values (def-to-last-use interval sweep).

        A value occupies its register through its last use (+1 so a
        same-instruction def of another register overlaps it); live-out
        values extend to trace end; dead writes contribute nothing.
        """
        live_out = self.def_killed_by < 0
        used = self.def_use_count > 0
        keep = live_out | used
        if not keep.any():
            return 0
        start = self.def_event[keep]
        end = np.where(live_out[keep], self.n_events,
                       self.def_last_use[keep] + 1)
        delta = np.zeros(self.n_events + 2, dtype=_I)
        np.add.at(delta, start, 1)
        np.add.at(delta, end, -1)
        return int(np.cumsum(delta).max())
