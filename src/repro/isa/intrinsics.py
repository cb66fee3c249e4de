"""Vector intrinsics: functional execution + trace emission in one pass.

Workloads are written once against :class:`VectorContext`. Every intrinsic

* computes the numerically-correct result with numpy (full 32-bit two's
  complement wrap-around semantics), and
* appends the corresponding :class:`~repro.isa.instructions.VectorInstr`
  to the context's trace.

This mirrors the paper's methodology of separating function from timing:
machine models replay the emitted trace for cycles while correctness is
checked against the functional results.

The elementwise opcode semantics live in module-level tables
(:data:`BINARY_SEMANTICS`, :data:`COMPARE_SEMANTICS`) shared with the
static analyzer's trace replayer (``repro.analysis.replay``), so the two
executors can never drift.
"""

from __future__ import annotations

import functools
import heapq
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import IsaError
from .instructions import MemAccess, ScalarBlock, VectorInstr
from .memory import Buffer, VirtualMemory
from .trace import Trace

_I32 = np.int32
_MASK32 = 0xFFFFFFFF

I32_MIN, I32_MAX = -(2 ** 31), 2 ** 31 - 1


def wrap32(values: np.ndarray) -> np.ndarray:
    """Wrap an integer array to signed 32-bit two's complement.

    One cast: NumPy's int64 -> int32 ``astype`` keeps the low 32 bits,
    which read as two's complement are the wrapped value."""
    return np.asarray(values, dtype=np.int64).astype(_I32)


def wrap32_int(value: int) -> int:
    """:func:`wrap32` of one integer, as a Python ``int``."""
    return ((int(value) + 0x8000_0000) & _MASK32) - 0x8000_0000


def _signed_div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # RVV semantics: x / 0 = -1; truncation toward zero.
    quotient = np.where(y == 0, -1, np.sign(x) * np.sign(np.where(y == 0, 1, y))
                        * (np.abs(x) // np.abs(np.where(y == 0, 1, y))))
    return quotient


def _signed_rem(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # RVV semantics: x % 0 = x; sign of the remainder follows the dividend.
    safe = np.where(y == 0, 1, y)
    rem = np.sign(x) * (np.abs(x) % np.abs(safe))
    return np.where(y == 0, x, rem)


#: Elementwise semantics per binary opcode.  Operands arrive as int64 (so
#: products and shifted values never overflow before :func:`wrap32`); the
#: result is wrapped to int32 by the caller.
BINARY_SEMANTICS = {
    "vadd": lambda x, y: x + y,
    "vsub": lambda x, y: x - y,
    "vrsub": lambda x, y: y - x,
    "vand": lambda x, y: x & y,
    "vor": lambda x, y: x | y,
    "vxor": lambda x, y: x ^ y,
    "vnot": lambda x, y: ~x,
    "vsll": lambda x, y: x << (y & 31),
    "vsrl": lambda x, y: (x & _MASK32) >> (y & 31),
    "vsra": lambda x, y: x >> (y & 31),
    "vmin": np.minimum,
    "vmax": np.maximum,
    "vminu": lambda x, y: np.minimum(x & _MASK32, y & _MASK32),
    "vmaxu": lambda x, y: np.maximum(x & _MASK32, y & _MASK32),
    "vsadd": lambda x, y: np.clip(x + y, I32_MIN, I32_MAX),
    "vssub": lambda x, y: np.clip(x - y, I32_MIN, I32_MAX),
    "vsaddu": lambda x, y: np.minimum((x & _MASK32) + (y & _MASK32), _MASK32),
    "vssubu": lambda x, y: np.maximum((x & _MASK32) - (y & _MASK32), 0),
    "vmul": lambda x, y: x * y,
    "vmulh": lambda x, y: (x * y) >> 32,
    "vmulhu": lambda x, y: ((x & _MASK32) * (y & _MASK32)) >> 32,
    "vdiv": _signed_div,
    "vrem": _signed_rem,
    "vdivu": lambda x, y: np.where(y == 0, _MASK32,
                                   (x & _MASK32) // np.where(y == 0, 1, y & _MASK32)),
    "vremu": lambda x, y: np.where(y == 0, x & _MASK32,
                                   (x & _MASK32) % np.where(y == 0, 1, y & _MASK32)),
}

#: Elementwise semantics per compare opcode (result is a boolean mask).
COMPARE_SEMANTICS = {
    "vmseq": lambda x, y: x == y,
    "vmsne": lambda x, y: x != y,
    "vmslt": lambda x, y: x < y,
    "vmsle": lambda x, y: x <= y,
    "vmsgt": lambda x, y: x > y,
    "vmsge": lambda x, y: x >= y,
}

#: (initial value, fold) per reduction opcode; the fold consumes an int64
#: array plus the scalar accumulator.  These are the *default* inits — a
#: kernel-supplied ``init`` is a scalar-core input the trace does not
#: record, which is why the analyzer treats reduction results as opaque
#: scalars rather than replaying accumulator chains.
REDUCE_SEMANTICS = {
    "vredsum": (0, lambda v, i: v.sum() + i),
    "vredmax": (I32_MIN, lambda v, i: max(v.max(initial=i), i)),
    "vredmin": (I32_MAX, lambda v, i: min(v.min(initial=i), i)),
    "vredand": (-1, lambda v, i: int(np.bitwise_and.reduce(v, initial=i))),
    "vredor": (0, lambda v, i: int(np.bitwise_or.reduce(v, initial=i))),
    "vredxor": (0, lambda v, i: int(np.bitwise_xor.reduce(v, initial=i))),
}


class Vec:
    """A vector value: an int32 numpy array bound to a register id.

    When a :class:`VectorContext` allocates the register, it passes an
    ``on_free`` callback so the register returns to the free pool when
    the value is garbage-collected — i.e. strictly after its last use in
    the kernel, which keeps trace register ids faithful to dataflow.
    """

    __slots__ = ("reg", "values", "_on_free")

    def __init__(self, reg: int, values: np.ndarray, on_free=None) -> None:
        self.reg = reg
        self.values = np.ascontiguousarray(values, dtype=_I32)
        self._on_free = on_free

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Vec(v{self.reg}, len={len(self.values)})"

    def __del__(self) -> None:
        callback = self._on_free
        if callback is not None:
            callback(self.reg)


class Mask:
    """A predicate value: a boolean numpy array (lives in v0, as in RVV)."""

    __slots__ = ("values",)

    reg = 0

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.ascontiguousarray(values, dtype=bool)

    def __len__(self) -> int:
        return len(self.values)

    def count(self) -> int:
        return int(self.values.sum())


Operand = Union[Vec, int, np.integer]


class VectorContext:
    """Functional + trace-emitting execution context for one kernel.

    ``vlmax`` is the hardware maximum vector length granted by ``setvl``;
    running the same kernel with different ``vlmax`` values reproduces the
    strip-mining behaviour of RVV binaries on machines with different
    hardware vector lengths.
    """

    #: v0 is the mask register; values live in v1 upward.
    _FIRST_REG = 1
    #: Architectural register count; kernels keeping more than 31 values
    #: live spill into virtual ids above this (machine models only consume
    #: dependence structure, so ids > 31 stay harmless).
    _LAST_REG = 31

    # Kept as class attributes for callers that reach them via the class.
    I32_MIN, I32_MAX = I32_MIN, I32_MAX

    def __init__(self, vlmax: int, name: str = "kernel") -> None:
        if vlmax <= 0:
            raise IsaError("vlmax must be positive")
        self.vlmax = int(vlmax)
        self.vm = VirtualMemory()
        self.trace = Trace(name)
        self.vl = 0
        self._next_reg = self._FIRST_REG
        self._free_regs: List[int] = []
        #: Returns a register to the free pool: every :class:`Vec` this
        #: context allocates calls it when it is garbage-collected.
        self._release_reg = functools.partial(heapq.heappush,
                                              self._free_regs)

    # -- bookkeeping ----------------------------------------------------

    def _alloc_reg(self) -> int:
        """Lowest released register, or a fresh one.

        Registers return to the pool only when the owning :class:`Vec` is
        garbage-collected (strictly after its last use), so a live value's
        register is never recycled out from under it.  The old round-robin
        allocator could do exactly that when a kernel kept a value live
        across more than 31 allocations (k-means' best-distance tracking),
        silently corrupting the trace's dataflow.
        """
        if self._free_regs:
            return heapq.heappop(self._free_regs)
        reg = self._next_reg
        self._next_reg += 1
        return reg

    def _new_vec(self, values: np.ndarray) -> Vec:
        return Vec(self._alloc_reg(), values, self._release_reg)

    def _emit(self, instr: VectorInstr) -> None:
        self.trace.events.append(instr)

    def finalize_trace(self) -> Trace:
        """Stamp the trace with its analysis metadata and return it.

        Attaches the hardware ``vlmax`` and the buffer layout (name ->
        (base, size_bytes)) so the static analyzer can check vsetvl use
        and memory footprints without re-running the kernel.
        """
        self.trace.vlmax = self.vlmax
        self.trace.buffers = {name: (buf.base, buf.size_bytes)
                              for name, buf in self.vm.buffers.items()}
        return self.trace

    def _check_vl(self, *vecs: Union[Vec, Mask]) -> int:
        if self.vl <= 0:
            raise IsaError("setvl must be called before vector operations")
        for vec in vecs:
            if len(vec.values) != self.vl:
                raise IsaError(
                    f"operand length {len(vec)} does not match vl {self.vl}"
                )
        return self.vl

    @staticmethod
    def _operand(value: Operand) -> Tuple[Union[np.ndarray, np.int64], int, int]:
        """Return (values, source register, scalar immediate) for an
        operand: a vector's lanes, or a scalar wrapped to int32 as one
        ``np.int64`` that the semantics tables broadcast."""
        if isinstance(value, Vec):
            return value.values, value.reg, 0
        scalar = int(value)
        return np.int64(wrap32_int(scalar)), -1, scalar

    def peek(self, value: Union[Vec, Mask]) -> np.ndarray:
        """Current value of a vector or mask as a fresh integer array.

        Observation port shared with
        :meth:`repro.core.EveFunctionalEngine.peek`, so the differential
        fuzzer reads both execution contexts through one protocol.
        """
        return np.asarray(value.values, dtype=np.int64).copy()

    # -- control ----------------------------------------------------------

    def setvl(self, avl: int) -> int:
        """Request an application vector length; returns the granted vl."""
        if avl < 0:
            raise IsaError("avl must be non-negative")
        self.vl = min(int(avl), self.vlmax)
        self._emit(VectorInstr(op="vsetvl", vl=self.vl, scalar=int(avl)))
        return self.vl

    def vmfence(self) -> None:
        """Scalar/vector memory fence (Section V-A)."""
        self._emit(VectorInstr(op="vmfence", vl=0))

    def scalar(self, n_instr: int, accesses: Sequence[MemAccess] = ()) -> None:
        """Record a block of scalar bookkeeping instructions."""
        self.trace.append(ScalarBlock(n_instr=int(n_instr), accesses=tuple(accesses)))

    # -- memory -----------------------------------------------------------

    def vle32(self, buf: Buffer, offset: int = 0) -> Vec:
        """Unit-stride load of ``vl`` elements starting at ``offset``."""
        vl = self._check_vl()
        values = buf.data[offset:offset + vl]
        if len(values) != vl:
            raise IsaError(f"unit-stride load of {vl} elements overruns {buf.name!r}")
        vec = self._new_vec(values.copy())
        self._emit(VectorInstr(
            op="vle32", vl=vl, vd=vec.reg,
            mem=MemAccess(base=buf.addr_of(offset), stride=4, count=vl),
        ))
        return vec

    def vse32(self, vec: Vec, buf: Buffer, offset: int = 0,
              mask: Optional[Mask] = None) -> None:
        """Unit-stride store of ``vec`` starting at ``offset``."""
        vl = self._check_vl(vec, *( (mask,) if mask else () ))
        target = buf.data[offset:offset + vl]
        if len(target) != vl:
            raise IsaError(f"unit-stride store of {vl} elements overruns {buf.name!r}")
        if mask is None:
            target[:] = vec.values
        else:
            np.copyto(target, vec.values, where=mask.values)
        self._emit(VectorInstr(
            op="vse32", vl=vl, vd=vec.reg, masked=mask is not None,
            mem=MemAccess(base=buf.addr_of(offset), stride=4, count=vl, is_store=True),
        ))

    def vlse32(self, buf: Buffer, offset: int, stride_elems: int) -> Vec:
        """Constant-stride load (stride given in elements)."""
        vl = self._check_vl()
        if stride_elems <= 0:
            raise IsaError("stride must be positive")
        last = offset + stride_elems * (vl - 1)
        if last >= buf.data.size:
            raise IsaError(f"strided load overruns {buf.name!r}")
        values = buf.data[offset:last + 1:stride_elems].copy()
        vec = self._new_vec(values)
        self._emit(VectorInstr(
            op="vlse32", vl=vl, vd=vec.reg,
            mem=MemAccess(base=buf.addr_of(offset), stride=4 * stride_elems, count=vl),
        ))
        return vec

    def vsse32(self, vec: Vec, buf: Buffer, offset: int, stride_elems: int) -> None:
        """Constant-stride store (stride given in elements)."""
        vl = self._check_vl(vec)
        if stride_elems <= 0:
            raise IsaError("stride must be positive")
        last = offset + stride_elems * (vl - 1)
        if last >= buf.data.size:
            raise IsaError(f"strided store overruns {buf.name!r}")
        buf.data[offset:last + 1:stride_elems] = vec.values
        self._emit(VectorInstr(
            op="vsse32", vl=vl, vd=vec.reg,
            mem=MemAccess(base=buf.addr_of(offset), stride=4 * stride_elems,
                          count=vl, is_store=True),
        ))

    def vluxei32(self, buf: Buffer, index: Vec) -> Vec:
        """Indexed gather: loads ``buf[index[i]]`` (indices in elements)."""
        vl = self._check_vl(index)
        idx = index.values.astype(np.int64)
        if idx.min(initial=0) < 0 or (vl and idx.max() >= buf.data.size):
            raise IsaError(f"gather index out of range for {buf.name!r}")
        values = buf.data[idx]
        vec = self._new_vec(values)
        self._emit(VectorInstr(
            op="vluxei32", vl=vl, vd=vec.reg, vidx=index.reg,
            mem=MemAccess(addresses=buf.base + idx * 4, count=vl),
        ))
        return vec

    def vsuxei32(self, vec: Vec, buf: Buffer, index: Vec) -> None:
        """Indexed scatter: stores ``vec[i]`` to ``buf[index[i]]``."""
        vl = self._check_vl(vec, index)
        idx = index.values.astype(np.int64)
        if idx.min(initial=0) < 0 or (vl and idx.max() >= buf.data.size):
            raise IsaError(f"scatter index out of range for {buf.name!r}")
        buf.data[idx] = vec.values
        self._emit(VectorInstr(
            op="vsuxei32", vl=vl, vd=vec.reg, vidx=index.reg,
            mem=MemAccess(addresses=buf.base + idx * 4, count=vl, is_store=True),
        ))

    # -- arithmetic helpers -------------------------------------------------

    def _binary(self, op: str, a: Vec, b: Operand,
                mask: Optional[Mask] = None, old: Optional[Vec] = None) -> Vec:
        vl = self._check_vl(a, *( (mask,) if mask else () ))
        b_vals, b_reg, scalar = self._operand(b)
        raw = BINARY_SEMANTICS[op](a.values.astype(np.int64),
                                   b_vals.astype(np.int64))
        result = wrap32(raw)
        vold = -1
        if mask is not None:
            keep = old.values if old is not None else np.zeros(vl, dtype=_I32)
            result = np.where(mask.values, result, keep)
            if old is not None:
                vold = old.reg
        vec = self._new_vec(result)
        self._emit(VectorInstr(op=op, vl=vl, vd=vec.reg, vs1=a.reg, vs2=b_reg,
                               scalar=scalar, masked=mask is not None,
                               vold=vold))
        return vec

    # -- integer ALU ---------------------------------------------------------

    def vadd(self, a: Vec, b: Operand, mask: Optional[Mask] = None,
             old: Optional[Vec] = None) -> Vec:
        return self._binary("vadd", a, b, mask, old)

    def vsub(self, a: Vec, b: Operand, mask: Optional[Mask] = None,
             old: Optional[Vec] = None) -> Vec:
        return self._binary("vsub", a, b, mask, old)

    def vrsub(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vrsub", a, b)

    def vand(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vand", a, b)

    def vor(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vor", a, b)

    def vxor(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vxor", a, b)

    def vnot(self, a: Vec) -> Vec:
        return self._binary("vnot", a, -1)

    def vsll(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vsll", a, b)

    def vsrl(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vsrl", a, b)

    def vsra(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vsra", a, b)

    def vmin(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vmin", a, b)

    def vmax(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vmax", a, b)

    def vminu(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vminu", a, b)

    def vmaxu(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vmaxu", a, b)

    # -- fixed-point saturating arithmetic -------------------------------------

    def vsadd(self, a: Vec, b: Operand) -> Vec:
        """Signed saturating add (clamps instead of wrapping)."""
        return self._binary("vsadd", a, b)

    def vssub(self, a: Vec, b: Operand) -> Vec:
        """Signed saturating subtract."""
        return self._binary("vssub", a, b)

    def vsaddu(self, a: Vec, b: Operand) -> Vec:
        """Unsigned saturating add (clamps at 2^32 - 1)."""
        return self._binary("vsaddu", a, b)

    def vssubu(self, a: Vec, b: Operand) -> Vec:
        """Unsigned saturating subtract (clamps at zero)."""
        return self._binary("vssubu", a, b)

    # -- multiply / divide ---------------------------------------------------

    def vmul(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vmul", a, b)

    def vmulh(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vmulh", a, b)

    def vmulhu(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vmulhu", a, b)

    def vdiv(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vdiv", a, b)

    def vrem(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vrem", a, b)

    def vdivu(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vdivu", a, b)

    def vremu(self, a: Vec, b: Operand) -> Vec:
        return self._binary("vremu", a, b)

    # -- comparisons and select ------------------------------------------------

    def _compare(self, op: str, a: Vec, b: Operand) -> Mask:
        vl = self._check_vl(a)
        b_vals, b_reg, scalar = self._operand(b)
        result = COMPARE_SEMANTICS[op](a.values.astype(np.int64),
                                       b_vals.astype(np.int64))
        self._emit(VectorInstr(op=op, vl=vl, vd=0, vs1=a.reg, vs2=b_reg,
                               scalar=scalar))
        return Mask(result)

    def vmseq(self, a: Vec, b: Operand) -> Mask:
        return self._compare("vmseq", a, b)

    def vmsne(self, a: Vec, b: Operand) -> Mask:
        return self._compare("vmsne", a, b)

    def vmslt(self, a: Vec, b: Operand) -> Mask:
        return self._compare("vmslt", a, b)

    def vmsle(self, a: Vec, b: Operand) -> Mask:
        return self._compare("vmsle", a, b)

    def vmsgt(self, a: Vec, b: Operand) -> Mask:
        return self._compare("vmsgt", a, b)

    def vmsge(self, a: Vec, b: Operand) -> Mask:
        return self._compare("vmsge", a, b)

    def vmerge(self, mask: Mask, a: Vec, b: Operand) -> Vec:
        """Element select: ``a`` where mask is set, else ``b``."""
        vl = self._check_vl(a, mask)
        b_vals, b_reg, scalar = self._operand(b)
        result = np.where(mask.values, a.values, b_vals.astype(_I32))
        vec = self._new_vec(result)
        self._emit(VectorInstr(op="vmerge", vl=vl, vd=vec.reg, vs1=a.reg,
                               vs2=b_reg, scalar=scalar, masked=True))
        return vec

    # -- moves, splats ------------------------------------------------------

    def vmv(self, value: Operand) -> Vec:
        """Splat a scalar, or copy a vector register."""
        vl = self._check_vl() if not isinstance(value, Vec) else self._check_vl(value)
        vals, src_reg, scalar = self._operand(value)
        vec = self._new_vec(np.full(vl, vals, dtype=_I32))
        self._emit(VectorInstr(op="vmv", vl=vl, vd=vec.reg, vs1=src_reg,
                               scalar=scalar))
        return vec

    def viota(self, start: int = 0, step: int = 1) -> Vec:
        """Index vector [start, start+step, ...]; modelled as a vmv+vid pair."""
        vl = self._check_vl()
        base = self.vmv(start)
        # A real RVV kernel materialises indices with vid.v; we model the
        # cost as one extra ALU instruction over the splat.  The dedicated
        # "vid" opcode (lane i = vs1[i] + i*scalar) keeps the trace
        # replayable; its ROM macro is "add", so cycles are unchanged.
        ramp = wrap32(np.arange(vl, dtype=np.int64) * step + start)
        vec = self._new_vec(ramp)
        self._emit(VectorInstr(op="vid", vl=vl, vd=vec.reg, vs1=base.reg,
                               scalar=step))
        return vec

    # -- reductions and cross-element ------------------------------------------

    def _reduce(self, op: str, a: Vec, init: int,
                mask: Optional[Mask] = None) -> int:
        vl = self._check_vl(a, *( (mask,) if mask else () ))
        values = a.values.astype(np.int64)
        if mask is not None:
            values = values[mask.values]
        total = REDUCE_SEMANTICS[op][1](values, init)
        self._emit(VectorInstr(op=op, vl=vl, vs1=a.reg, masked=mask is not None))
        return wrap32_int(total)

    def vredsum(self, a: Vec, init: int = 0, mask: Optional[Mask] = None) -> int:
        return self._reduce("vredsum", a, init, mask)

    def vredmax(self, a: Vec, init: int = I32_MIN) -> int:
        return self._reduce("vredmax", a, init)

    def vredmin(self, a: Vec, init: int = I32_MAX) -> int:
        return self._reduce("vredmin", a, init)

    def vredand(self, a: Vec, init: int = -1) -> int:
        return self._reduce("vredand", a, init)

    def vredor(self, a: Vec, init: int = 0) -> int:
        return self._reduce("vredor", a, init)

    def vredxor(self, a: Vec, init: int = 0) -> int:
        return self._reduce("vredxor", a, init)

    def vrgather(self, a: Vec, index: Vec) -> Vec:
        """Register gather: result[i] = a[index[i]] (0 when out of range)."""
        vl = self._check_vl(a, index)
        idx = index.values.astype(np.int64)
        in_range = (idx >= 0) & (idx < vl)
        result = np.where(in_range, a.values[np.clip(idx, 0, vl - 1)], 0)
        vec = self._new_vec(result)
        self._emit(VectorInstr(op="vrgather", vl=vl, vd=vec.reg, vs1=a.reg,
                               vs2=index.reg))
        return vec

    def vslidedown(self, a: Vec, offset: int) -> Vec:
        vl = self._check_vl(a)
        result = np.zeros(vl, dtype=_I32)
        if offset < vl:
            result[:vl - offset] = a.values[offset:]
        vec = self._new_vec(result)
        self._emit(VectorInstr(op="vslidedown", vl=vl, vd=vec.reg, vs1=a.reg,
                               scalar=int(offset)))
        return vec

    def vslideup(self, a: Vec, offset: int, old: Optional[Vec] = None) -> Vec:
        vl = self._check_vl(a)
        result = (old.values.copy() if old is not None
                  else np.zeros(vl, dtype=_I32))
        if offset < vl:
            result[offset:] = a.values[:vl - offset]
        vec = self._new_vec(result)
        self._emit(VectorInstr(op="vslideup", vl=vl, vd=vec.reg, vs1=a.reg,
                               scalar=int(offset),
                               vold=old.reg if old is not None else -1))
        return vec

    def vmv_x_s(self, a: Vec) -> int:
        """Move element 0 to a scalar register (stalls commit, Section V-A)."""
        self._check_vl(a)
        self._emit(VectorInstr(op="vmv.x.s", vl=1, vs1=a.reg))
        return int(a.values[0])

    def vmv_s_x(self, value: int) -> Vec:
        vl = self._check_vl()
        result = np.zeros(vl, dtype=_I32)
        result[0] = wrap32_int(value)
        vec = self._new_vec(result)
        self._emit(VectorInstr(op="vmv.s.x", vl=1, vd=vec.reg,
                               scalar=int(value)))
        return vec


class ScalarContext:
    """Trace builder for the scalar versions of the workloads.

    The scalar baselines are modelled at block granularity: each block is a
    number of instructions plus the memory-access patterns it performs.
    """

    def __init__(self, name: str = "scalar") -> None:
        self.vm = VirtualMemory()
        self.trace = Trace(name)

    def block(self, n_instr: int, accesses: Sequence[MemAccess] = ()) -> None:
        self.trace.append(ScalarBlock(n_instr=int(n_instr), accesses=tuple(accesses)))

    def load_pattern(self, buf: Buffer, offset: int, count: int,
                     stride_elems: int = 1) -> MemAccess:
        return MemAccess(base=buf.addr_of(offset), stride=4 * stride_elems,
                         count=count)

    def store_pattern(self, buf: Buffer, offset: int, count: int,
                      stride_elems: int = 1) -> MemAccess:
        return MemAccess(base=buf.addr_of(offset), stride=4 * stride_elems,
                         count=count, is_store=True)
