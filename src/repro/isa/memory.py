"""A virtual address space for workload buffers.

Workloads allocate numpy-backed buffers through :class:`VirtualMemory`;
each buffer receives a cache-line-aligned virtual base address so that the
traces they emit contain realistic, non-overlapping address streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import MemoryModelError
from .instructions import LINE_BYTES

#: Buffers start above the zero page to keep address zero invalid.
BASE_ADDRESS = 0x1_0000


@dataclass
class Buffer:
    """A named, contiguous, line-aligned region backed by a numpy array."""

    name: str
    base: int
    data: np.ndarray

    @property
    def elem_bytes(self) -> int:
        return int(self.data.dtype.itemsize)

    @property
    def size_bytes(self) -> int:
        return int(self.data.size) * self.elem_bytes

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def addr_of(self, index: int) -> int:
        """Byte address of flat element ``index``."""
        if not 0 <= index < self.data.size:
            raise MemoryModelError(
                f"buffer {self.name!r}: element {index} out of range 0..{self.data.size - 1}"
            )
        return self.base + index * self.elem_bytes


class VirtualMemory:
    """Allocates line-aligned buffers in a flat virtual address space."""

    def __init__(self) -> None:
        self._next = BASE_ADDRESS
        self._buffers: Dict[str, Buffer] = {}

    def alloc(self, name: str, data: np.ndarray) -> Buffer:
        """Register ``data`` as a buffer; a copy is *not* made."""
        if name in self._buffers:
            raise MemoryModelError(f"buffer {name!r} already allocated")
        if data.ndim != 1:
            raise MemoryModelError(f"buffer {name!r} must be 1-D (got {data.ndim}-D)")
        buf = Buffer(name=name, base=self._next, data=data)
        self._buffers[name] = buf
        size = buf.size_bytes
        # Round the next base up to a line boundary and keep a guard line
        # between buffers so neighbouring arrays never share a cache line.
        self._next += ((size + LINE_BYTES - 1) // LINE_BYTES + 1) * LINE_BYTES
        return buf

    def alloc_i32(self, name: str, size_or_values) -> Buffer:
        """Allocate an int32 buffer from a length or an array-like."""
        if isinstance(size_or_values, (int, np.integer)):
            data = np.zeros(int(size_or_values), dtype=np.int32)
        else:
            data = np.ascontiguousarray(size_or_values, dtype=np.int32)
        return self.alloc(name, data)

    def __getitem__(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise MemoryModelError(f"no buffer named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    @property
    def buffers(self) -> Dict[str, Buffer]:
        return dict(self._buffers)
