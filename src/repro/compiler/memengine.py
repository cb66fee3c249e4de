"""Re-export of the memory model's two uninstrumented classes.

The model lives in :mod:`repro.mem`.  The benchmark harness's layer
targets (``perfbench/layers.py``) name these classes under this import
path; nothing in the package imports this module.
"""

from ..mem.dram import FastDramChannel
from ..mem.hierarchy import FastMemorySystem

__all__ = ["FastDramChannel", "FastMemorySystem"]
