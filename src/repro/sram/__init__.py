"""Bit-accurate model of EVE's compute-capable SRAM.

* :mod:`repro.sram.array` — a 6T SRAM array with the dual-wordline
  bit-line-compute read (Section III).
* :mod:`repro.sram.circuits` — the peripheral circuit stacks: XOR/XNOR
  logic, Manchester-carry-chain add logic, XRegister, mask logic, constant
  shifter, and spare shifter.
* :mod:`repro.sram.eve_sram` — the composed EVE-n SRAM executing arithmetic
  micro-operations bit-exactly.
* :mod:`repro.sram.layout` — vector-register data layout (Figure 1) and
  in-situ ALU counting, which yields the Table III hardware vector lengths.
* :mod:`repro.sram.dtu` — the data-transpose unit's bit reshuffle between
  memory layout and the S-CIM bit planes.
* :mod:`repro.sram.words` — the word-packed row representation every
  layer runs on (one Python int per row), its lane masks, and the
  element transposes through which values enter and leave the model.
"""

from .array import SramArray
from .layout import RegisterLayout
from .eve_sram import EveSram
from .dtu import DataTransposeUnit

__all__ = ["SramArray", "RegisterLayout", "EveSram", "DataTransposeUnit"]
