"""Shared fixtures: small SRAM geometries, ROMs, a tiny-input runner,
and the cyclic collector switched off."""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.experiments import ExperimentRunner
from repro.sram import EveSram, RegisterLayout
from repro.uops import Binding, MacroOpRom, MicroEngine
from repro.workloads import REGISTRY

#: Geometry used by the bit-exact macro-op tests: tall enough that the full
#: register file fits one column group at every factor.
TEST_ROWS = 256
TEST_COLS = 64


def make_layout(factor: int, num_vregs: int | None = None) -> RegisterLayout:
    if num_vregs is None:
        num_vregs = min(8, max(1, TEST_ROWS // (32 // factor)))
    return RegisterLayout(rows=TEST_ROWS, cols=TEST_COLS, element_bits=32,
                          factor=factor, num_vregs=num_vregs)


def wrap32(values) -> np.ndarray:
    as64 = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
    return (((as64 + 0x8000_0000) % 0x1_0000_0000) - 0x8000_0000).astype(np.int64)


class MacroTester:
    """Runs one macro-op bit-exactly and returns the destination register."""

    def __init__(self, factor: int) -> None:
        self.factor = factor
        self.layout = make_layout(factor)
        self.sram = EveSram(TEST_ROWS, TEST_COLS, factor)
        self.rom = MacroOpRom(factor)
        self.engine = MicroEngine()
        self.n = self.layout.elements_per_array

    def run(self, macro: str, a=None, b=None, m=None, scalar: int = 0,
            **params):
        if a is not None:
            self.sram.write_vreg(self.layout, 1, np.resize(np.asarray(a, np.int64), self.n))
        if b is not None:
            self.sram.write_vreg(self.layout, 2, np.resize(np.asarray(b, np.int64), self.n))
        if m is not None:
            self.sram.write_vreg(self.layout, 4, np.resize(np.asarray(m, np.int64), self.n))
        binding = Binding(layout=self.layout,
                          regs={"vs1": 1, "vs2": 2, "vd": 3, "vm": 4},
                          scalar=scalar)
        cycles = self.engine.run(self.rom.program(macro, **params),
                                 self.sram, binding)
        return self.sram.read_vreg(self.layout, 3), cycles


@pytest.fixture(params=[1, 2, 4, 8, 16, 32], ids=lambda f: f"n{f}")
def macro_tester(request) -> MacroTester:
    return MacroTester(request.param)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20230225)


#: Small problem sizes so machine-level integration tests stay fast.
TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}


@pytest.fixture(scope="session")
def tiny_runner() -> ExperimentRunner:
    return ExperimentRunner(params_override=TINY_PARAMS)


@pytest.fixture
def no_collector():
    """The cyclic collector off, with nothing left for it beforehand.

    pytest keeps the last failed test's traceback (``sys.last_*``) until
    the next test's call starts, and that traceback is a cycle: dropped
    there, it would read as this test's garbage, so it goes first.
    """
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        sys.__dict__.pop(name, None)
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
