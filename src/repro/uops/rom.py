"""The macro-operation ROM (Section V-B).

The VSU holds a ROM with the micro-program for every macro-operation; this
class builds those programs on demand (per parallelization factor),
caches them, and answers cycle counts via timing-only execution — the
control flow of every program is data-independent, so one timing run is
exact for all inputs.

Opcode mapping: the ROM serves the compute macro-ops.  Memory, reduction,
slide, and gather instructions are executed as read/write streams by the
VMU / VRU / VSU and are timed by the engine models instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import IsaError
from ..isa.instructions import VectorInstr
from ..isa.opcodes import OPCODES, OpInfo
from .executor import MicroEngine
from .macroops import GENERATORS
from .program import MicroProgram

#: Opcodes whose timing is a VSU/VMU/VRU stream, not a ROM program.
STREAMED_OPS = frozenset({
    "vle32", "vse32", "vlse32", "vsse32", "vluxei32", "vsuxei32",
    "vredsum", "vredmax", "vredmin", "vredand", "vredor", "vredxor",
    "vrgather", "vslideup", "vslidedown", "vmv.x.s", "vmv.s.x",
    "vsetvl", "vmfence",
})

#: Macro-ops whose bit-exact result is only a timing proxy.
TIMING_PROXIES = frozenset({"mulh", "mulhu"})

#: VCU decompositions (Section V-A: instructions may become *multiple*
#: macro-operations): saturating arithmetic as sequences of base macros.
#: Signed overflow of a+b has sign(t4) with t4 = (a^sum) & ~(a^b); the
#: saturation value is (a >> 31) ^ INT_MAX; a final merge selects.
COMPOSITE_MACROS = {
    "sadd": (
        ("add", {}), ("logic", {"op": "xor"}), ("logic", {"op": "xor"}),
        ("logic", {"op": "not"}), ("logic", {"op": "and"}), ("splat", {}),
        ("compare", {"op": "lt", "signed": True}),
        ("shift_scalar", {"op": "sra", "amount": 31}), ("splat", {}),
        ("logic", {"op": "xor"}), ("merge", {}),
    ),
    "ssub": (
        ("sub", {}), ("logic", {"op": "xor"}), ("logic", {"op": "xor"}),
        ("logic", {"op": "and"}), ("splat", {}),
        ("compare", {"op": "lt", "signed": True}),
        ("shift_scalar", {"op": "sra", "amount": 31}), ("splat", {}),
        ("logic", {"op": "xor"}), ("merge", {}),
    ),
    "saddu": (
        ("add", {}), ("compare", {"op": "lt", "signed": False}),
        ("splat", {}), ("merge", {}),
    ),
    "ssubu": (
        ("sub", {}), ("compare", {"op": "lt", "signed": False}),
        ("splat", {}), ("merge", {}),
    ),
}

#: Opcode-table macro family -> the base macro-op name(s) the ROM must hold
#: for it (``instr_key`` picks between them per instruction form).
_FAMILY_MACROS = {
    "add": ("add", "sub", "rsub"),
    "logic": ("logic",),
    "move": ("move", "splat"),
    "merge": ("merge",),
    "compare": ("compare",),
    "minmax": ("minmax",),
    "shift": ("shift_scalar", "shift_variable"),
    "mul": ("mul",),
    "div": ("div",),
}


def rom_coverage_gaps(opcodes: Optional[Dict[str, OpInfo]] = None) -> List[str]:
    """Macro-operations the opcode table needs but the ROM cannot build.

    Checks every non-streamed opcode's macro family against
    :data:`GENERATORS` and :data:`COMPOSITE_MACROS`, and every composite's
    parts against :data:`GENERATORS`.  Returns human-readable gap names.
    """
    table = OPCODES if opcodes is None else opcodes
    gaps = []
    for name, info in table.items():
        if name in STREAMED_OPS:
            continue
        for macro in _FAMILY_MACROS.get(info.macro, (info.macro,)):
            if macro not in GENERATORS and macro not in COMPOSITE_MACROS:
                gaps.append(f"{name} -> {macro}")
    for name, parts in COMPOSITE_MACROS.items():
        for part, _ in parts:
            if part not in GENERATORS:
                gaps.append(f"{name} (composite) -> {part}")
    return gaps


def _check_rom_coverage() -> None:
    """Import-time fail-fast: a ROM that cannot serve the ISA is a build
    error, not something to discover mid-simulation."""
    gaps = rom_coverage_gaps()
    if gaps:
        raise IsaError(
            "opcode table references macro-operations missing from the ROM: "
            + ", ".join(sorted(set(gaps))))


def rom_specs() -> Tuple[Tuple[str, Dict[str, object]], ...]:
    """Every (macro, params) combination the ROM serves.

    This enumeration is the build path's ground truth: ``instr_key`` only
    produces instances of these specs (shift amounts sample the 0..31
    range).  Strict ROMs, ``repro lint``, and the round-trip tests all
    iterate it.
    """
    specs: List[Tuple[str, Dict[str, object]]] = []
    for masked in (False, True):
        for macro in ("add", "sub", "rsub", "move", "splat"):
            specs.append((macro, {"masked": masked}))
        for op in ("and", "or", "xor", "nand", "nor", "xnor", "not"):
            specs.append(("logic", {"op": op, "masked": masked}))
    specs.append(("merge", {}))
    for op in ("eq", "ne", "lt", "le", "gt", "ge"):
        for signed in (True, False):
            specs.append(("compare", {"op": op, "signed": signed}))
    for op in ("min", "max"):
        for signed in (True, False):
            specs.append(("minmax", {"op": op, "signed": signed}))
    for op in ("sll", "srl", "sra"):
        specs.append(("shift_variable", {"op": op}))
        for amount in (0, 1, 7, 13, 31):
            specs.append(("shift_scalar", {"op": op, "amount": amount}))
    for high in (False, True):
        specs.append(("mul", {"high": high}))
    for op in ("div", "rem", "divu", "remu"):
        specs.append(("div", {"op": op}))
    return tuple(specs)


_LOGIC = {"vand": "and", "vor": "or", "vxor": "xor", "vnot": "not"}
_COMPARE = {"vmseq": "eq", "vmsne": "ne", "vmslt": "lt",
            "vmsle": "le", "vmsgt": "gt", "vmsge": "ge"}
_MINMAX = {"vmin": ("min", True), "vmax": ("max", True),
           "vminu": ("min", False), "vmaxu": ("max", False)}
_SHIFT = {"vsll": "sll", "vsrl": "srl", "vsra": "sra"}
_DIV = {"vdiv": "div", "vrem": "rem", "vdivu": "divu", "vremu": "remu"}


def instr_key(instr: VectorInstr) -> Optional[Tuple[str, Tuple[Tuple[str, object], ...]]]:
    """Map a vector instruction to its (macro, params) ROM key.

    Returns ``None`` for streamed (non-ROM) instructions.
    """
    op = instr.op
    if op in STREAMED_OPS:
        return None
    if op in ("vadd", "vsub", "vrsub"):
        return op[1:], (("masked", instr.masked),)
    if op == "vid":
        # Index ramp: costed as the "add" half of the historical vmv+vadd
        # pair so viota's cycle accounting is unchanged.
        return "add", (("masked", instr.masked),)
    if op in _LOGIC:
        return "logic", (("op", _LOGIC[op]), ("masked", instr.masked))
    if op == "vmv":
        if instr.vs1 >= 0:
            return "move", (("masked", instr.masked),)
        return "splat", (("masked", instr.masked),)
    if op == "vmerge":
        return "merge", ()
    if op in _COMPARE:
        return "compare", (("op", _COMPARE[op]), ("signed", True))
    if op in _MINMAX:
        mm, signed = _MINMAX[op]
        return "minmax", (("op", mm), ("signed", signed))
    if op in _SHIFT:
        if instr.vs2 >= 0:
            return "shift_variable", (("op", _SHIFT[op]),)
        return "shift_scalar", (("op", _SHIFT[op]), ("amount", instr.scalar & 31))
    if op in ("vmul", "vmulh", "vmulhu"):
        return "mul", (("high", op != "vmul"),)
    if op in _DIV:
        return "div", (("op", _DIV[op]),)
    if op in ("vsadd", "vssub", "vsaddu", "vssubu"):
        return op[1:], ()  # composite macro (VCU decomposition)
    raise IsaError(f"no macro-operation mapping for {op!r}")


class MacroOpRom:
    """Builds/caches micro-programs and cycle counts for one EVE-n design.

    With ``strict=True`` every program is statically verified on build
    (:func:`repro.uops.lint.check_program`): a malformed listing raises
    :class:`~repro.errors.LintError` at ROM-construction time instead of
    surfacing as a wrong cycle count or a hang mid-simulation.  Each
    program is linted once per process (``_linted``); :meth:`verify`
    lints every spec regardless.
    """

    #: Process-wide cycle table shared by every ROM of the same design.
    #: Timing-only replay is deterministic and control flow is
    #: data-independent, so ROMs for the same (factor, element_bits) —
    #: e.g. every freshly built EVE-4 machine in a sweep — share one
    #: cycle table instead of re-replaying per machine.  Programs stay
    #: per-instance: building one is cheap, and the generator table can
    #: legitimately differ between ROMs (tests patch it).
    _shared_cycles: Dict[tuple, Dict[tuple, int]] = {}

    #: Process-wide strict-mode verdicts: the (generator, factor,
    #: element_bits, params) keys whose program already linted clean.
    #: Generators are deterministic, so a second strict ROM of the same
    #: design skips the re-lint; a patched generator is a new key.  Only
    #: verdicts are shared, never programs (see ``_shared_cycles``).
    _linted: Set[tuple] = set()

    def __init__(self, factor: int, element_bits: int = 32,
                 strict: bool = False) -> None:
        self.factor = factor
        self.element_bits = element_bits
        self.strict = strict
        self._programs: Dict[tuple, MicroProgram] = {}
        self._cycles = self._shared_cycles.setdefault(
            (factor, element_bits), {})
        self._engine = MicroEngine()

    def program(self, macro: str, **params: object) -> MicroProgram:
        if macro in COMPOSITE_MACROS:
            raise IsaError(
                f"{macro!r} is a VCU composite of base macro-operations; "
                "it has no single micro-program (see COMPOSITE_MACROS)")
        key = (macro, tuple(sorted(params.items())))
        if key not in self._programs:
            try:
                generator = GENERATORS[macro]
            except KeyError:
                raise IsaError(f"unknown macro-operation {macro!r}") from None
            program = generator(self.factor, self.element_bits, **params)
            verdict = (generator, self.factor, self.element_bits, key)
            if self.strict and verdict not in self._linted:
                from .lint import check_program
                check_program(program, self.factor, self.element_bits)
                self._linted.add(verdict)
            self._programs[key] = program
        return self._programs[key]

    def verify(self) -> int:
        """Build and lint every spec this ROM serves (build-path check).

        Returns the number of programs verified; raises
        :class:`~repro.errors.LintError` on the first malformed one.
        """
        from .lint import check_program
        count = 0
        for macro, params in rom_specs():
            program = self.program(macro, **params)
            check_program(program, self.factor, self.element_bits)
            count += 1
        return count

    def cycles(self, macro: str, **params: object) -> int:
        if macro in COMPOSITE_MACROS:
            return sum(self.cycles(part, **part_params)
                       for part, part_params in COMPOSITE_MACROS[macro])
        key = (macro, tuple(sorted(params.items())))
        if key not in self._cycles:
            self._cycles[key] = self._engine.run(self.program(macro, **params))
        return self._cycles[key]

    def cycles_for(self, instr: VectorInstr) -> Optional[int]:
        """Cycle count of the ROM program for ``instr``; ``None`` if the
        instruction is a streamed (VMU/VRU) operation."""
        key = instr_key(instr)
        if key is None:
            return None
        macro, params = key
        return self.cycles(macro, **dict(params))

    def program_for(self, instr: VectorInstr) -> Optional[MicroProgram]:
        key = instr_key(instr)
        if key is None:
            return None
        macro, params = key
        return self.program(macro, **dict(params))


# Fail fast: an ISA/ROM mismatch is a packaging error, caught at import.
_check_rom_coverage()
