"""Executor mechanics and the macro-op ROM."""

import pytest

from repro.errors import IsaError, MicroExecutionError
from repro.isa import MemAccess, VectorInstr
from repro.sram import EveSram, RegisterLayout
from repro.uops import (
    ArithUop,
    Binding,
    ControlUop,
    MacroOpRom,
    MicroEngine,
    ProgramBuilder,
    RowRef,
)
from repro.uops.rom import STREAMED_OPS, instr_key
from repro.uops.uop import CounterSeg, DataIn


def small_binding():
    layout = RegisterLayout(rows=32, cols=16, element_bits=32, factor=4,
                            num_vregs=4)
    return EveSram(32, 16, 4), Binding(layout=layout,
                                       regs={"vs1": 0, "vs2": 1, "vd": 2,
                                             "vm": 3})


class TestEngineMechanics:
    def test_timing_equals_bit_exact_cycles(self):
        sram, binding = small_binding()
        rom = MacroOpRom(4)
        program = rom.program("add")
        timing = MicroEngine().run(program)
        exact = MicroEngine().run(program, sram, binding)
        assert timing == exact

    def test_bit_exact_requires_binding(self):
        sram, _ = small_binding()
        rom = MacroOpRom(4)
        with pytest.raises(MicroExecutionError):
            MicroEngine().run(rom.program("add"), sram)

    def test_runaway_loop_guarded(self):
        b = ProgramBuilder("loop")
        b.label("top")
        b.emit(control=ControlUop("jmp", target="top"))
        with pytest.raises(MicroExecutionError):
            MicroEngine().run(b.build())

    def test_histogram_counts_arith_uops(self):
        rom = MacroOpRom(8)
        histogram = {}
        MicroEngine().run(rom.program("add"), histogram=histogram)
        # One blc and one write-back per segment, plus the carry preset.
        assert histogram["blc"] == 4
        assert histogram["wb"] == 5

    def test_counter_seg_addressing(self):
        """RowRef segments resolve as base + step * iteration."""
        sram, binding = small_binding()
        b = ProgramBuilder("probe")
        ref = RowRef("vs1", CounterSeg("seg0", base=7, step=-1))
        b.sweep("seg0", 8, [
            ArithUop("wr", a=ref, data_in=DataIn("ones")),
        ])
        MicroEngine().run(b.build(), sram, binding)
        # All 8 segments of vs1 (rows 0..7) were written, top-down.
        assert sram.array.words[:8] == [sram.array.full] * 8

    def test_unbound_slot_raises(self):
        sram, binding = small_binding()
        binding.regs.pop("vs2")
        rom = MacroOpRom(4)
        with pytest.raises(MicroExecutionError):
            MicroEngine().run(rom.program("add"), sram, binding)

    def test_scalar_seg_data_in(self):
        sram, binding = small_binding()
        binding.scalar = 0xABCD1234
        b = ProgramBuilder("splat-probe")
        b.sweep("seg0", 8, [
            ArithUop("wr", a=RowRef("vd", CounterSeg("seg0")),
                     data_in=DataIn("scalar_seg", CounterSeg("seg0"))),
        ])
        MicroEngine().run(b.build(), sram, binding)
        values = sram.read_vreg(binding.layout, 2)
        assert (values & 0xFFFFFFFF == 0xABCD1234).all()


class TestRom:
    def test_programs_cached(self):
        rom = MacroOpRom(8)
        assert rom.program("add") is rom.program("add")

    def test_cycles_cached_and_consistent(self):
        rom = MacroOpRom(8)
        first = rom.cycles("mul")
        assert rom.cycles("mul") == first

    def test_unknown_macro(self):
        with pytest.raises(IsaError):
            MacroOpRom(8).program("sqrt")

    def test_param_variants_distinct(self):
        rom = MacroOpRom(8)
        assert rom.cycles("shift_scalar", op="sll", amount=1) < \
            rom.cycles("shift_scalar", op="sll", amount=31)

    def test_add_cycles_match_formula(self):
        """add = carry preset + 2 cycles per segment + loop init + ret."""
        for factor in (1, 2, 4, 8, 16, 32):
            segments = 32 // factor
            assert MacroOpRom(factor).cycles("add") == 2 * segments + 3


class TestInstrMapping:
    def mem(self, store=False):
        return MemAccess(base=0, stride=4, count=8, is_store=store)

    def test_streamed_ops_have_no_rom_program(self):
        rom = MacroOpRom(8)
        instr = VectorInstr(op="vle32", vl=8, vd=1, mem=self.mem())
        assert rom.cycles_for(instr) is None
        assert rom.program_for(instr) is None

    def test_streamed_ops_map_to_none(self):
        cases = [
            VectorInstr(op="vse32", vl=8, vd=1, mem=self.mem(store=True)),
            VectorInstr(op="vredsum", vl=8, vs1=1),
            VectorInstr(op="vrgather", vl=8, vd=1, vs1=2, vs2=3),
            VectorInstr(op="vslideup", vl=8, vd=1, vs1=2),
            VectorInstr(op="vsetvl", vl=8),
            VectorInstr(op="vmfence", vl=0),
            VectorInstr(op="vmv.x.s", vl=1, vs1=2),
        ]
        for instr in cases:
            assert instr.op in STREAMED_OPS
            assert instr_key(instr) is None

    @pytest.mark.parametrize("op,macro", [
        ("vadd", "add"), ("vsub", "sub"), ("vrsub", "rsub"),
        ("vand", "logic"), ("vxor", "logic"), ("vmul", "mul"),
        ("vdiv", "div"), ("vmin", "minmax"), ("vmslt", "compare"),
        ("vmerge", "merge"),
    ])
    def test_compute_mapping(self, op, macro):
        instr = VectorInstr(op=op, vl=8, vd=1, vs1=2, vs2=3)
        key = instr_key(instr)
        assert key is not None and key[0] == macro

    def test_vmv_scalar_is_splat(self):
        assert instr_key(VectorInstr(op="vmv", vl=8, vd=1, scalar=5))[0] == "splat"
        assert instr_key(VectorInstr(op="vmv", vl=8, vd=1, vs1=2))[0] == "move"

    def test_shift_forms(self):
        vx = VectorInstr(op="vsll", vl=8, vd=1, vs1=2, scalar=5)
        vv = VectorInstr(op="vsll", vl=8, vd=1, vs1=2, vs2=3)
        assert instr_key(vx)[0] == "shift_scalar"
        assert instr_key(vv)[0] == "shift_variable"

    def test_cycles_for_compute_instr(self):
        rom = MacroOpRom(8)
        instr = VectorInstr(op="vadd", vl=8, vd=1, vs1=2, vs2=3)
        assert rom.cycles_for(instr) == rom.cycles("add", masked=False)

    def test_masked_variant_costs_more(self):
        rom = MacroOpRom(8)
        plain = VectorInstr(op="vadd", vl=8, vd=1, vs1=2, vs2=3)
        masked = VectorInstr(op="vadd", vl=8, vd=1, vs1=2, vs2=3, masked=True)
        assert rom.cycles_for(masked) > rom.cycles_for(plain)


class TestEnergyModel:
    def test_average_power_below_blc_peak(self):
        from repro.circuits_model.energy import (
            OP_ENERGY_REL, average_power_overhead)
        rom = MacroOpRom(8)
        for macro in ("add", "mul", "logic"):
            avg = average_power_overhead(rom, macro)
            assert avg <= OP_ENERGY_REL["blc"]  # Section VI-B's argument

    def test_blc_twenty_percent_above_read(self):
        from repro.circuits_model.energy import OP_ENERGY_REL
        assert OP_ENERGY_REL["blc"] / OP_ENERGY_REL["rd"] == pytest.approx(1.2)

    def test_macroop_energy_positive_and_additive(self):
        from repro.circuits_model.energy import macroop_energy
        rom = MacroOpRom(8)
        assert macroop_energy(rom, "mul") > macroop_energy(rom, "add") > 0
