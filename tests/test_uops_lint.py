"""Static analyzer (CFG + dataflow lint) tests.

Each of the six rule families gets at least one deliberately malformed
program asserting the specific :class:`Finding`; the shipped ROM must come
out clean for every opcode × parallelization factor (the acceptance bar
for ``repro lint``).
"""

import pytest

from repro.errors import IsaError, LintError, MicroExecutionError, ReproError
from repro.isa.opcodes import Category, OpInfo
from repro.uops import (
    ControlFlowGraph,
    ControlUop,
    MacroOpRom,
    MicroEngine,
    ProgramBuilder,
    assemble,
    check_program,
    lint_program,
    lint_rom,
    rom_specs,
)
from repro.uops.cfg import Edge

FACTORS = (1, 2, 4, 8, 16, 32)


def findings_for(source: str, factor: int = 4, name: str = "case"):
    return lint_program(assemble(source, name=name), factor=factor)


def rules_of(findings):
    return {f.rule for f in findings}


# -- the control-flow graph itself -------------------------------------------


class TestControlFlowGraph:
    def test_edge_kinds(self):
        program = assemble("""
            init seg0, 4
        loop:
            decr seg0 | nop | bnz seg0, loop
            ret
        """)
        cfg = ControlFlowGraph(program)
        assert Edge(0, 1, "fall") in cfg.edges
        assert Edge(1, 1, "taken") in cfg.edges      # bnz back edge
        assert Edge(1, 2, "fall") in cfg.edges       # bnz wrap fall-through
        assert Edge(2, cfg.exit_node, "ret") in cfg.edges

    def test_reachability_skips_dead_code(self):
        program = assemble("""
            - | nop | jmp end
            - | sclr | -
        end:
            ret
        """)
        cfg = ControlFlowGraph(program)
        assert 1 not in cfg.reachable
        assert {0, 2, cfg.exit_node} <= cfg.reachable

    def test_dominators_of_loop_body(self):
        program = assemble("""
            init seg0, 4
        loop:
            decr seg0 | nop | bnz seg0, loop
            ret
        """)
        dom = ControlFlowGraph(program).dominators()
        assert dom[1] == {0, 1}
        assert dom[2] == {0, 1, 2}

    def test_sccs_find_the_loop_only(self):
        program = assemble("""
            init seg0, 4
        loop:
            decr seg0 | sclr | -
            - | nop | bnz seg0, loop
            ret
        """)
        sccs = ControlFlowGraph(program).sccs()
        assert sccs == [[1, 2]]


# -- rule 1: counter use before init -----------------------------------------


class TestCounterUninit:
    def test_decr_before_init(self):
        findings = findings_for("""
        loop:
            decr seg0 | nop | bnz seg0, loop
            ret
        """)
        hits = [f for f in findings if f.rule == "counter-uninit"]
        assert len(hits) == 2  # the decr and the bnz test
        assert all(f.severity == "error" and f.index == 0 for f in hits)
        assert "seg0" in hits[0].message

    def test_counter_seg_address_before_init(self):
        findings = findings_for("""
            - | blc vs1[seg1], vs1[seg1] | -
            - | wb vd[0], and | -
            ret
        """)
        assert any(f.rule == "counter-uninit" and "seg1" in f.message
                   and f.index == 0 for f in findings)

    def test_init_on_only_one_path_is_flagged(self):
        # seg1's init is skipped when the bnd falls through.
        findings = findings_for("""
            init seg0, 4
        top:
            decr seg0 | nop | bnd seg0, armed
            - | nop | jmp use
        armed:
            init seg1, 4
        use:
            - | nop | bnz seg1, top
            ret
        """)
        assert any(f.rule == "counter-uninit" and "seg1" in f.message
                   for f in findings)

    def test_init_in_same_tuple_covers_the_read(self):
        # The counter slot executes before the arithmetic slot, so an
        # init+use tuple is NOT a rule-1 violation (rule 6 warns instead).
        findings = findings_for("""
            init seg0, 4 | blc vs1[seg0], vs1[seg0] | -
            - | wb vd[0], and | -
            ret
        """)
        assert "counter-uninit" not in rules_of(findings)

    def test_clean_sweep_passes(self):
        findings = findings_for("""
            init seg0, 8
        loop:
            decr seg0 | blc vs1[seg0], vs2[seg0] | -
            - | wb vd[seg0], and | bnz seg0, loop
            ret
        """, factor=4)
        assert findings == []


# -- rule 2: latch read before write -----------------------------------------


class TestLatchUninit:
    def test_carry_consumed_before_preset(self):
        findings = findings_for("""
            - | blc vs1[0], vs2[0] | -
            - | wb vd[0], add | -
            ret
        """)
        hits = [f for f in findings if f.rule == "latch-uninit"]
        assert len(hits) == 1
        assert hits[0].index == 1 and "carry" in hits[0].message

    def test_masked_write_before_mask_load(self):
        findings = findings_for("    - | wr vd[0] masked <zeros | -\n    ret")
        assert any(f.rule == "latch-uninit" and "mask" in f.message
                   for f in findings)

    def test_xreg_walked_before_load(self):
        findings = findings_for("    - | mask_shft | -\n    ret")
        assert any(f.rule == "latch-uninit" and "XRegister" in f.message
                   for f in findings)

    def test_link_ferried_before_seed(self):
        findings = findings_for("""
            - | rd vs1[0] | -
            - | lshift uncond | -
            ret
        """)
        assert any(f.rule == "latch-uninit" and "link" in f.message
                   for f in findings)

    def test_wb_source_without_blc(self):
        findings = findings_for("    - | wb vd[0], xor | -\n    ret")
        assert any(f.rule == "latch-uninit" and "bit-line" in f.message
                   for f in findings)

    def test_producer_on_one_branch_only_is_flagged(self):
        # The mask load sits on the taken side of a bnd; the fall-through
        # path reaches the masked write with the latches stale.
        findings = findings_for("""
            init seg0, 4
            decr seg0 | nop | bnd seg0, load
            - | nop | jmp use
        load:
            - | wb mask, data_in <ones | -
        use:
            - | wr vd[0] masked <zeros | -
            ret
        """)
        assert any(f.rule == "latch-uninit" and "mask" in f.message
                   for f in findings)

    def test_producer_before_loop_covers_the_body(self):
        findings = findings_for("""
            - | wb mask, data_in <ones | -
            init seg0, 4
        loop:
            decr seg0 | wr vd[seg0] masked <zeros | -
            - | nop | bnz seg0, loop
            ret
        """)
        assert "latch-uninit" not in rules_of(findings)


# -- rule 3: segment bounds ---------------------------------------------------


class TestSegBounds:
    def test_literal_out_of_range(self):
        findings = findings_for("""
            - | blc vs1[8], vs2[0] | -
            - | wb vd[0], and | -
            ret
        """, factor=4)
        hits = [f for f in findings if f.rule == "seg-bounds"]
        assert len(hits) == 1 and hits[0].index == 0
        assert "[8, 8]" in hits[0].message

    def test_same_literal_legal_at_lower_factor(self):
        source = """
            - | blc vs1[8], vs2[0] | -
            - | wb vd[0], and | -
            ret
        """
        assert any(f.rule == "seg-bounds" for f in findings_for(source, 4))
        assert not any(f.rule == "seg-bounds" for f in findings_for(source, 2))

    def test_counter_range_overruns_segments(self):
        # init of 9 sweeps indices 0..8 but n=4 only has segments 0..7.
        findings = findings_for("""
            init seg0, 9
        loop:
            decr seg0 | blc vs1[seg0], vs2[seg0] | -
            - | wb vd[seg0], and | bnz seg0, loop
            ret
        """, factor=4)
        assert any(f.rule == "seg-bounds" and "[0, 8]" in f.message
                   for f in findings)

    def test_reversed_walk_goes_negative(self):
        # 7-seg0 with 9 iterations reaches segment -1.
        findings = findings_for("""
            init seg0, 9
        loop:
            decr seg0 | wr vd[7-seg0] <zeros | -
            - | nop | bnz seg0, loop
            ret
        """, factor=4)
        assert any(f.rule == "seg-bounds" and "[-1, 7]" in f.message
                   for f in findings)

    def test_scalar_data_in_segment_checked(self):
        findings = findings_for("    - | wr vd[0] <scalar[9] | -\n    ret",
                                factor=4)
        assert any(f.rule == "seg-bounds" and "scalar" in f.message
                   for f in findings)


# -- rule 4: structure --------------------------------------------------------


class TestStructure:
    def test_unreachable_tuple_warns(self):
        findings = findings_for("""
            - | nop | jmp end
            - | sclr | -
        end:
            ret
        """)
        hits = [f for f in findings if f.rule == "unreachable"]
        assert len(hits) == 1
        assert hits[0].severity == "warning" and hits[0].index == 1

    def test_fall_off_the_end_is_an_error(self):
        findings = findings_for("    - | nop | -")
        hits = [f for f in findings if f.rule == "no-ret"]
        assert len(hits) == 1 and hits[0].severity == "error"

    def test_jump_past_the_end_is_an_error(self):
        findings = findings_for("""
            - | nop | jmp end
        end:
        """)
        assert any(f.rule == "no-ret" for f in findings)

    def test_ret_everywhere_is_clean(self):
        findings = findings_for("    ret")
        assert findings == []


# -- rule 5: termination ------------------------------------------------------


class TestTermination:
    def test_jmp_self_loop(self):
        findings = findings_for("loop:\n    - | nop | jmp loop")
        hits = [f for f in findings if f.rule == "nontermination"]
        assert len(hits) == 1
        assert "no exit branch" in hits[0].message

    def test_loop_guarded_by_unticked_counter(self):
        # seg1 is decremented but the exit tests seg0: flag never arms.
        findings = findings_for("""
            init seg0, 4
            init seg1, 4
        loop:
            decr seg1 | nop | bnz seg0, loop
            ret
        """)
        hits = [f for f in findings if f.rule == "nontermination"]
        assert len(hits) == 1
        assert "seg0" in hits[0].message and "never ticked" in hits[0].message

    def test_counted_loop_terminates(self):
        findings = findings_for("""
            init seg0, 4
        loop:
            decr seg0 | sclr | bnz seg0, loop
            ret
        """)
        assert "nontermination" not in rules_of(findings)

    def test_nested_loops_terminate(self):
        program = MacroOpRom(4).program("mul")
        assert lint_program(program, 4) == []


# -- rule 6: intra-tuple hazards ----------------------------------------------


class TestTupleHazards:
    def test_branch_on_counter_inited_same_tuple(self):
        findings = findings_for("""
        loop:
            init seg0, 4 | nop | bnz seg0, loop
            ret
        """)
        hits = [f for f in findings if f.rule == "tuple-hazard"]
        assert len(hits) == 1
        assert hits[0].severity == "error" and "init" in hits[0].message

    def test_address_through_counter_inited_same_tuple_warns(self):
        findings = findings_for("""
            init seg0, 4 | blc vs1[seg0], vs1[seg0] | -
            - | wb vd[0], and | -
            ret
        """)
        hits = [f for f in findings if f.rule == "tuple-hazard"]
        assert len(hits) == 1 and hits[0].severity == "warning"

    def test_masked_latch_write_back_warns(self):
        findings = findings_for("""
            - | wb mask, data_in <ones | -
            - | blc vs1[0], vs1[0] | -
            - | wb xreg, and masked | -
            ret
        """)
        assert any(f.rule == "tuple-hazard" and f.severity == "warning"
                   and "latch" in f.message for f in findings)

    def test_decr_plus_bnz_same_tuple_is_the_idiom(self):
        # The canonical one-μop-body sweep shares decr and bnz in a tuple.
        findings = findings_for("""
            init seg0, 4
        loop:
            decr seg0 | sclr | bnz seg0, loop
            ret
        """)
        assert "tuple-hazard" not in rules_of(findings)


# -- the diagnostics API ------------------------------------------------------


class TestCheckProgram:
    def test_raises_lint_error_with_findings(self):
        program = assemble("loop:\n    - | nop | jmp loop", name="bad")
        with pytest.raises(LintError) as excinfo:
            check_program(program, 4)
        assert excinfo.value.findings
        assert any(f.rule == "nontermination" for f in excinfo.value.findings)
        assert isinstance(excinfo.value, ReproError)

    def test_returns_warnings_without_raising(self):
        program = assemble("""
            - | nop | jmp end
            - | sclr | -
        end:
            ret
        """, name="deadcode")
        findings = check_program(program, 4)
        assert [f.rule for f in findings] == ["unreachable"]

    def test_finding_str_names_program_and_tuple(self):
        program = assemble("    - | wb vd[0], xor | -\n    ret", name="p")
        finding = lint_program(program, 4)[0]
        assert str(finding).startswith("p[0]: error: latch-uninit")


# -- the shipped ROM (acceptance bar) ----------------------------------------


class TestShippedRomClean:
    @pytest.mark.parametrize("factor", FACTORS)
    def test_every_rom_program_lints_clean(self, factor):
        count, findings = lint_rom(factors=(factor,))
        assert count == len(rom_specs())
        assert findings == [], [str(f) for f in findings]

    def test_lint_rom_macro_filter(self):
        count, findings = lint_rom(factors=(8,), macro="div")
        assert count == 4
        assert findings == []


# -- strict ROM (build-path wiring) ------------------------------------------


class TestStrictRom:
    def test_strict_rom_builds_the_shipped_programs(self):
        rom = MacroOpRom(8, strict=True)
        assert len(rom.program("add")) > 0
        assert rom.cycles("mul") > 0

    def test_verify_sweeps_every_spec(self):
        assert MacroOpRom(16).verify() == len(rom_specs())

    def test_strict_rejects_a_malformed_generator(self, monkeypatch):
        from repro.uops import macroops

        def bad_generator(factor, element_bits, **params):
            b = ProgramBuilder("bad/gen")
            b.label("top")
            b.emit(control=ControlUop("jmp", target="top"))
            return b.build()

        monkeypatch.setitem(macroops.GENERATORS, "add", bad_generator)
        with pytest.raises(LintError):
            MacroOpRom(8, strict=True).program("add")
        # Non-strict ROM still builds it (the seed behaviour).
        assert len(MacroOpRom(8).program("add")) == 2

    def test_second_strict_rom_skips_the_lint(self, monkeypatch):
        from repro.uops import lint

        linted = []
        real = lint.check_program

        def counting(program, *args, **kwargs):
            linted.append(program.name)
            return real(program, *args, **kwargs)

        monkeypatch.setattr(lint, "check_program", counting)
        MacroOpRom(2, strict=True).program("mul")
        first = len(linted)
        MacroOpRom(2, strict=True).program("mul")
        assert len(linted) == first
        # verify() still lints every spec it serves.
        assert MacroOpRom(2).verify() == len(rom_specs())
        assert len(linted) == first + len(rom_specs())


# -- satellite: the executor watchdog ----------------------------------------


class TestWatchdog:
    def _infinite(self):
        b = ProgramBuilder("spin")
        b.label("top")
        b.emit(control=ControlUop("jmp", target="top"))
        return b.build()

    def test_engine_limit_trips(self):
        engine = MicroEngine(max_cycles=100)
        with pytest.raises(MicroExecutionError, match="watchdog"):
            engine.run(self._infinite())

    def test_per_run_override(self):
        engine = MicroEngine()
        with pytest.raises(MicroExecutionError, match="watchdog"):
            engine.run(self._infinite(), max_cycles=10)

    def test_limit_does_not_trip_terminating_programs(self):
        rom = MacroOpRom(4)
        cycles = MicroEngine().run(rom.program("add"))
        assert MicroEngine(max_cycles=cycles).run(rom.program("add")) == cycles

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(MicroExecutionError):
            MicroEngine(max_cycles=0)


# -- satellite: ISA/ROM coverage fail-fast -----------------------------------


class TestRomCoverage:
    def test_shipped_table_has_no_gaps(self):
        from repro.uops.rom import rom_coverage_gaps
        assert rom_coverage_gaps() == []

    def test_gap_names_the_opcode_and_macro(self):
        from repro.uops.rom import rom_coverage_gaps
        fake = {"vfrob": OpInfo(name="vfrob", category=Category.IALU,
                                macro="frobnicate")}
        assert rom_coverage_gaps(fake) == ["vfrob -> frobnicate"]

    def test_import_time_check_raises_isa_error(self, monkeypatch):
        from repro.uops import rom as rom_module
        fake = dict(rom_module.OPCODES)
        fake["vfrob"] = OpInfo(name="vfrob", category=Category.IALU,
                               macro="frobnicate")
        monkeypatch.setattr(rom_module, "OPCODES", fake)
        with pytest.raises(IsaError, match="vfrob -> frobnicate"):
            rom_module._check_rom_coverage()
