"""Static analyzer for micro-programs: CFG + dataflow verification.

Because EVE control flow is data-independent, a micro-program's CFG
(:mod:`repro.uops.cfg`) is exact, and the checks below are sound
verifications of the hand-written ROM listings rather than heuristics.
Six rule families are enforced:

``counter-uninit`` (rule 1)
    A counter is consumed — ``decr``/``incr``, a ``bnz``/``bnd`` test, or a
    ``CounterSeg`` address — on some path where no ``init`` has executed.
``latch-uninit`` (rule 2)
    A latch (``carry``, ``mask``, ``xreg``, ``link``), the data-in port, or
    a compute result (bit-line stack, constant shifter) is consumed before
    a producer is guaranteed to have run on every path to the use.
``seg-bounds`` (rule 3)
    A ``RowRef``/``DataIn`` segment resolves outside ``[0, segments)`` for
    the given parallelization factor; ``CounterSeg`` ranges are derived
    from the ``init`` values reaching the use.
``unreachable`` / ``no-ret`` (rule 4)
    Dead tuples, and control running off the end of the listing without a
    ``ret`` (the hardware μsequencer would fetch the next ROM program).
``nontermination`` (rule 5)
    A CFG cycle with no exit branch, or whose only exit branches test
    counters never ticked inside the cycle (their flags can never arm).
``tuple-hazard`` (rule 6)
    Intra-tuple structural hazards between the counter / arithmetic /
    control slots, e.g. branching on a counter initialized in the same
    cycle (``init`` just cleared the flags the branch tests).

Severities: every rule reports ``error`` except dead code (``unreachable``)
and the advisory hazards, which are ``warning``.  :func:`check_program`
raises :class:`~repro.errors.LintError` when errors are present;
``repro lint`` exits non-zero on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..config import EVE_FACTORS
from ..errors import LintError
from .cfg import ControlFlowGraph
from .program import MicroProgram
from .uop import ArithUop, CounterSeg, RowRef, SegSpec, UopTuple

ERROR = "error"
WARNING = "warning"

#: The six rule families (rule 4 contributes two finding kinds).
RULES = (
    "counter-uninit",   # 1
    "latch-uninit",     # 2
    "seg-bounds",       # 3
    "unreachable",      # 4a
    "no-ret",           # 4b
    "nontermination",   # 5
    "tuple-hazard",     # 6
)

#: Sentinel in a reaching-init set: "no init on some path".
_UNINIT = None

#: Write-back sources fed by the bit-line compute stack (need a blc).
_BLC_SOURCES = frozenset({"and", "nand", "or", "nor", "xor", "xnor", "add"})

_LATCH_DESTS = {
    "carry": "carry",
    "mask": "mask",
    "mask_groups": "mask",
    "xreg": "xreg",
    "link": "link",
}

_LATCH_WHAT = {
    "carry": "the carry flip-flop",
    "mask": "the mask latch state",
    "xreg": "the XRegister",
    "link": "the spare-shifter link bit",
    "data_in": "the data-in port",
    "blc": "the bit-line compute stack",
    "shift": "the constant shifter",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by the analyzer."""

    rule: str
    severity: str
    program: str
    index: int          # tuple index; -1 for whole-program findings
    message: str

    def __str__(self) -> str:
        where = f"[{self.index}]" if self.index >= 0 else ""
        return f"{self.program}{where}: {self.severity}: {self.rule}: {self.message}"


def lint_program(program: MicroProgram, factor: int,
                 element_bits: int = 32) -> List[Finding]:
    """Run every rule over ``program`` for one parallelization factor."""
    cfg = ControlFlowGraph(program)
    findings: List[Finding] = []
    findings += _check_structure(cfg)
    if not program.tuples:
        return findings
    findings += _check_counters(cfg, factor, element_bits)
    findings += _check_latches(cfg)
    findings += _check_termination(cfg)
    findings += _check_tuple_hazards(program)
    findings.sort(key=lambda f: (f.index, RULES.index(f.rule), f.message))
    return findings


def check_program(program: MicroProgram, factor: int,
                  element_bits: int = 32) -> List[Finding]:
    """Lint and raise :class:`LintError` on error findings.

    Returns the full finding list (warnings included) when clean enough.
    """
    findings = lint_program(program, factor, element_bits)
    errors = [f for f in findings if f.severity == ERROR]
    if errors:
        raise LintError(
            f"{program.name}: {len(errors)} static-verification error(s): "
            + "; ".join(str(f) for f in errors[:5])
            + ("; ..." if len(errors) > 5 else ""),
            findings=findings)
    return findings


def lint_rom(factors: Sequence[int] = EVE_FACTORS,
             element_bits: int = 32,
             macro: Optional[str] = None) -> Tuple[int, List[Finding]]:
    """Lint every ROM program for every ``factor``.

    Returns ``(programs_linted, findings)``.  ``macro`` restricts the sweep
    to one macro-operation name.
    """
    from .rom import MacroOpRom, rom_specs

    findings: List[Finding] = []
    count = 0
    for factor in factors:
        rom = MacroOpRom(factor, element_bits)
        for name, params in rom_specs():
            if macro is not None and name != macro:
                continue
            program = rom.program(name, **params)
            findings += lint_program(program, factor, element_bits)
            count += 1
    return count, findings


# -- rule 4: structure --------------------------------------------------------


def _check_structure(cfg: ControlFlowGraph) -> List[Finding]:
    program = cfg.program
    findings = []
    if not program.tuples:
        return [Finding("no-ret", ERROR, program.name, -1,
                        "program is empty (no tuples, no ret)")]
    reach = cfg.reachable
    for i in range(len(program.tuples)):
        if i not in reach:
            findings.append(Finding(
                "unreachable", WARNING, program.name, i,
                "tuple is unreachable from the program entry"))
    reported_off_end = set()
    for edge in cfg.predecessors(cfg.exit_node):
        if edge.kind != "ret" and edge.src in reach and edge.src not in reported_off_end:
            reported_off_end.add(edge.src)
            findings.append(Finding(
                "no-ret", ERROR, program.name, edge.src,
                "control falls off the end of the program without a ret"))
    return findings


# -- rules 1 + 3: counter dataflow -------------------------------------------

# State: counter name -> frozenset of reaching init values, where the
# sentinel None (_UNINIT) marks "no init on some path".  A counter absent
# from the mapping is wholly uninitialized.

_CounterState = Dict[str, FrozenSet[object]]


def _counter_reads(tup: UopTuple) -> Iterator[Tuple[str, str]]:
    """Yield ``(counter, how)`` for every counter *consumed* by a tuple,
    in slot execution order (counter → arithmetic → control)."""
    if tup.counter is not None and tup.counter.kind in ("decr", "incr"):
        yield tup.counter.counter, f"{tup.counter.kind}'d"
    if tup.arith is not None:
        for _, seg in _seg_specs(tup.arith):
            if isinstance(seg, CounterSeg):
                yield seg.counter, "used for addressing"
    if tup.control is not None and tup.control.kind in ("bnz", "bnd"):
        yield tup.control.counter, f"tested by {tup.control.kind}"


def _seg_specs(uop: ArithUop) -> Iterator[Tuple[str, SegSpec]]:
    """Yield ``(operand description, seg spec)`` for every segment operand."""
    for label, ref in (("a", uop.a), ("b", uop.b)):
        if isinstance(ref, RowRef):
            yield f"{ref.reg} ({label})", ref.seg
    if isinstance(uop.dest, RowRef):
        yield f"{uop.dest.reg} (dest)", uop.dest.seg
    if uop.data_in is not None and uop.data_in.kind == "scalar_seg":
        yield "scalar data-in", uop.data_in.seg


def _counter_transfer(state: _CounterState, tup: UopTuple) -> _CounterState:
    if tup.counter is not None and tup.counter.kind == "init":
        state = dict(state)
        state[tup.counter.counter] = frozenset({tup.counter.value})
    return state


def _merge_counter_states(states: Iterable[_CounterState]) -> _CounterState:
    merged: _CounterState = {}
    states = list(states)
    keys = set()
    for state in states:
        keys |= set(state)
    for key in keys:
        values: set = set()
        for state in states:
            values |= state.get(key, frozenset({_UNINIT}))
        merged[key] = frozenset(values)
    return merged


def _counter_fixpoint(cfg: ControlFlowGraph) -> Dict[int, _CounterState]:
    """Forward may-analysis: reaching init values per node (in-states)."""
    program = cfg.program
    reach = cfg.reachable
    instates: Dict[int, _CounterState] = {0: {}}
    worklist = [0]
    while worklist:
        node = worklist.pop()
        if node == cfg.exit_node:
            continue
        out = _counter_transfer(instates.get(node, {}), program.tuples[node])
        for edge in cfg.successors(node):
            if edge.dst not in reach or edge.dst == cfg.exit_node:
                continue
            if edge.dst not in instates:
                instates[edge.dst] = out
                worklist.append(edge.dst)
            else:
                merged = _merge_counter_states([instates[edge.dst], out])
                if merged != instates[edge.dst]:
                    instates[edge.dst] = merged
                    worklist.append(edge.dst)
    return instates


def _seg_range(seg: CounterSeg, inits: FrozenSet[object]) -> Tuple[int, int]:
    """Segment index range over every reaching init value (index 0..V-1)."""
    lo, hi = None, None
    for value in inits:
        if value is _UNINIT:
            continue
        first = seg.base
        last = seg.base + seg.step * (int(value) - 1)
        lo = min(first, last) if lo is None else min(lo, first, last)
        hi = max(first, last) if hi is None else max(hi, first, last)
    return (seg.base, seg.base) if lo is None else (lo, hi)


def _check_counters(cfg: ControlFlowGraph, factor: int,
                    element_bits: int) -> List[Finding]:
    program = cfg.program
    segments = element_bits // factor
    instates = _counter_fixpoint(cfg)
    findings = []
    for node, state in sorted(instates.items()):
        tup = program.tuples[node]
        # Apply the counter slot first: an init covers same-tuple reads.
        effective = _counter_transfer(state, tup)
        seen = set()
        for counter, how in _counter_reads(tup):
            inits = effective.get(counter, frozenset({_UNINIT}))
            if _UNINIT in inits and (counter, how) not in seen:
                seen.add((counter, how))
                findings.append(Finding(
                    "counter-uninit", ERROR, program.name, node,
                    f"counter '{counter}' {how} but no init reaches this "
                    "tuple on every path"))
        if tup.arith is None:
            continue
        for operand, seg in _seg_specs(tup.arith):
            if isinstance(seg, CounterSeg):
                inits = effective.get(seg.counter, frozenset({_UNINIT}))
                lo, hi = _seg_range(seg, inits)
            else:
                lo = hi = int(seg)
            if lo < 0 or hi >= segments:
                findings.append(Finding(
                    "seg-bounds", ERROR, program.name, node,
                    f"segment of {operand} resolves to [{lo}, {hi}] but "
                    f"n={factor} gives only segments [0, {segments - 1}]"))
    return findings


# -- rule 2: latch dataflow ---------------------------------------------------


def _latch_events(uop: ArithUop) -> List[Tuple[str, str, str]]:
    """``("use" | "def", latch, how)`` events of one arithmetic μop, in
    execution order.  The data-in port is driven before the μop body
    (see :meth:`MicroEngine._apply_arith`), so its def comes first."""
    events: List[Tuple[str, str, str]] = []
    if uop.data_in is not None:
        events.append(("def", "data_in", ""))
    kind = uop.kind
    if kind == "wr":
        events.append(("use", "data_in", "written to the array by wr"))
        if uop.masked:
            events.append(("use", "mask", "gating a masked wr"))
    elif kind == "wb":
        src = uop.src
        if src == "data_in":
            events.append(("use", "data_in", "written back from the port"))
        elif src == "shift":
            events.append(("use", "shift", "written back (needs a prior rd)"))
        elif src == "mask":
            events.append(("use", "mask", "written back as a value"))
        elif src in _BLC_SOURCES:
            events.append(("use", "blc", f"feeding write-back source '{src}'"))
            if src == "add":
                events.append(("use", "carry", "summed as the carry-in"))
        if uop.masked and not isinstance(uop.dest, str):
            events.append(("use", "mask", "gating a masked wb"))
        if src == "add":
            events.append(("def", "carry", ""))
        if isinstance(uop.dest, str) and uop.dest in _LATCH_DESTS:
            events.append(("def", _LATCH_DESTS[uop.dest], ""))
    elif kind in ("lshift", "rshift"):
        if uop.conditional:
            events.append(("use", "mask", f"conditioning {kind}"))
        events.append(("use", "link", f"ferried into {kind}"))
        events.append(("def", "link", ""))
    elif kind in ("lrot", "rrot"):
        if uop.conditional:
            events.append(("use", "mask", f"conditioning {kind}"))
    elif kind in ("mask_shft", "mask_shftl"):
        events.append(("use", "xreg", f"walked by {kind}"))
        events.append(("def", "mask", ""))
    elif kind == "mask_carry":
        events.append(("use", "carry", "loaded into the mask latches"))
        events.append(("def", "mask", ""))
    elif kind == "sclr":
        events.append(("def", "link", ""))
    elif kind == "blc":
        events.append(("def", "blc", ""))
    elif kind == "rd":
        events.append(("def", "shift", ""))
    return events


def _latch_transfer(written: FrozenSet[str], tup: UopTuple) -> FrozenSet[str]:
    if tup.arith is None:
        return written
    produced = {latch for event, latch, _ in _latch_events(tup.arith)
                if event == "def"}
    return written | produced if produced else written


def _check_latches(cfg: ControlFlowGraph) -> List[Finding]:
    """Must-analysis: a latch use is clean only when a producer runs on
    *every* entry path (equivalently: a producing tuple dominates the use,
    or an earlier μop event of the same tuple produces it)."""
    program = cfg.program
    reach = cfg.reachable
    instates: Dict[int, FrozenSet[str]] = {0: frozenset()}
    worklist = [0]
    while worklist:
        node = worklist.pop()
        if node == cfg.exit_node:
            continue
        out = _latch_transfer(instates[node], program.tuples[node])
        for edge in cfg.successors(node):
            if edge.dst not in reach or edge.dst == cfg.exit_node:
                continue
            if edge.dst not in instates:
                instates[edge.dst] = out
                worklist.append(edge.dst)
            else:
                merged = instates[edge.dst] & out
                if merged != instates[edge.dst]:
                    instates[edge.dst] = merged
                    worklist.append(edge.dst)
    findings = []
    for node, written in sorted(instates.items()):
        tup = program.tuples[node]
        if tup.arith is None:
            continue
        have = set(written)
        for event, latch, how in _latch_events(tup.arith):
            if event == "def":
                have.add(latch)
            elif latch not in have:
                findings.append(Finding(
                    "latch-uninit", ERROR, program.name, node,
                    f"{_LATCH_WHAT[latch]} is {how} but no producer "
                    "reaches this tuple on every path"))
    return findings


# -- rule 5: termination ------------------------------------------------------


def _check_termination(cfg: ControlFlowGraph) -> List[Finding]:
    program = cfg.program
    findings = []
    for scc in cfg.sccs():
        nodes = set(scc)
        ticked = set()
        for i in scc:
            counter = program.tuples[i].counter
            if counter is not None and counter.kind in ("decr", "incr"):
                ticked.add(counter.counter)
        exit_guards = []
        for i in scc:
            for edge in cfg.successors(i):
                if edge.dst in nodes:
                    continue
                ctrl = program.tuples[i].control
                if ctrl is not None and ctrl.kind in ("bnz", "bnd"):
                    exit_guards.append((i, ctrl.counter))
        if not exit_guards:
            findings.append(Finding(
                "nontermination", ERROR, program.name, min(scc),
                f"loop over tuples {scc} has no exit branch (infinite loop)"))
        elif not any(counter in ticked for _, counter in exit_guards):
            guards = sorted({counter for _, counter in exit_guards})
            findings.append(Finding(
                "nontermination", ERROR, program.name, min(scc),
                f"loop over tuples {scc} only exits on counter(s) "
                f"{', '.join(guards)} never ticked inside it — the flag "
                "can never arm"))
    return findings


# -- rule 6: intra-tuple hazards ----------------------------------------------


def _check_tuple_hazards(program: MicroProgram) -> List[Finding]:
    findings = []
    for i, tup in enumerate(program.tuples):
        counter, arith, ctrl = tup.parts()
        if counter is not None and counter.kind == "init":
            name = counter.counter
            if ctrl is not None and ctrl.kind in ("bnz", "bnd") \
                    and ctrl.counter == name:
                findings.append(Finding(
                    "tuple-hazard", ERROR, program.name, i,
                    f"{ctrl.kind} tests counter '{name}' in the same tuple "
                    "that inits it — init just cleared the flag, so the "
                    "branch decision is stale"))
            if arith is not None and any(
                    isinstance(seg, CounterSeg) and seg.counter == name
                    for _, seg in _seg_specs(arith)):
                findings.append(Finding(
                    "tuple-hazard", WARNING, program.name, i,
                    f"tuple addresses through counter '{name}' in the same "
                    "cycle that inits it (index is forced to 0)"))
        if arith is not None and arith.kind == "wb" and arith.masked \
                and isinstance(arith.dest, str):
            findings.append(Finding(
                "tuple-hazard", WARNING, program.name, i,
                f"masked write-back to latch '{arith.dest}' — column "
                "masking only applies to wordline destinations"))
    return findings
