"""Differential fuzzing of the micro-programmed engine (DESIGN.md §11).

Seeded random RVV instruction sequences are executed lockstep through two
contexts that share one workload-facing API:

* the **oracle** — :class:`~repro.isa.intrinsics.VectorContext`, whose
  arithmetic is plain numpy with full 32-bit wrap-around semantics, and
* the **DUT** — :class:`~repro.core.EveFunctionalEngine`, where every
  result comes from executing ROM micro-programs on the bit-level SRAM,
  instantiated at every segment width ``n`` under test.

A case is a small JSON-serialisable program (:class:`FuzzCase`): named
input buffers plus a list of ops whose vector operands are *slot indices*
(op ``i``'s result is slot ``i``).  Per-op observations — every vector and
scalar result, then the final contents of every buffer — are compared
element-wise; the first divergence is the mismatch.  Mismatching cases are
shrunk to a minimal repro (op removal, input simplification, ``avl``
reduction) and written out as replayable JSON.

The generator stays inside the engine's documented bit-exact envelope:
``vmulh``/``vmulhu`` are never emitted, and signed ``vdiv``/``vrem``
operands are first masked non-negative with an explicit ``vand`` guard op
(executed identically by both sides, so it costs no fidelity).  Everything
else — including division by zero, saturating ops, masked ops, slides,
gathers and strided memory — is fair game.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.functional import EveFunctionalEngine
from ..errors import FaultInjectionError
from ..experiments.parallel import fan_out
from ..isa.intrinsics import VectorContext
from ..obs.events import NULL_TELEMETRY, TelemetryMonitor

#: Every segment width the paper's design space covers (bits per segment).
FUZZ_WIDTHS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Current on-disk case format.
CASE_VERSION = 1

#: Default number of ops per generated case (loads and guards excluded).
DEFAULT_OPS = 12

_I32_MIN, _I32_MAX = -(2 ** 31), 2 ** 31 - 1

#: Boundary-heavy value pool: carry-chain and sign-bit corners dominate.
INTERESTING_VALUES = (
    0, 1, -1, 2, -2, 3, _I32_MAX, _I32_MIN, _I32_MAX - 1, _I32_MIN + 1,
    0x55555555, -0x55555556, 0x00FF00FF, 1 << 30, -(1 << 30), 1 << 16, 255,
)

_BINARY_OPS = (
    "vadd", "vsub", "vrsub", "vand", "vor", "vxor",
    "vsll", "vsrl", "vsra", "vmin", "vmax", "vminu", "vmaxu",
    "vmul", "vdiv", "vrem", "vdivu", "vremu",
    "vsadd", "vssub", "vsaddu", "vssubu",
)
_COMPARE_OPS = ("vmseq", "vmsne", "vmslt", "vmsle", "vmsgt", "vmsge")

#: Fields holding a plain slot index, per op dict.
_SLOT_FIELDS = ("a", "mask", "old", "vec", "index")
#: Fields holding an operand spec ({"slot": i} or {"imm": n}).
_OPERAND_FIELDS = ("b", "src")


# ---------------------------------------------------------------------------
# Case representation
# ---------------------------------------------------------------------------


@dataclass
class FuzzCase:
    """One replayable differential test: buffers + a slot-indexed program."""

    seed: int
    vlmax: int
    avl: int
    inputs: Dict[str, List[int]] = field(default_factory=dict)
    ops: List[dict] = field(default_factory=list)
    version: int = CASE_VERSION

    @property
    def vl(self) -> int:
        """The vector length both contexts grant for this case."""
        return min(self.avl, self.vlmax)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version, "seed": self.seed, "vlmax": self.vlmax,
            "avl": self.avl, "inputs": self.inputs, "ops": self.ops,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        try:
            case = cls(seed=int(data["seed"]), vlmax=int(data["vlmax"]),
                       avl=int(data["avl"]),
                       inputs={str(k): [int(v) for v in vals]
                               for k, vals in data["inputs"].items()},
                       ops=[dict(op) for op in data["ops"]],
                       version=int(data.get("version", CASE_VERSION)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultInjectionError(f"malformed fuzz case: {exc}") from exc
        if case.version != CASE_VERSION:
            raise FaultInjectionError(
                f"unsupported fuzz-case version {case.version}")
        return case


@dataclass(frozen=True)
class FuzzMismatch:
    """A shrunk, confirmed oracle/DUT divergence at one segment width."""

    case: FuzzCase
    factor: int
    divergence: dict

    def to_json_dict(self) -> dict:
        return {"factor": self.factor, "divergence": self.divergence,
                "case": self.case.to_json_dict()}


def load_case(path: str) -> FuzzCase:
    """Load a replayable case (accepts both bare-case and mismatch files)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FaultInjectionError(f"cannot read case file {path!r}: {exc}") from exc
    if "case" in data and "ops" not in data:
        data = data["case"]
    return FuzzCase.from_dict(data)


# ---------------------------------------------------------------------------
# Interpreter: one program, either context
# ---------------------------------------------------------------------------


def _resolve(spec, slots):
    """An operand spec is {"slot": i} (a vector) or {"imm": n} (a scalar)."""
    if "slot" in spec:
        return slots[spec["slot"]]
    return int(spec["imm"])


def _apply(ctx, op: dict, slots: list, bufs: dict):
    """Dispatch one op dict against a context; returns the new slot value."""
    name = op["op"]
    if name in _BINARY_OPS:
        method = getattr(ctx, name)
        if "mask" in op:  # masked vadd/vsub with optional merge-old
            old = slots[op["old"]] if "old" in op else None
            return method(slots[op["a"]], _resolve(op["b"], slots),
                          mask=slots[op["mask"]], old=old)
        return method(slots[op["a"]], _resolve(op["b"], slots))
    if name in _COMPARE_OPS:
        return getattr(ctx, name)(slots[op["a"]], _resolve(op["b"], slots))
    if name == "vnot":
        return ctx.vnot(slots[op["a"]])
    if name == "vle32":
        return ctx.vle32(bufs[op["buf"]], op.get("offset", 0))
    if name == "vlse32":
        return ctx.vlse32(bufs[op["buf"]], op.get("offset", 0), op["stride"])
    if name == "vse32":
        mask = slots[op["mask"]] if "mask" in op else None
        ctx.vse32(slots[op["vec"]], bufs[op["buf"]], op.get("offset", 0),
                  mask=mask)
        return None
    if name == "vsse32":
        ctx.vsse32(slots[op["vec"]], bufs[op["buf"]], op.get("offset", 0),
                   op["stride"])
        return None
    if name == "vmerge":
        return ctx.vmerge(slots[op["mask"]], slots[op["a"]],
                          _resolve(op["b"], slots))
    if name == "vmv":
        return ctx.vmv(_resolve(op["src"], slots))
    if name == "viota":
        return ctx.viota(op.get("start", 0), op.get("step", 1))
    if name == "vrgather":
        return ctx.vrgather(slots[op["a"]], slots[op["index"]])
    if name == "vslidedown":
        return ctx.vslidedown(slots[op["a"]], op["offset"])
    if name == "vslideup":
        old = slots[op["old"]] if "old" in op else None
        return ctx.vslideup(slots[op["a"]], op["offset"], old=old)
    if name == "vmv_s_x":
        return ctx.vmv_s_x(op["value"])
    if name == "vmv_x_s":
        return ctx.vmv_x_s(slots[op["a"]])
    if name == "vredsum":
        mask = slots[op["mask"]] if "mask" in op else None
        return ctx.vredsum(slots[op["a"]], op.get("init", 0), mask=mask)
    if name == "vredmax":
        return ctx.vredmax(slots[op["a"]], op.get("init", _I32_MIN))
    if name == "vredmin":
        return ctx.vredmin(slots[op["a"]], op.get("init", _I32_MAX))
    raise FaultInjectionError(f"fuzz case uses unknown op {name!r}")


def run_case(case: FuzzCase, ctx) -> dict:
    """Execute ``case`` on ``ctx``; returns the observation record.

    ``ctx`` is either a :class:`VectorContext` or an
    :class:`EveFunctionalEngine` — the two share the intrinsics API and a
    ``peek`` observation port, so the interpreter is context-agnostic.
    The record holds the granted ``vl``, one observation per op (vector
    results via ``peek``, scalar results verbatim, ``None`` for stores)
    and the final contents of every buffer.
    """
    bufs = {name: ctx.vm.alloc_i32(name, np.array(vals, dtype=np.int64)
                                   .astype(np.int32))
            for name, vals in case.inputs.items()}
    vl = ctx.setvl(case.avl)
    slots: list = []
    observations: list = []
    for op in case.ops:
        result = _apply(ctx, op, slots, bufs)
        slots.append(result)
        if result is None:
            observations.append(None)
        elif isinstance(result, (int, np.integer)):
            observations.append(int(result))
        else:
            observations.append([int(v) for v in ctx.peek(result)])
    return {
        "vl": vl,
        "obs": observations,
        "bufs": {name: buf.data.tolist() for name, buf in bufs.items()},
    }


def _run_guarded(case: FuzzCase, ctx) -> dict:
    try:
        return run_case(case, ctx)
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return {"crash": f"{type(exc).__name__}: {exc}"}


def compare_runs(oracle: dict, dut: dict) -> Optional[dict]:
    """First divergence between two observation records, or ``None``."""
    if "crash" in oracle or "crash" in dut:
        return {"kind": "crash", "oracle": oracle.get("crash"),
                "dut": dut.get("crash")}
    if oracle["vl"] != dut["vl"]:
        return {"kind": "vl", "oracle": oracle["vl"], "dut": dut["vl"]}
    for i, (expect, got) in enumerate(zip(oracle["obs"], dut["obs"])):
        if expect != got:
            return {"kind": "op", "index": i, "oracle": expect, "dut": got}
    for name in oracle["bufs"]:
        if oracle["bufs"][name] != dut["bufs"][name]:
            return {"kind": "buffer", "buffer": name,
                    "oracle": oracle["bufs"][name], "dut": dut["bufs"][name]}
    return None


def run_oracle(case: FuzzCase) -> dict:
    return _run_guarded(case, VectorContext(case.vlmax, name="fuzz"))


def run_dut(case: FuzzCase, factor: int, faults=None) -> dict:
    engine = EveFunctionalEngine(factor, capacity=case.vlmax, faults=faults)
    return _run_guarded(case, engine)


def check_case(case: FuzzCase, widths: Sequence[int] = FUZZ_WIDTHS,
               oracle: Optional[dict] = None) -> List[Tuple[int, dict]]:
    """Run one case at every width; returns [(factor, divergence), ...]."""
    if oracle is None:
        oracle = run_oracle(case)
    failures = []
    for factor in widths:
        divergence = compare_runs(oracle, run_dut(case, factor))
        if divergence is not None:
            failures.append((factor, divergence))
    return failures


def replay_case(case: FuzzCase,
                widths: Sequence[int] = FUZZ_WIDTHS) -> List[Tuple[int, dict]]:
    """Replay a saved case; returns the surviving divergences (ideally [])."""
    return check_case(case, widths)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class _CaseBuilder:
    """Accumulates ops while tracking which slots hold vectors vs masks."""

    def __init__(self) -> None:
        self.ops: List[dict] = []
        self.vecs: List[int] = []
        self.masks: List[int] = []
        self.scalars: List[int] = []

    def emit(self, op: dict, kind: str) -> int:
        slot = len(self.ops)
        self.ops.append(op)
        if kind == "vec":
            self.vecs.append(slot)
        elif kind == "mask":
            self.masks.append(slot)
        elif kind == "scalar":
            self.scalars.append(slot)
        return slot


def _value(rng: random.Random) -> int:
    if rng.random() < 0.6:
        return rng.choice(INTERESTING_VALUES)
    return rng.randint(_I32_MIN, _I32_MAX)


def _values(rng: random.Random, count: int) -> List[int]:
    return [_value(rng) for _ in range(count)]


def _operand(rng: random.Random, build: _CaseBuilder,
             signed_nonneg: bool = False) -> dict:
    """A random operand: an existing vector slot (70%) or an immediate."""
    if build.vecs and rng.random() < 0.7 and not signed_nonneg:
        return {"slot": rng.choice(build.vecs)}
    if signed_nonneg:
        # Signed-division operands must be non-negative on the DUT; zero
        # stays in the pool to exercise the RVV x/0 semantics.
        return {"imm": rng.choice((0, 1, 2, 3, 7, _I32_MAX, 255))}
    return {"imm": _value(rng)}


def _guard_nonneg(rng: random.Random, build: _CaseBuilder, slot: int) -> int:
    """Emit ``vand(slot, INT32_MAX)`` so signed div/rem sees no sign bits."""
    return build.emit({"op": "vand", "a": slot, "b": {"imm": _I32_MAX}}, "vec")


def _ensure_mask(rng: random.Random, build: _CaseBuilder) -> int:
    if build.masks and rng.random() < 0.8:
        return rng.choice(build.masks)
    op = rng.choice(_COMPARE_OPS)
    return build.emit({"op": op, "a": rng.choice(build.vecs),
                       "b": _operand(rng, build)}, "mask")


def generate_case(seed: int, *, vlmax: Optional[int] = None,
                  num_ops: int = DEFAULT_OPS) -> FuzzCase:
    """Deterministically generate one differential test case from a seed."""
    rng = random.Random(seed)
    if vlmax is None:
        vlmax = rng.choice((4, 8, 16, 32, 64))
    # avl may exceed vlmax: both contexts must clamp identically.
    avl = rng.randint(1, vlmax + 3)
    vl = min(avl, vlmax)

    unit_size = vl + 2
    strided_size = 3 * vl  # covers stride <= 3 with offset <= 2
    inputs = {
        "in0": _values(rng, unit_size),
        "in1": _values(rng, unit_size),
        "str0": _values(rng, strided_size),
        "out0": _values(rng, unit_size),     # pre-filled: partial stores show
        "outs": _values(rng, strided_size),
    }

    build = _CaseBuilder()
    build.emit({"op": "vle32", "buf": "in0",
                "offset": rng.randint(0, 2)}, "vec")
    build.emit({"op": "vle32", "buf": "in1",
                "offset": rng.randint(0, 2)}, "vec")
    if rng.random() < 0.6:
        stride = rng.randint(2, 3)
        max_off = strided_size - 1 - stride * (vl - 1)
        build.emit({"op": "vlse32", "buf": "str0",
                    "offset": rng.randint(0, min(2, max_off)),
                    "stride": stride}, "vec")

    choices = (
        ("binary", 10), ("compare", 3), ("masked_arith", 2), ("vmerge", 2),
        ("unary", 2), ("slide", 2), ("gather", 1), ("iota", 1),
        ("reduce", 2), ("splat", 1), ("scalar_move", 1),
        ("store", 2), ("strided_store", 1),
    )
    names = [name for name, _w in choices]
    weights = [w for _n, w in choices]

    for _ in range(num_ops):
        kind = rng.choices(names, weights=weights, k=1)[0]
        if kind == "binary":
            op = rng.choice(_BINARY_OPS)
            a = rng.choice(build.vecs)
            if op in ("vdiv", "vrem"):
                a = _guard_nonneg(rng, build, a)
                b = _operand(rng, build, signed_nonneg=rng.random() < 0.4)
                if "slot" in b:
                    b = {"slot": _guard_nonneg(rng, build, b["slot"])}
                else:
                    b = {"imm": b["imm"] & _I32_MAX}
            else:
                b = _operand(rng, build)
            build.emit({"op": op, "a": a, "b": b}, "vec")
        elif kind == "compare":
            build.emit({"op": rng.choice(_COMPARE_OPS),
                        "a": rng.choice(build.vecs),
                        "b": _operand(rng, build)}, "mask")
        elif kind == "masked_arith":
            mask = _ensure_mask(rng, build)
            op = {"op": rng.choice(("vadd", "vsub")),
                  "a": rng.choice(build.vecs), "b": _operand(rng, build),
                  "mask": mask}
            if rng.random() < 0.5:
                op["old"] = rng.choice(build.vecs)
            build.emit(op, "vec")
        elif kind == "vmerge":
            mask = _ensure_mask(rng, build)
            build.emit({"op": "vmerge", "mask": mask,
                        "a": rng.choice(build.vecs),
                        "b": _operand(rng, build)}, "vec")
        elif kind == "unary":
            build.emit({"op": "vnot", "a": rng.choice(build.vecs)}, "vec")
        elif kind == "slide":
            op = {"op": rng.choice(("vslideup", "vslidedown")),
                  "a": rng.choice(build.vecs),
                  "offset": rng.randint(0, vl + 1)}
            if op["op"] == "vslideup" and rng.random() < 0.5:
                op["old"] = rng.choice(build.vecs)
            build.emit(op, "vec")
        elif kind == "gather":
            # Out-of-range indices are defined (yield 0) on both sides.
            build.emit({"op": "vrgather", "a": rng.choice(build.vecs),
                        "index": rng.choice(build.vecs)}, "vec")
        elif kind == "iota":
            build.emit({"op": "viota", "start": rng.randint(-4, 4),
                        "step": rng.choice((-2, -1, 1, 2, 3))}, "vec")
        elif kind == "reduce":
            op = {"op": rng.choice(("vredsum", "vredmax", "vredmin")),
                  "a": rng.choice(build.vecs)}
            if op["op"] == "vredsum" and build.masks and rng.random() < 0.4:
                op["mask"] = rng.choice(build.masks)
            build.emit(op, "scalar")
        elif kind == "splat":
            build.emit({"op": "vmv", "src": _operand(rng, build)}, "vec")
        elif kind == "scalar_move":
            if rng.random() < 0.5:
                build.emit({"op": "vmv_s_x", "value": _value(rng)}, "vec")
            else:
                build.emit({"op": "vmv_x_s",
                            "a": rng.choice(build.vecs)}, "scalar")
        elif kind == "store":
            op = {"op": "vse32", "vec": rng.choice(build.vecs),
                  "buf": "out0", "offset": rng.randint(0, 2)}
            if rng.random() < 0.4:
                op["mask"] = _ensure_mask(rng, build)
            build.emit(op, "store")
        elif kind == "strided_store":
            stride = rng.randint(2, 3)
            max_off = strided_size - 1 - stride * (vl - 1)
            build.emit({"op": "vsse32", "vec": rng.choice(build.vecs),
                        "buf": "outs",
                        "offset": rng.randint(0, min(2, max_off)),
                        "stride": stride}, "store")

    # Always end by materialising the most recent vector result.
    build.emit({"op": "vse32", "vec": build.vecs[-1], "buf": "out0",
                "offset": 0}, "store")
    return FuzzCase(seed=seed, vlmax=vlmax, avl=avl, inputs=inputs,
                    ops=build.ops)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _refs(op: dict) -> List[int]:
    refs = [op[f] for f in _SLOT_FIELDS if f in op]
    for f in _OPERAND_FIELDS:
        spec = op.get(f)
        if spec is not None and "slot" in spec:
            refs.append(spec["slot"])
    return refs


def _renumber(op: dict, removed: int) -> dict:
    out = dict(op)
    for f in _SLOT_FIELDS:
        if f in out and out[f] > removed:
            out[f] = out[f] - 1
    for f in _OPERAND_FIELDS:
        spec = out.get(f)
        if spec is not None and "slot" in spec and spec["slot"] > removed:
            out[f] = {"slot": spec["slot"] - 1}
    return out


def _without_op(case: FuzzCase, idx: int) -> Optional[FuzzCase]:
    """Remove op ``idx`` if nothing later references its slot."""
    for later in case.ops[idx + 1:]:
        if idx in _refs(later):
            return None
    ops = [(_renumber(op, idx) if j > idx else dict(op))
           for j, op in enumerate(case.ops) if j != idx]
    return replace(case, ops=ops)


def _trace_is_clean(case: FuzzCase) -> Optional[bool]:
    """Whether the case's oracle trace passes the static checkers.

    ``None`` when the oracle crashes mid-case (no trace to analyze —
    the crash itself is the repro)."""
    from ..analysis import check_trace
    ctx = VectorContext(case.vlmax, name="shrink")
    try:
        run_case(case, ctx)
    except Exception:  # noqa: BLE001 - crash repros pass through unchecked
        return None
    trace = ctx.finalize_trace()
    return not any(f.severity == "error" for f in check_trace(trace))


def shrink_case(case: FuzzCase, factor: int,
                max_rounds: int = 20) -> FuzzCase:
    """Greedy delta-debugging: minimise while the divergence persists.

    Three reducers run to fixpoint: drop ops whose slots are dead, zero
    (then one) individual input elements, and shrink ``avl``.  A candidate
    is accepted only if the oracle/DUT comparison at ``factor`` still
    diverges — crashes included, so a repro never shrinks into validity.

    Shrunk repros must also keep passing the static analyzer: trace
    cleanliness is a ratchet.  Random cases may start dirty (e.g. a dead
    compare the generator emitted), and reducers are free to strip the
    offending ops — but once a candidate's oracle trace is
    ``check``-clean, any later candidate that would re-dirty it is
    rejected, so the emitted repro never trades analyzability for size.
    Oracle-crash candidates bypass the ratchet (the crash is the repro).
    """
    must_stay_clean = bool(_trace_is_clean(case))

    def still_fails(candidate: FuzzCase) -> bool:
        if compare_runs(run_oracle(candidate),
                        run_dut(candidate, factor)) is None:
            return False
        clean = _trace_is_clean(candidate)
        return clean is None or clean or not must_stay_clean

    if not still_fails(case):
        return case

    for _ in range(max_rounds):
        changed = False
        # 1. op removal, last-to-first so dependency chains unravel.
        idx = len(case.ops) - 1
        while idx >= 0:
            candidate = _without_op(case, idx)
            if candidate is not None and still_fails(candidate):
                case = candidate
                changed = True
            idx -= 1
        # 2. avl reduction: smallest reproducing vector length wins.
        for avl in range(1, case.avl):
            candidate = replace(case, avl=avl)
            if still_fails(candidate):
                case = candidate
                changed = True
                break
        # 3. input simplification toward 0 (then 1).
        for name in list(case.inputs):
            values = case.inputs[name]
            for i, value in enumerate(values):
                for simple in (0, 1):
                    if value == simple:
                        break
                    trial = dict(case.inputs)
                    trial[name] = values[:i] + [simple] + values[i + 1:]
                    candidate = replace(case, inputs=trial)
                    if still_fails(candidate):
                        case = candidate
                        values = trial[name]
                        changed = True
                        break
        if not changed:
            break
    return case


# ---------------------------------------------------------------------------
# Fuzzing loop
# ---------------------------------------------------------------------------

#: Per-case seeds are spread with a large odd multiplier so campaigns with
#: nearby master seeds never share cases.
SEED_STRIDE = 1_000_003


def fuzz_many(num_seeds: int, *, master_seed: int = 0,
              widths: Sequence[int] = FUZZ_WIDTHS,
              vlmax: Optional[int] = None, num_ops: int = DEFAULT_OPS,
              out_dir: Optional[str] = None,
              progress=None, telemetry=NULL_TELEMETRY) -> List[FuzzMismatch]:
    """Generate and check ``num_seeds`` cases; returns shrunk mismatches.

    Each mismatch is shrunk at the first diverging width and, when
    ``out_dir`` is given, written to ``mismatch-<seed>-n<factor>.json`` in
    a format :func:`load_case` replays directly.  The seeds run in order
    through :func:`~repro.experiments.parallel.fan_out`'s in-process
    loop: a seed that raises does not stop the others, and the first
    failure is re-raised after them.  ``telemetry`` (a
    :class:`~repro.obs.events.CampaignTelemetry`) streams one
    ``seed:<case_seed>`` unit per checked seed; a ``finished`` terminal
    carries the per-seed mismatch count.
    """
    units = [f"seed:{master_seed * SEED_STRIDE + i}"
             for i in range(num_seeds)]
    telemetry.begin(units)
    mismatches: List[FuzzMismatch] = []

    def check_seed(i: int) -> int:
        case_seed = master_seed * SEED_STRIDE + i
        before = len(mismatches)
        case = generate_case(case_seed, vlmax=vlmax, num_ops=num_ops)
        failures = check_case(case, widths)
        for factor, _div in failures:
            shrunk = shrink_case(case, factor)
            divergence = compare_runs(run_oracle(shrunk),
                                      run_dut(shrunk, factor))
            mismatch = FuzzMismatch(case=shrunk, factor=factor,
                                    divergence=divergence or {})
            mismatches.append(mismatch)
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(
                    out_dir, f"mismatch-{case_seed}-n{factor}.json")
                with open(path, "w") as fh:
                    json.dump(mismatch.to_json_dict(), fh, indent=2)
        if progress is not None:
            progress(i + 1, num_seeds, len(mismatches))
        return len(mismatches) - before

    fan_out(check_seed, range(num_seeds), 1, monitor=TelemetryMonitor(
        telemetry, units,
        describe=lambda found: [(False, (), {"mismatches": found}, None,
                                 None, None)]))
    return mismatches
