"""Frozen trace digests: byte-identity gate for trace build.

``tests/reference/trace_digests.json`` holds one sha256 per trace that
the Table III grid builds, at tiny size and at default size: one per
(workload, vlmax), vlmax 0 being the workload's scalar trace.  A digest
covers every field of every event (a gather's or scatter's addresses by
their int64 bytes), the trace's buffer layout and vlmax, and, for a
vector trace, the values of the outputs its kernel returned.  The
outputs matter: the numpy gold models of mmult, vvadd and backprop wrap
through :func:`~repro.isa.intrinsics.wrap32` as the kernels do, so a
wrong wrap would still pass ``verify=True``.

This module checks the tiny digests on every Tier-1 run;
``benchmarks/test_trace_reference.py`` checks the default-size ones.
The file was captured at ``8b51ee3``, while trace events were still
frozen dataclasses, by running this module as a script
(``PYTHONPATH=src python tests/test_trace_reference.py --write
<commit>``).  Regenerate it only deliberately, at a commit whose trace
build you trust, and say why in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.config import all_system_names, make_system
from repro.experiments.systems import trace_vlmax
from repro.isa import ScalarBlock, VectorContext
from repro.workloads import DEFAULT_SEED, REGISTRY

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference",
                              "trace_digests.json")

#: The vlmax of every trace the Table III grid builds (0: scalar trace).
GRID_VLMAXES = tuple(sorted({trace_vlmax(make_system(name))
                             for name in all_system_names()}))


def _access_fields(access):
    addresses = access.addresses
    if addresses is not None:
        addresses = np.asarray(addresses, dtype=np.int64).tobytes().hex()
    return (int(access.base), int(access.stride), int(access.count),
            int(access.elem_bytes), bool(access.is_store), addresses)


def _event_fields(event):
    if isinstance(event, ScalarBlock):
        return ("scalar", int(event.n_instr),
                tuple(_access_fields(a) for a in event.accesses))
    mem = None if event.mem is None else _access_fields(event.mem)
    return ("vector", event.op, int(event.vl), int(event.vd),
            int(event.vs1), int(event.vs2), int(event.scalar),
            bool(event.masked), mem, int(event.vidx), int(event.vold))


def trace_digest(trace, outputs=None):
    """``{"events": n, "sha256": hex}`` of one trace and its kernel's
    outputs (``None`` for a scalar trace)."""
    digest = hashlib.sha256()
    for event in trace.events:
        digest.update(repr(_event_fields(event)).encode())
        digest.update(b"\n")
    buffers = sorted((name, int(base), int(size))
                     for name, (base, size) in trace.buffers.items())
    digest.update(repr((buffers, trace.vlmax)).encode())
    for key in sorted(outputs or {}):
        value = np.ascontiguousarray(outputs[key])
        digest.update(repr((key, value.dtype.str, value.shape)).encode())
        digest.update(value.tobytes())
    return {"events": len(trace.events), "sha256": digest.hexdigest()}


def build_digest(workload, vlmax, params):
    """The digest of the trace the grid builds for ``(workload,
    vlmax)``: :meth:`~repro.workloads.base.Workload.vector_trace`'s
    build, keeping the kernel's outputs, or the scalar trace."""
    if vlmax == 0:
        return trace_digest(workload.scalar_trace(params))
    params = workload.resolve(params)
    ctx = VectorContext(vlmax, name=workload.name)
    outputs = workload.kernel(ctx, workload.make_inputs(params, DEFAULT_SEED),
                              params)
    return trace_digest(ctx.finalize_trace(), outputs)


def workload_digests(name, size):
    """Every grid vlmax's digest for one workload, at ``size``
    (``"tiny"`` or ``"default"``)."""
    workload = REGISTRY[name]
    params = dict(workload.tiny_params) if size == "tiny" else None
    return {str(vlmax): build_digest(workload, vlmax, params)
            for vlmax in GRID_VLMAXES}


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def test_reference_covers_every_grid_build(reference):
    for size in ("tiny", "default"):
        assert sorted(reference[size]) == sorted(REGISTRY)
        for name in REGISTRY:
            assert sorted(reference[size][name], key=int) == \
                [str(vlmax) for vlmax in GRID_VLMAXES]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_tiny_traces_match_the_reference(name, reference):
    assert workload_digests(name, "tiny") == reference["tiny"][name]


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_trace_reference.py --write <commit>")
    doc = {"captured_at": sys.argv[2],
           "description": "sha256 of every event field, the buffers, the "
                          "vlmax and the kernel outputs of each trace the "
                          "Table III grid builds, keyed workload -> vlmax "
                          "(0: scalar trace)"}
    for size in ("tiny", "default"):
        doc[size] = {name: workload_digests(name, size)
                     for name in sorted(REGISTRY)}
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"captured {REFERENCE_PATH} at {sys.argv[2]}; name that commit "
          "in this module's docstring")
