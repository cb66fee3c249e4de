"""sw — Smith-Waterman local alignment, anti-diagonal vectorised.

Paper input: 2070-character sequences; ours: 384 x 384 over a 4-letter
alphabet.  Diagonals are stored in guard-padded buffers aligned so that
cell (i, j) of diagonal d always sits at position i+1 — the three
recurrence inputs then come from plain unit-stride loads of the two
previous diagonal buffers, the substitution score is an indexed gather
into the scoring matrix (Table IV's idx traffic), and the running best
score is a vector max-reduction per diagonal.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..isa.trace import Trace
from .base import Workload, register

GAP = 2
#: 4x4 substitution matrix (match bonus on the diagonal).
SUBST = np.array([[3, -1, -1, -1],
                  [-1, 3, -1, -1],
                  [-1, -1, 3, -1],
                  [-1, -1, -1, 3]], dtype=np.int32)

SCALAR_INSTRS_PER_CELL = 14
STRIP_OVERHEAD_INSTRS = 10


class SmithWatermanWorkload(Workload):
    name = "sw"
    suite = "genomics"
    params = {"n": 384}
    tiny_params = {"n": 24}

    def make_inputs(self, params, seed: int = 1234) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        n = params["n"]
        return {
            "a": rng.integers(0, 4, n).astype(np.int32),
            "b": rng.integers(0, 4, n).astype(np.int32),
        }

    def reference(self, inputs, params) -> Dict[str, np.ndarray]:
        n = params["n"]
        a, b = inputs["a"].tolist(), inputs["b"].tolist()
        subst = SUBST.tolist()
        # The score matrix one row at a time, in plain ints: h_prev is
        # row i - 1, h row i, and column 0 of every row is 0.
        h_prev = [0] * (n + 1)
        best = 0
        for i in range(1, n + 1):
            scores = subst[a[i - 1]]
            h = [0] * (n + 1)
            for j in range(1, n + 1):
                cell = max(0, h_prev[j - 1] + scores[b[j - 1]],
                           h_prev[j] - GAP, h[j - 1] - GAP)
                h[j] = cell
                if cell > best:
                    best = cell
            h_prev = h
        return {"score": np.array([best])}

    def kernel(self, ctx, inputs, params) -> Dict[str, np.ndarray]:
        n = params["n"]
        a = ctx.vm.alloc_i32("a", inputs["a"])
        b_rev = ctx.vm.alloc_i32("b_rev", inputs["b"][::-1].copy())
        subst = ctx.vm.alloc_i32("subst", SUBST.reshape(-1))
        # Diagonal buffers: position i+1 holds H(i, d-i); guards are 0.
        bufs = [ctx.vm.alloc_i32(f"diag{t}", n + 2) for t in range(3)]
        zeros = ctx.vm.alloc_i32("diag_zero", n + 2)
        # Per-position running maximum (reduced once at the end) — keeps
        # the wavefront free of scalar round trips.
        best_buf = ctx.vm.alloc_i32("best", n + 2)
        ctx.scalar(12)
        for d in range(2 * n - 1):
            prev2 = bufs[(d - 2) % 3] if d >= 2 else zeros
            prev = bufs[(d - 1) % 3] if d >= 1 else zeros
            cur = bufs[d % 3]
            i0 = max(0, d - n + 1)
            i1 = min(d, n - 1)
            offset = i0
            while offset <= i1:
                vl = ctx.setvl(i1 - offset + 1)
                ca = ctx.vle32(a, offset)
                cb = ctx.vle32(b_rev, n - 1 - d + offset)
                idx = ctx.vadd(ctx.vsll(ca, 2), cb)
                s = ctx.vluxei32(subst, idx)
                diag = ctx.vadd(ctx.vle32(prev2, offset), s)
                up = ctx.vadd(ctx.vle32(prev, offset), -GAP)
                left = ctx.vadd(ctx.vle32(prev, offset + 1), -GAP)
                h = ctx.vmax(ctx.vmax(diag, up), ctx.vmax(left, 0))
                ctx.vse32(h, cur, offset + 1)
                running = ctx.vmax(ctx.vle32(best_buf, offset + 1), h)
                ctx.vse32(running, best_buf, offset + 1)
                ctx.scalar(STRIP_OVERHEAD_INSTRS)
                offset += vl
            # The control processor zeroes the guard above the diagonal.
            cur.data[i1 + 2:i1 + 3] = 0
            ctx.scalar(2)
        best = 0
        p = 1
        while p <= n:
            vl = ctx.setvl(n - p + 1)
            best = max(best, ctx.vredmax(ctx.vle32(best_buf, p), init=0))
            p += vl
        return {"score": np.array([best])}

    def scalar_trace(self, params: Optional[dict] = None) -> Trace:
        params = self.resolve(params)
        n = params["n"]
        inputs = self.make_inputs(params)
        ctx = self._scalar_ctx()
        a = ctx.vm.alloc_i32("a", inputs["a"])
        b = ctx.vm.alloc_i32("b", inputs["b"])
        h_prev = ctx.vm.alloc_i32("h_prev", n + 1)
        h_cur = ctx.vm.alloc_i32("h_cur", n + 1)
        for i in range(n):
            ctx.block(n * SCALAR_INSTRS_PER_CELL, [
                ctx.load_pattern(a, i, 1),
                ctx.load_pattern(b, 0, n),
                ctx.load_pattern(h_prev, 0, n + 1),
                ctx.load_pattern(h_cur, 0, n),
                ctx.store_pattern(h_cur, 0, n + 1),
            ])
        return ctx.trace


register(SmithWatermanWorkload())
