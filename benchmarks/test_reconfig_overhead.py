"""Section V-E — ephemeral spawn/teardown overhead.

The paper's claim: spawn cost scales linearly with the resident lines in
the carved-out ways (constant cycles per line, plus a write-back for dirty
lines); teardown is free.
"""

import numpy as np
import pytest

from repro.config import make_system
from repro.experiments import format_table
from repro.mem import CacheArray, spawn_cost, teardown_cost

from conftest import show


def warm(cache: CacheArray, n_lines: int, dirty_ratio: float, seed=11):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, cache.config.lines * 8, n_lines) * 64
    for addr in addrs:
        if not cache.lookup(int(addr), False):
            cache.fill(int(addr), dirty=rng.random() < dirty_ratio)


def sweep():
    rows = []
    for occupancy in (0.0, 0.25, 0.5, 0.75, 1.0):
        for dirty in (0.0, 0.5, 1.0):
            l2 = CacheArray(make_system("O3").l2)
            warm(l2, int(l2.config.lines * occupancy * 1.3), dirty)
            cost = spawn_cost(l2)
            rows.append([occupancy, dirty, cost.lines_walked,
                         cost.dirty_lines, cost.cycles])
    return rows


def test_spawn_cost_scaling(benchmark):
    rows = benchmark(sweep)
    show("Section V-E: spawn cost vs resident L2 state", format_table(
        ["occupancy", "dirty_ratio", "lines", "dirty", "cycles"], rows))
    # Linear in lines: cycles == lines + 4 * dirty (the model's constants).
    for _, _, lines, dirty, cycles in rows:
        assert cycles == lines + 4 * dirty
    # Monotone in occupancy for a fixed dirty ratio.
    clean = [r for r in rows if r[1] == 0.0]
    walked = [r[2] for r in clean]
    assert walked == sorted(walked)
    # Spawn cost is bounded by a full walk of the carved-out ways.
    l2_lines = make_system("O3").l2.lines
    for _, _, lines, _dirty, _cycles in rows:
        assert lines <= l2_lines // 2


def test_teardown_is_free(benchmark):
    cost = benchmark(teardown_cost)
    assert cost.is_free


def test_spawn_negligible_vs_workload(benchmark, runner):
    """Even a worst-case spawn (full dirty EVE ways) is small next to one
    kernel invocation — the engine is genuinely 'ephemeral'."""
    def worst_case():
        l2 = CacheArray(make_system("O3").l2)
        warm(l2, l2.config.lines * 3, 1.0)
        return spawn_cost(l2)
    cost = benchmark(worst_case)
    kernel_cycles = runner.run("O3+EVE-8", "vvadd").cycles
    assert cost.cycles < 0.6 * kernel_cycles
