"""Static-analyzer unit tests: every checker rule fires on an injected
defect (with the offending instruction index) and stays silent on all
seven shipped workloads at default parameters."""

import numpy as np
import pytest

from repro.analysis import (DepGraph, TraceColumns, analyze_trace,
                            build_depgraph, build_footprint, check_trace,
                            require_clean)
from repro.errors import AnalysisError, IsaError
from repro.isa.instructions import MemAccess, VectorInstr
from repro.isa.trace import Trace
from repro.workloads import REGISTRY, workload_names

VLMAX = 8


def make_trace(events, vlmax=VLMAX, buffers=None):
    trace = Trace("unit")
    trace.vlmax = vlmax
    trace.buffers = buffers or {}
    for event in events:
        trace.append(event)
    return trace


def setvl(avl, vl=None, vlmax=VLMAX):
    return VectorInstr(op="vsetvl", vl=min(avl, vlmax) if vl is None else vl,
                       scalar=avl)


def splat(vd, value, vl=VLMAX):
    return VectorInstr(op="vmv", vl=vl, vd=vd, scalar=value)


def vadd(vd, vs1, vs2, vl=VLMAX, **kw):
    return VectorInstr(op="vadd", vl=vl, vd=vd, vs1=vs1, vs2=vs2, **kw)


def findings_with(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestCheckerRules:
    def test_uninit_read_fires_with_index(self):
        trace = make_trace([setvl(8), vadd(2, 1, 3)])
        hits = findings_with(check_trace(trace), "uninit-read")
        assert {f.index for f in hits} == {1}
        assert all(f.severity == "error" for f in hits)

    def test_dead_write_fires_with_index(self):
        trace = make_trace([setvl(8), splat(1, 7), splat(1, 9),
                            vadd(2, 1, 1)])
        hits = findings_with(check_trace(trace), "dead-write")
        assert [f.index for f in hits] == [1]

    def test_live_out_value_is_not_a_dead_write(self):
        trace = make_trace([setvl(8), splat(1, 7)])
        assert not findings_with(check_trace(trace), "dead-write")

    def test_oob_footprint_fires_with_index(self):
        load = VectorInstr(op="vle32", vl=8, vd=1,
                           mem=MemAccess(base=0x1000, stride=4, count=16,
                                         is_store=False))
        trace = make_trace([setvl(8), load],
                           buffers={"a": (0x1000, 32)})
        hits = findings_with(check_trace(trace), "oob-footprint")
        assert [f.index for f in hits] == [1]

    def test_in_bounds_footprint_is_clean(self):
        load = VectorInstr(op="vle32", vl=8, vd=1,
                           mem=MemAccess(base=0x1000, stride=4, count=8,
                                         is_store=False))
        trace = make_trace([setvl(8), load],
                           buffers={"a": (0x1000, 32)})
        assert not findings_with(check_trace(trace), "oob-footprint")

    def test_no_declared_buffers_disables_oob(self):
        load = VectorInstr(op="vle32", vl=8, vd=1,
                           mem=MemAccess(base=0x1000, stride=4, count=16,
                                         is_store=False))
        trace = make_trace([setvl(8), load], buffers={})
        assert not findings_with(check_trace(trace), "oob-footprint")

    def test_avl_vlmax_overgrant_fires_with_index(self):
        trace = make_trace([setvl(16, vl=16)])   # grant must be min(16, 8)
        hits = findings_with(check_trace(trace), "avl-vlmax")
        assert [f.index for f in hits] == [0]

    def test_vl_not_matching_grant_fires(self):
        trace = make_trace([setvl(4), splat(1, 7, vl=8)])
        hits = findings_with(check_trace(trace), "avl-vlmax")
        assert [f.index for f in hits] == [1]

    def test_instr_before_any_vsetvl_fires(self):
        trace = make_trace([splat(1, 7, vl=8)])
        hits = findings_with(check_trace(trace), "avl-vlmax")
        assert [f.index for f in hits] == [0]
        assert "before any vsetvl" in hits[0].message

    def test_vl_rules_gated_on_recorded_vlmax(self):
        trace = make_trace([setvl(16, vl=16)], vlmax=None)
        assert not findings_with(check_trace(trace), "avl-vlmax")

    def test_overlap_hazard_fires_with_index(self):
        trace = make_trace([setvl(8), splat(1, 7), vadd(1, 1, 1)])
        hits = findings_with(check_trace(trace), "overlap-hazard")
        assert [f.index for f in hits] == [2]

    def test_same_source_twice_is_not_an_overlap(self):
        trace = make_trace([setvl(8), splat(1, 7), vadd(2, 1, 1)])
        assert not findings_with(check_trace(trace), "overlap-hazard")

    def test_mask_undefined_fires_with_index(self):
        trace = make_trace([setvl(8), splat(1, 7), splat(2, 0),
                            vadd(3, 1, 2, masked=True)])
        hits = findings_with(check_trace(trace), "mask-undefined")
        assert [f.index for f in hits] == [3]

    def test_narrow_mask_fires(self):
        compare = VectorInstr(op="vmslt", vl=4, vd=0, vs1=1, vs2=2)
        trace = make_trace([setvl(4), splat(1, 7, vl=4), splat(2, 0, vl=4),
                            compare, setvl(8), splat(3, 1),
                            vadd(4, 3, 3, masked=True)])
        hits = findings_with(check_trace(trace), "mask-undefined")
        assert [f.index for f in hits] == [6]

    def test_reduction_order_fires_with_index(self):
        fold = VectorInstr(op="vredsum", vl=8, vs1=1)
        trace = make_trace([setvl(4), splat(1, 7, vl=4), setvl(8), fold])
        hits = findings_with(check_trace(trace), "reduction-order")
        assert [f.index for f in hits] == [3]

    def test_tail_undefined_warns_with_index(self):
        trace = make_trace([setvl(4), splat(1, 7, vl=4), setvl(8),
                            vadd(2, 1, 1)])
        hits = findings_with(check_trace(trace), "tail-undefined")
        assert [f.index for f in hits] == [3]
        assert all(f.severity == "warning" for f in hits)

    def test_vmv_s_x_zeroed_tail_is_exempt(self):
        scalar_insert = VectorInstr(op="vmv.s.x", vl=1, vd=1, scalar=42)
        fold = VectorInstr(op="vredsum", vl=8, vs1=1)
        trace = make_trace([setvl(8), scalar_insert, vadd(2, 1, 1), fold])
        findings = check_trace(trace)
        assert not findings_with(findings, "tail-undefined")
        assert not findings_with(findings, "reduction-order")
        assert not findings_with(findings, "avl-vlmax")

    def test_fence_runs_at_vl_zero_without_findings(self):
        fence = VectorInstr(op="vmfence", vl=0)
        trace = make_trace([setvl(8), fence])
        assert not check_trace(trace)


class TestRequireClean:
    def test_raises_with_findings_attached(self):
        trace = make_trace([setvl(8), vadd(2, 1, 3)])
        with pytest.raises(AnalysisError) as err:
            require_clean(trace, context="unit")
        assert err.value.findings
        assert all(f.severity == "error" for f in err.value.findings)
        assert "unit" in str(err.value)

    def test_passes_on_clean_trace(self):
        trace = make_trace([setvl(8), splat(1, 7)])
        require_clean(trace)


class TestMemAccessGatherGuard:
    def test_float_addresses_rejected(self):
        with pytest.raises(IsaError):
            MemAccess(addresses=np.zeros(4), count=4)

    def test_negative_addresses_rejected(self):
        with pytest.raises(IsaError):
            MemAccess(addresses=np.array([0, -4], dtype=np.int64), count=2)

    def test_pattern_running_below_zero_rejected(self):
        with pytest.raises(IsaError):
            MemAccess(base=0, stride=-4, count=2)

    def test_pattern_starting_below_zero_rejected(self):
        with pytest.raises(IsaError):
            MemAccess(base=-64, stride=4, count=2)

    def test_integer_addresses_accepted(self):
        access = MemAccess(addresses=np.array([0, 4], dtype=np.int64),
                           count=2)
        assert access.element_addresses().tolist() == [0, 4]


class TestDefUseView:
    def test_defs_uses_and_liveness(self):
        trace = make_trace([setvl(8), splat(1, 7), vadd(2, 1, 1),
                            splat(1, 9)])
        cols = TraceColumns(trace)
        # Def positions follow program order: v1 @1, v2 @2, v1 @3.
        assert cols.def_event.tolist() == [1, 2, 3]
        assert cols.def_reg.tolist() == [1, 2, 1]
        assert cols.def_killed_by.tolist() == [3, -1, -1]
        # Both reads of event 2 bind to the first def, which is used
        # before the overwrite, so it is not a dead write.
        assert cols.use_def.tolist() == [0, 0]
        assert cols.use_event.tolist() == [2, 2]
        assert cols.use_reg.tolist() == [1, 1]
        assert cols.dead_def_positions().tolist() == []
        assert cols.live_out() == {1: 2, 2: 1}
        assert cols.def_event[cols.live_out()[1]] == 3
        assert cols.live_high_water() == 2

    def test_uninit_uses_reported(self):
        cols = TraceColumns(make_trace([setvl(8), vadd(2, 1, 1)]))
        uninit = cols.use_def < 0
        assert list(zip(cols.use_event[uninit].tolist(),
                        cols.use_reg[uninit].tolist())) == [(1, 1), (1, 1)]


class TestAnalyzeTrace:
    def test_summary_and_depgraph_shape(self):
        trace = make_trace([setvl(8), splat(1, 7), vadd(2, 1, 1),
                            vadd(3, 2, 2)])
        report = analyze_trace(trace)
        assert report.summary.events == 4
        assert report.summary.vector_instrs == 4
        assert report.summary.errors == 0
        assert isinstance(report.depgraph, DepGraph)
        # the vadd chain forces depth >= 3 (splat -> vadd -> vadd)
        assert report.summary.dep_depth >= 3
        order = report.depgraph.topological_order()
        assert sorted(order) == list(range(4))

    def test_lite_footprint_skips_detail(self):
        load = VectorInstr(op="vle32", vl=8, vd=1,
                           mem=MemAccess(base=0x1000, stride=4, count=8,
                                         is_store=False))
        trace = make_trace([setvl(8), load], buffers={"a": (0x1000, 32)})
        lite = build_footprint(trace, with_deps=False)
        assert not lite.has_deps and not lite.accesses and not lite.edges
        full = build_footprint(trace, with_deps=True)
        assert full.has_deps and len(full.accesses) == 1
        assert full.touched["a"] == [(0x1000, 0x1020)]


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_workloads_are_analysis_clean(name):
    trace = REGISTRY[name].vector_trace(vlmax=2048, verify=False)
    assert trace.vlmax == 2048
    assert trace.buffers
    findings = check_trace(trace)
    assert findings == [], [str(f) for f in findings[:5]]


def test_columns_empty_trace():
    cols = TraceColumns(Trace("empty"))
    assert cols.live_high_water() == 0
    assert not cols.live_out()
    graph = build_depgraph(Trace("empty"))
    assert graph.n_nodes == 0 and graph.n_edges == 0
