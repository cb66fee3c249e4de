"""Default-size trace digests against ``tests/reference/trace_digests.json``.

Tier-1 checks the tiny grid's traces (``tests/test_trace_reference.py``,
which also documents the digest and re-captures the file); this checks
the 42 traces the default-size grid builds: every workload's scalar
trace and its vector trace at each Table III vlmax, events, buffers and
kernel outputs.
"""

import pytest

from repro.workloads import REGISTRY

from tests.test_trace_reference import load_reference, workload_digests


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_default_traces_match_the_reference(name, reference):
    assert workload_digests(name, "default") == reference["default"][name]
