"""The benchmark's workloads run and pass their checks, and its traced run wraps package functions that exist."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_traced_attribute_resolves(name):
    plan = workloads.WORKLOADS[name](0).trace_plan()
    assert plan
    missing = [(owner, attr) for owner, attr, _, _ in plan if not hasattr(owner, attr)]
    assert missing == []
    assert all(callable(getattr(owner, attr)) for owner, attr, _, _ in plan)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_two_repetitions_and_passes_its_checks(name):
    """The benchmark's own calls, in-process: a pinned call that no longer works fails here first."""
    workload = workloads.WORKLOADS[name](0)
    done = [(inp, workload.run(inp)) for inp in map(workload.inputs, range(2))]
    n_checks, failures = workload.check(done)
    assert n_checks > 0
    assert failures == []
