"""The benchmark's traced run wraps package functions by name; each must exist."""

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
