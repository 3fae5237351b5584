"""The benchmark's traced run passes its deterministic checks on the first two items of each workload.

``perfbench/run.py --trace 1`` fails a run when an item fails its own checks,
when a layer has no lookup site to wrap, when a layer a workload must reach
records no call (or one it must not reach records some), or when traced and
untraced runs give different plans.  None of these depend on timing.
"""

import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "perfbench")]

import harness  # noqa: E402


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_run_passes_the_deterministic_trace_checks(tmp_path, name):
    workload = harness.WORKLOADS[name]
    items = workload.items(0)[:2]
    traced_run = harness.run_traced(workload, items, tmp_path / "work")
    outcomes = traced_run["plain"].outcomes + traced_run["traced"].outcomes
    assert [failure for outcome in outcomes for failure in outcome.failures] == []
    metrics = harness.per_layer(items, traced_run)
    # The unattributed-time check compares wall times: two items leave too
    # little time for its 1% allowance to hold on a loaded machine, so it is
    # left to the benchmark's own traced run over every item.
    failures = harness.trace_checks(workload, traced_run, metrics)
    assert [failure for failure in failures if "unattributed" not in failure] == []
