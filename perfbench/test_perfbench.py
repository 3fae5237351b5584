"""Tests of the benchmark's own arithmetic, tracing and digest.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 5.0, parent=0),
        _span("y", 3.0, 7.0, parent=0),  # overlaps x on [3, 5]
        _span("z", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert union_length([(1.0, 5.0), (3.0, 7.0), (9.0, 10.0)]) == pytest.approx(7.0)
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (11, 9), (30, 66), (40, 75), (100, 90), (1010, 99), (5000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = harness.tail_percentile(n)
    assert p == expected
    if p is not None:
        rank = -(-p * n // 100)  # nearest rank of the p-th percentile
        assert n - rank >= 10
        assert n - -(-(p + 1) * n // 100) < 10


def test_quantile_weights_every_order_statistic():
    assert harness.quantile([3.0] * 30, 0.66) == pytest.approx(3.0)
    assert harness.quantile(range(31), 0.5) == pytest.approx(15.0)
    values = [0.1 * i for i in range(30)]
    assert values[18] < harness.quantile(values, 0.66) < values[21]


def test_partition_counts_match_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    for n in range(1, len(bell)):
        assert harness.partition_count(n, n) == bell[n]
    # 7 users into at most 3 cells: 1 + 63 + 301
    assert harness.partition_count(7, 3) == 365


def test_tracer_rebinds_every_lookup_site_and_restores_them():
    from uavcell import baseline, clustering, geometry

    original = geometry.mvee
    tracer = Tracer()
    sites = harness.install_tracer(tracer)
    try:
        assert sites["geometry.mvee"] >= 3
        assert clustering.mvee is baseline.mvee is geometry.mvee
        assert geometry.mvee is not original
        geometry.mvee(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 5.0]]))
    finally:
        tracer.uninstall()
    assert clustering.mvee is baseline.mvee is geometry.mvee is original
    assert tracer.counts["geometry.mvee.calls"] == 1
    assert tracer.counts["geometry.mvee.points"] == 3
    assert [s.name for s in tracer.spans] == ["geometry.mvee"]


def test_plan_digest_is_stable_across_runs_and_tracing(tmp_path):
    workload = harness.BruteTiny()
    users = np.array([[0.0, 0.0], [30.0, 5.0], [12.0, 40.0], [400.0, 380.0], [420.0, 410.0]])

    def digest(trace: bool) -> str:
        tracer = Tracer()
        if trace:
            harness.install_tracer(tracer)
        try:
            _, outcome = harness.run_item(workload, users, tmp_path / "work")
        finally:
            tracer.uninstall()
        assert outcome.failures == []
        return outcome.digest_line

    first = digest(False)
    assert digest(False) == first
    assert digest(True) == first
