import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from oracles import best_two_partition_wcss, intersections_pairwise, silhouette_direct
import uavcell
from uavcell import clustering
from uavcell.clustering import (
    AlgorithmTrace,
    Cluster,
    ClusterSet,
    ClusteringConfig,
    NoConvergenceError,
    _split_priority,
    ellipse_clustering,
    find_intersections,
    grow_to_k,
    select_k,
    split_cluster,
)
from uavcell.geometry import Ellipse, contains, mvee
from uavcell.scenario import PcpConfig, Region, generate_pcp


def two_blobs(seed=0, n=12, gap=200.0, spread=5.0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], spread, (n // 2, 2))
    b = rng.normal([gap, 0.0], spread, (n - n // 2, 2))
    return np.vstack([a, b])


def wcss(points, idx_a, idx_b):
    total = 0.0
    for idx in (idx_a, idx_b):
        part = points[idx]
        total += float(((part - part.mean(axis=0)) ** 2).sum())
    return total


# --- silhouette -------------------------------------------------------------

def silhouette_index(points, labels) -> float:
    """``_silhouettes`` of the one cut ``labels`` on the points' square distance matrix."""
    dist = squareform(pdist(np.asarray(points, dtype=float)))
    return float(clustering._silhouettes(dist, np.asarray(labels)[None])[0])


def test_silhouette_matches_direct_formula():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        pts = rng.uniform(0.0, 100.0, (n, 2))
        k = int(rng.integers(2, min(n, 6) + 1))
        labels = rng.integers(0, k, n)
        if len(np.unique(labels)) < 2:
            continue
        assert silhouette_index(pts, labels) == pytest.approx(silhouette_direct(pts, labels), abs=1e-12)


def test_silhouette_far_blobs_score_high():
    pts = two_blobs(gap=500.0, spread=2.0)
    labels = np.array([0] * 6 + [1] * 6)
    assert silhouette_index(pts, labels) > 0.9


def test_silhouette_duplicates_score_zero():
    pts = np.zeros((6, 2))
    assert silhouette_index(pts, [0, 0, 0, 1, 1, 1]) == 0.0


# --- cluster count selection ------------------------------------------------

def test_select_k_finds_three_blobs():
    rng = np.random.default_rng(7)
    pts = np.vstack([rng.normal(c, 4.0, (8, 2)) for c in ([0, 0], [300, 0], [150, 260])])
    assert select_k(pts, 10) == 3


def test_select_k_boundaries():
    assert select_k(np.array([[0.0, 0.0], [10.0, 0.0]]), 5) == 2
    assert select_k(np.array([[3.0, 3.0]]), 5) == 1
    # all scores tie at zero for co-located points; ties resolve low
    assert select_k(np.zeros((4, 2)), 4) == 2


def test_select_k_below_two_gives_one():
    pts = two_blobs(gap=500.0)
    assert select_k(pts, 1) == 1
    assert select_k(pts, 0) == 1


def test_k_max_one_without_buffer_starts_with_one_cluster():
    users = generate_pcp(Region(), PcpConfig(seed=0))
    m, cs, trace = ellipse_clustering(users, ClusteringConfig(k_max=1, silhouette_buffer=0))
    assert trace.iterations[0].k_origin == 1
    assert m == 1 and trace.converged


# --- 2-means splitting ------------------------------------------------------

def test_split_two_points():
    parts = split_cluster(np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert sorted(map(tuple, (sorted(p) for p in parts))) == [(0,), (1,)]


def test_split_single_point_unsplittable():
    assert split_cluster(np.array([[1.0, 2.0]])) is None


def test_split_warns_when_it_stops_at_the_round_cap(monkeypatch):
    pts = two_blobs(gap=300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = split_cluster(pts)  # two rounds: the split, then its confirmation
    monkeypatch.setattr(clustering, "_SPLIT_MAX_ITERATIONS", 1)
    with pytest.warns(RuntimeWarning, match=r"split_cluster: .* cap of 1 rounds on 12 points"):
        parts = split_cluster(pts)
    assert [p.tolist() for p in parts] == [p.tolist() for p in expected]


def test_split_duplicates_peels_one_off():
    parts = split_cluster(np.zeros((5, 2)))
    sizes = sorted(len(p) for p in parts)
    assert sizes == [1, 4]


def test_split_matches_exhaustive_optimum_on_blobs():
    rng = np.random.default_rng(12)
    for trial in range(30):
        gap = float(rng.uniform(60.0, 300.0))
        na, nb = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        pts = np.vstack([
            rng.normal([0.0, 0.0], 5.0, (na, 2)),
            rng.normal([gap, gap / 2.0], 5.0, (nb, 2)),
        ])
        idx_a, idx_b = split_cluster(pts)
        _, best_cost = best_two_partition_wcss(pts)
        assert wcss(pts, idx_a, idx_b) == pytest.approx(best_cost, rel=1e-9)


def test_split_is_locally_optimal():
    # after Lloyd converges each point sits with its nearer center
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.0, 100.0, (10, 2))
    idx_a, idx_b = split_cluster(pts)
    ca, cb = pts[idx_a].mean(axis=0), pts[idx_b].mean(axis=0)
    for i in idx_a:
        assert np.linalg.norm(pts[i] - ca) <= np.linalg.norm(pts[i] - cb) + 1e-12
    for i in idx_b:
        assert np.linalg.norm(pts[i] - cb) <= np.linalg.norm(pts[i] - ca) + 1e-12


# --- split priority ---------------------------------------------------------

def test_normalized_distance_ranks_separated_blobs_first():
    blobs = two_blobs(gap=100.0, spread=1.0)
    d_blobs = _split_priority(blobs, mvee(blobs))[0]
    uniform = np.random.default_rng(8).uniform(0.0, 100.0, (12, 2))
    d_uniform = _split_priority(uniform, mvee(uniform))[0]
    # sub-centroids are interior points, so the score stays below 1
    assert 0.0 < d_uniform < d_blobs <= 1.0
    assert d_blobs == pytest.approx(0.7087, abs=1e-3)


def test_normalized_distance_duplicates_zero():
    pts = np.zeros((4, 2))
    assert _split_priority(pts, mvee(pts))[0] == 0.0


def test_normalized_distance_scale_invariant():
    pts = two_blobs(seed=3, gap=150.0)
    d1 = _split_priority(pts, mvee(pts))[0]
    d2 = _split_priority(pts * 7.0, mvee(pts * 7.0))[0]
    assert d2 == pytest.approx(d1, rel=1e-6)


def test_normalized_distance_singleton_flag():
    pts = np.array([[5.0, 5.0]])
    assert _split_priority(pts, mvee(pts))[0] == float("-inf")


# --- growing to a cluster count ---------------------------------------------

def test_grow_single_cluster():
    pts = two_blobs()
    cs = grow_to_k(pts, 1)
    assert len(cs.clusters) == 1
    assert cs.clusters[0].members == frozenset(range(12))


def test_grow_recovers_three_blobs():
    rng = np.random.default_rng(21)
    pts = np.vstack([rng.normal(c, 3.0, (7, 2)) for c in ([0, 0], [400, 0], [200, 350])])
    cs = grow_to_k(pts, 3)
    got = {frozenset(c.members) for c in cs.clusters}
    want = {frozenset(range(0, 7)), frozenset(range(7, 14)), frozenset(range(14, 21))}
    assert got == want


def test_grow_to_singletons_floors_ellipses():
    pts = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    cs = grow_to_k(pts, 3)
    assert all(len(c.members) == 1 for c in cs.clusters)
    for c in cs.clusters:
        assert c.ellipse.semi_axes == (1.0, 1.0)


def test_grow_stops_at_point_count():
    pts = two_blobs(n=6)
    cs = grow_to_k(pts, 40)
    assert len(cs.clusters) == 6


def test_grow_members_stay_covered():
    rng = np.random.default_rng(30)
    pts = rng.uniform(0.0, 500.0, (25, 2))
    cs = grow_to_k(pts, 5)
    assert sorted(i for c in cs.clusters for i in c.members) == list(range(25))
    for m, c in enumerate(cs.clusters):
        for p in cs.member_points(m):
            assert contains(c.ellipse, p)


def test_grow_validation():
    with pytest.raises(ValueError):
        grow_to_k(np.empty((0, 2)), 1)
    with pytest.raises(ValueError):
        grow_to_k(two_blobs(), 0)


def _grow_cases():
    rng = np.random.default_rng(12)
    yield two_blobs(gap=300.0)
    yield rng.uniform(0.0, 500.0, (40, 2))
    yield np.repeat(rng.uniform(0.0, 100.0, (3, 2)), 4, axis=0)  # duplicates
    yield np.column_stack([np.linspace(0.0, 90.0, 10), np.linspace(0.0, 30.0, 10)])
    yield np.array([[7.0, 7.0]])


def test_grow_fits_each_cluster_once_and_never_the_unused_pool(monkeypatch):
    fitted = []

    def counting_mvee(points):
        fitted.append(len(points))
        return mvee(points)

    monkeypatch.setattr(clustering, "mvee", counting_mvee)
    for pts in _grow_cases():
        for k in range(1, 7):
            fitted.clear()
            cs = grow_to_k(pts, k)
            if k == 1 or len(pts) == 1:
                assert fitted == [len(pts)]  # the all-points cluster is the answer
            else:
                splits = len(cs.clusters) - 1
                assert len(fitted) == 2 * splits
                assert len(pts) not in fitted
            for c in cs.clusters:
                alone = mvee(pts[sorted(c.members)])
                assert c.ellipse.A.tobytes() == alone.A.tobytes()
                assert c.ellipse.b.tobytes() == alone.b.tobytes()


def test_non_finite_points_are_rejected():
    for bad in (float("nan"), float("inf"), -float("inf")):
        pts = two_blobs()
        pts[3, 1] = bad
        for k in (1, 3):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                grow_to_k(pts, k)
        with pytest.raises(ValueError, match="coordinates must be finite"):
            ellipse_clustering(pts)


# --- intersection detection -------------------------------------------------

def circle(cx, cy, r):
    a = np.eye(2) / r
    return Ellipse(A=a, b=a @ np.array([cx, cy]))


def test_far_clusters_do_not_intersect():
    pts = two_blobs(gap=1000.0)
    cs = grow_to_k(pts, 2)
    assert find_intersections(cs) == set()


def test_user_inside_both_ellipses_flags_both():
    users = np.array([[-1.0, 0.0], [1.0, 0.0], [1.5, 0.0]])
    cs = ClusterSet(users=users, clusters=[
        Cluster(frozenset({0, 1}), circle(0.0, 0.0, 2.0)),
        Cluster(frozenset({2}), circle(1.5, 0.0, 1.0)),
    ])
    assert find_intersections(cs) == {0, 1}


def test_only_the_touching_pair_is_flagged():
    users = np.array([[0.0, 0.0], [10.0, 0.0], [4.9, 0.0]])
    cs = ClusterSet(users=users, clusters=[
        Cluster(frozenset({0}), circle(0.0, 0.0, 5.0)),
        Cluster(frozenset({1}), circle(10.0, 0.0, 1.0)),
        Cluster(frozenset({2}), circle(4.9, 0.0, 1.0)),
    ])
    assert find_intersections(cs) == {0, 2}


def test_intersections_match_pairwise_scan():
    rng = np.random.default_rng(40)
    for _ in range(10):
        pts = rng.uniform(0.0, 400.0, (30, 2))
        cs = grow_to_k(pts, int(rng.integers(2, 7)))
        assert find_intersections(cs) == intersections_pairwise(cs)


def test_splitting_and_the_overlap_test_load_no_scipy():
    # only select_k's Ward linkage and distances need scipy
    src = str(Path(uavcell.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from uavcell.clustering import find_intersections, grow_to_k\n"
        "from uavcell.scenario import PcpConfig, Region, generate_pcp\n"
        "cs = grow_to_k(generate_pcp(Region(), PcpConfig(seed=0)), 8)\n"
        "assert len(cs.clusters) == 8\n"
        "find_intersections(cs)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- the full loop ----------------------------------------------------------

def assert_valid_partition(pts, cs):
    assert sorted(i for c in cs.clusters for i in c.members) == list(range(len(pts)))
    for m, c in enumerate(cs.clusters):
        assert len(c.members) > 0
        for p in cs.member_points(m):
            assert contains(c.ellipse, p)
    assert find_intersections(cs) == set()


def test_two_far_blobs_need_one_iteration():
    pts = two_blobs(gap=800.0)
    m, cs, trace = ellipse_clustering(pts)
    assert m == 2
    assert trace.converged
    assert len(trace.iterations) == 1
    assert trace.iterations[0].intersecting == ()
    assert trace.iterations[0].u_cond_size == 12
    assert_valid_partition(pts, cs)


def test_single_user():
    m, cs, trace = ellipse_clustering(np.array([[100.0, 200.0]]))
    assert m == 1
    assert cs.clusters[0].ellipse.semi_axes == (1.0, 1.0)
    assert trace.converged


def test_partition_invariants_on_random_fields():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(100.0, 900.0, (4, 2))
        pts = np.vstack([rng.normal(c, 40.0, (rng.integers(10, 30), 2)) for c in centers])
        m, cs, trace = ellipse_clustering(pts)
        assert trace.converged
        assert m == len(cs.clusters)
        assert_valid_partition(pts, cs)


def test_reruns_are_identical():
    rng = np.random.default_rng(77)
    pts = rng.uniform(0.0, 600.0, (70, 2))
    m1, cs1, t1 = ellipse_clustering(pts)
    m2, cs2, t2 = ellipse_clustering(pts)
    assert m1 == m2
    assert [c.members for c in cs1.clusters] == [c.members for c in cs2.clusters]
    assert t1.to_dict() == t2.to_dict()


def test_memberships_survive_uniform_scaling():
    pts = two_blobs(seed=9, n=20, gap=300.0, spread=20.0)
    m1, cs1, _ = ellipse_clustering(pts)
    m2, cs2, _ = ellipse_clustering(pts * 4.0)
    assert m1 == m2
    assert [c.members for c in cs1.clusters] == [c.members for c in cs2.clusters]


def test_iteration_budget_failure_carries_trace():
    rng = np.random.default_rng(0)
    pts = rng.uniform([0.0, 0.0], [600.0, 30.0], (60, 2))
    cfg = ClusteringConfig(max_outer_iterations=1)
    with pytest.raises(NoConvergenceError) as info:
        ellipse_clustering(pts, cfg)
    trace = info.value.trace
    assert isinstance(trace, AlgorithmTrace)
    assert not trace.converged
    assert len(trace.iterations) == 1
    assert trace.iterations[0].intersecting != ()


def test_unsplittable_blob_collapses_to_one_cell():
    # a dense isotropic blob admits no disjoint split; the loop must fall
    # back to a single covering ellipse instead of cycling forever
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 200.0, (80, 2))
    m, cs, trace = ellipse_clustering(pts)
    assert trace.converged
    assert any(rec.k_origin == 1 for rec in trace.iterations)
    assert m == 1
    assert_valid_partition(pts, cs)


def test_memberships_do_not_change_when_users_are_translated():
    # the fits whiten their points, so memberships stay put 1e6 m out
    for seed in range(30):
        users = generate_pcp(Region(), PcpConfig(seed=seed))
        _, cs, _ = ellipse_clustering(users)
        cells = {c.members for c in cs.clusters}
        for offset in (1e4, 1e5, 1e6):
            _, moved, _ = ellipse_clustering(users + offset)
            assert {c.members for c in moved.clusters} == cells, (seed, offset)


def test_trace_serialization_round_trip():
    pts = two_blobs(gap=700.0)
    _, _, trace = ellipse_clustering(pts)
    d = trace.to_dict()
    assert d["converged"] is True
    assert d["iterations"][0]["u_cond_size"] == 12
    assert isinstance(d["iterations"][0]["intersecting"], list)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusteringConfig(k_max=0)
    with pytest.raises(ValueError):
        ClusteringConfig(silhouette_buffer=-1)
    with pytest.raises(ValueError):
        ClusteringConfig(max_outer_iterations=0)


# --- the select_k helper ----------------------------------------------------

def _plan(users) -> tuple:
    """Everything ellipse_clustering returns, as comparable values."""
    m, cs, trace = ellipse_clustering(users)
    ellipses = [c.ellipse.A.tobytes() + c.ellipse.b.tobytes() for c in cs.clusters]
    return m, [c.members for c in cs.clusters], trace.to_dict(), ellipses


def _no_helper(helper):
    raise OSError("no helper in this run")


@pytest.fixture
def fresh_helper(monkeypatch):
    """A helper of this test's own, forked with whatever the test patched first."""
    helper = clustering._Helper()
    monkeypatch.setattr(clustering, "_HELPER", helper)
    yield helper
    helper.end()


def test_the_helper_changes_no_plan_and_no_count(monkeypatch):
    steps = {name: getattr(clustering, name) for name in ("mvee", "split_cluster", "select_k", "_scores")}
    users = [generate_pcp(Region(), PcpConfig(seed=seed)) for seed in range(30)]

    def campaign(start):
        helper = clustering._Helper()
        monkeypatch.setattr(clustering, "_HELPER", helper)
        monkeypatch.setattr(clustering._Helper, "_start", start)
        calls = Counter()
        for name, step in steps.items():
            def counted(*args, _name=name, _step=step, **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)
            monkeypatch.setattr(clustering, name, counted)
        try:
            return [_plan(u) for u in users], calls, helper.pid
        finally:
            helper.end()

    with_helper, helper_calls, helper = campaign(clustering._Helper._start)
    in_process, own_calls, fallback = campaign(_no_helper)
    assert helper is not None and fallback is None  # each run went the way it was meant to
    assert with_helper == in_process
    # the helper answered every select_k, so this process scored none itself
    assert helper_calls.pop("_scores", 0) == 0 and own_calls.pop("_scores") == own_calls["select_k"]
    assert helper_calls == own_calls and own_calls["select_k"] > 30


def test_threads_clustering_at_once_plan_as_one_does():
    # more threads than cores, switching often, share the one helper
    users = [generate_pcp(Region(), PcpConfig(seed=seed)) for seed in (5, 6)]
    expected = [_plan(u) for u in users]
    results = {}

    def work(i):
        results[i] = [_plan(users[(i + rep) % 2]) for rep in range(3)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: [expected[(i + rep) % 2] for rep in range(3)] for i in range(4)}


@contextmanager
def _sent(pts, k_limit, helper: bool = True):
    """``pts``' scoring handed to the helper as ``_growing_ahead`` hands it, but
    with no growth; or, without ``helper``, held back as when the helper is busy."""
    ahead = clustering._ahead
    ahead.points, ahead.k_limit = pts, k_limit
    ahead.sent = helper and clustering._HELPER.submit(pts, k_limit)
    assert ahead.sent == helper
    try:
        yield
    finally:
        ahead.points, ahead.sent = None, False


def test_a_thread_finds_the_helper_busy_and_scores_in_process(fresh_helper):
    users = generate_pcp(Region(), PcpConfig(seed=5))
    expected = _plan(users)
    k = select_k(users, 10)
    with _sent(users, 10):  # this thread holds the helper until it takes the reply
        done = []
        worker = threading.Thread(target=lambda: done.append(_plan(users)))
        worker.start()
        worker.join(timeout=30)
        waited = worker.is_alive()
        assert select_k(users, 10) == k  # takes the reply, which frees the helper
    worker.join(timeout=30)
    assert not waited and done == [expected]


def _plan_of_seed(seed: int) -> tuple:
    return _plan(generate_pcp(Region(), PcpConfig(seed=seed)))


def _plan_and_helper_of_seed(seed: int) -> tuple:
    return _plan_of_seed(seed), clustering._HELPER.pid, clustering._HELPER.off


def test_a_daemonic_worker_forks_its_own_helper(fresh_helper):
    # a pool's workers are daemonic; one that inherits no helper forks its
    # own, which reads EOF and exits when the worker does
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(1) as pool:
        planned, pid, off = pool.apply_async(_plan_and_helper_of_seed, (3,)).get(timeout=60)
        pool.close()
        pool.join()
    assert pid is not None and not off and fresh_helper.pid is None
    assert planned == _plan_of_seed(3)
    assert _wait_for(lambda: _gone(pid), 10.0), f"the worker's helper {pid} outlived the worker"


def _scored(pts, k_limit, helper: bool):
    """select_k's answer, or its exception's type and message, scored in the helper or in-process."""
    with _sent(pts, k_limit, helper):
        try:
            return select_k(pts, k_limit)
        except Exception as exc:
            return type(exc), str(exc)


@pytest.fixture
def overflowing_scores(monkeypatch, fresh_helper):
    """Scoring that overflows a numpy multiply first, in this test's helper and in-process alike."""
    scores = clustering._scores

    def overflowing(pts, k_limit):
        np.array([1e308]) * 10.0
        return scores(pts, k_limit)

    monkeypatch.setattr(clustering, "_scores", overflowing)  # before the helper forks, so it has it too


@pytest.mark.parametrize("strict", ["errstate", "warnings"])
def test_the_helper_raises_what_scoring_in_process_raises(fresh_helper, strict):
    pts = generate_pcp(Region(), PcpConfig(seed=0)) * 1e155  # pdist overflows, and linkage refuses it
    fresh_helper._start()  # under the default errstate and warning filters
    with warnings.catch_warnings(), np.errstate(all="raise" if strict == "errstate" else "warn"):
        if strict == "warnings":
            warnings.simplefilter("error")
        expected = (ValueError, "The condensed distance matrix must contain only finite values.")
        assert _scored(pts, 10, helper=True) == _scored(pts, 10, helper=False) == expected
    assert fresh_helper.pid is not None and not fresh_helper.off


@pytest.mark.parametrize("strict", ["errstate", "warnings"])
def test_the_helper_scores_under_the_callers_errstate_and_warning_filters(fresh_helper, overflowing_scores, strict):
    users = generate_pcp(Region(), PcpConfig(seed=0))
    fresh_helper._start()  # under the default errstate and warning filters
    with warnings.catch_warnings(), np.errstate(all="raise" if strict == "errstate" else "warn"):
        if strict == "warnings":
            warnings.simplefilter("error")
        kind = FloatingPointError if strict == "errstate" else RuntimeWarning
        expected = (kind, "overflow encountered in multiply")
        assert _scored(users, 10, helper=True) == _scored(users, 10, helper=False) == expected
    assert fresh_helper.pid is not None and not fresh_helper.off


@pytest.mark.parametrize("event", ["underflow", "warning"])
def test_what_numpy_and_warnings_let_pass_by_default_still_reaches_the_caller(monkeypatch, fresh_helper, event):
    # numpy ignores an underflow by default, and a UserWarning is only printed:
    # the helper must not score through either where the caller would raise
    scores = clustering._scores

    def eventful(pts, k_limit):
        if event == "underflow":
            np.array([1e-308]) * 1e-100
        else:
            warnings.warn("scoring warned", UserWarning)
        return scores(pts, k_limit)

    monkeypatch.setattr(clustering, "_scores", eventful)
    users = generate_pcp(Region(), PcpConfig(seed=0))
    fresh_helper._start()  # under the default errstate and warning filters
    with warnings.catch_warnings(), np.errstate(under="raise"):
        warnings.simplefilter("error")
        expected = {"underflow": (FloatingPointError, "underflow encountered in multiply"),
                    "warning": (UserWarning, "scoring warned")}[event]
        assert _scored(users, 10, helper=True) == _scored(users, 10, helper=False) == expected
    assert fresh_helper.pid is not None and not fresh_helper.off


def test_a_warning_in_the_helper_is_issued_by_the_caller_with_the_same_answer(overflowing_scores):
    users = generate_pcp(Region(), PcpConfig(seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = select_k(users, 10)
    for helper in (True, False):
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            assert _scored(users, 10, helper) == expected


_HELPER_SCRIPT = """
import os, signal, sys, time
from pathlib import Path
from uavcell import clustering
from uavcell.clustering import ellipse_clustering
from uavcell.scenario import PcpConfig, Region, generate_pcp

def cells():
    _, cs, trace = ellipse_clustering(generate_pcp(Region(), PcpConfig(seed=3)))
    return repr(([sorted(c.members) for c in cs.clusters], trace.to_dict()))

def alive():  # this process's child, still running
    return os.waitpid(helper, os.WNOHANG) == (0, 0)

out, mode = Path(sys.argv[1]), sys.argv[2]
plan = cells()
helper = clustering._HELPER.pid
(out / "pid.tmp").write_text(str(helper))
os.replace(out / "pid.tmp", out / "helper.pid")
if mode == "fork":
    child = os.fork()
    if child == 0:
        assert clustering._HELPER.off and clustering._HELPER.pid is None, "the child kept its parent's helper"
        (out / "child.txt").write_text(cells())
        sys.exit(0)  # a normal exit, through the interpreter's exit handlers
    assert os.waitpid(child, 0)[1] == 0
    assert (out / "child.txt").read_text() == plan, "the forked child planned otherwise"
    assert alive(), "the child's exit ended the parent's helper"
    assert cells() == plan and not clustering._HELPER.off
elif mode == "exit":
    os.kill(helper, signal.SIGINT)  # as a terminal's Ctrl-C sends it to the whole process group
    time.sleep(0.2)
    assert cells() == plan and alive() and not clustering._HELPER.off, "SIGINT ended the helper"
elif mode == "kill":
    time.sleep(120)
"""


def _gone(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")  # exited, whether or not reaped yet


def _wait_for(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _helper_script(tmp_path, mode):
    src = str(Path(uavcell.__file__).resolve().parents[1])
    with open(tmp_path / "stderr.txt", "w") as err:  # a file, so no pipe waits on the helper
        return subprocess.Popen(
            [sys.executable, "-c", _HELPER_SCRIPT, str(tmp_path), mode],
            stdout=subprocess.DEVNULL, stderr=err, env={**os.environ, "PYTHONPATH": src},
        )


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize("mode", ["exit", "fork", "kill"])
def test_the_helper_ends_with_its_parent(tmp_path, mode):
    proc = _helper_script(tmp_path, mode)
    try:
        if mode == "kill":
            assert _wait_for(lambda: (tmp_path / "helper.pid").exists() or proc.poll() is not None, 120)
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=120)
    finally:
        proc.kill()
    if mode != "kill":
        assert proc.returncode == 0, (tmp_path / "stderr.txt").read_text()
    pid = int((tmp_path / "helper.pid").read_text())
    if mode == "kill":  # the helper reads EOF and exits after its parent has gone
        assert _wait_for(lambda: _gone(pid), 2.0), f"helper {pid} outlived its parent"
    else:  # a normal exit reaps the helper before it returns
        assert not Path(f"/proc/{pid}").exists(), f"helper {pid} outlived its parent"
