import os
import subprocess
import sys
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
