"""Property tests of the ellipse fit and the clustering steps, the vectorized
steps against per-item oracles, the Ward-merge replay against ``cut_tree``,
the JSON writer against ``json``, the CSV writer against ``csv``, the
per-UAV ``evaluate`` against the per-user scalar link budget and the
closed-form altitude against a grid.

Examples are derandomized so that every run checks the same cases.
"""

import csv
import io
import json
import math
import struct
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from itertools import chain
from unittest.mock import patch

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import cut_tree, linkage
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist, squareform

import oracles
from oracles import (
    brute_force_per_key,
    brute_force_per_partition,
    evaluate_per_user,
    exact_ellipse,
    exact_five_conic,
    exact_five_weights,
    farthest_pair_squareform,
    grid_altitude,
    grid_min_ellipse_area,
    intersections_pairwise,
    intersections_per_cluster,
    newton_min_ellipse_area,
    select_k_direct,
    silhouette_per_point,
    split_cluster_masked,
    ward_cuts_all_rows,
)
from uavcell import baseline, clustering, deployment, geometry
from uavcell.baseline import brute_force_plan
from uavcell.channel import ENVIRONMENTS, Beam, RadioConfig, avg_path_loss
from uavcell.cli import _csv_cell, _write_csv
from uavcell.clustering import (
    Cluster,
    ClusterSet,
    ClusteringConfig,
    _farthest_pair,
    find_intersections,
    grow_to_k,
    select_k,
    split_cluster,
)
from uavcell.deployment import SNR_GRACE_DB, AltitudeBounds, DeploymentPlan, UavDeployment, evaluate, required_power_dbm
from uavcell.geometry import MIN_SEMI_AXIS_M, Ellipse, contains, edge_distance, mvee
from uavcell import scenario as scenario_module
from uavcell.scenario import (
    PcpConfig, Region, Scenario, ScenarioFormatError, dump_canonical_json, generate_pcp, load_scenario, read_json, save_scenario,
    scenario_to_dict,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coords = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
grid = st.integers(-6, 6).map(float)  # few distinct values: ties, duplicates, boundary hits


@st.composite
def point_sets(draw, min_size=1, max_size=18):
    kind = draw(st.sampled_from(["uniform", "duplicates", "collinear", "lattice"]))
    n = draw(st.integers(min_size, max_size))
    if kind == "uniform":
        pts = [(draw(coords), draw(coords)) for _ in range(n)]
    elif kind == "duplicates":
        base = [(draw(coords), draw(coords)) for _ in range(draw(st.integers(1, 3)))]
        pts = [base[draw(st.integers(0, len(base) - 1))] for _ in range(n)]
    elif kind == "collinear":
        origin = np.array([draw(coords), draw(coords)])
        angle = draw(st.floats(0.0, math.pi))
        pts = [origin + draw(coords) * np.array([math.cos(angle), math.sin(angle)]) for _ in range(n)]
    else:
        pts = [(draw(grid), draw(grid)) for _ in range(n)]
    return np.array(pts, dtype=float).reshape(n, 2)


@st.composite
def ellipses(draw):
    axes = sorted([draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0))])
    angle = draw(st.floats(0.0, math.pi))
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    a = rot @ np.diag([1.0 / axes[1], 1.0 / axes[0]]) @ rot.T
    a = 0.5 * (a + a.T)
    return Ellipse(A=a, b=a @ np.array([draw(grid), draw(grid)]))


@st.composite
def hand_made_cluster_sets(draw):
    """Random ellipses and a random assignment of users to them; an ellipse
    need not enclose its own members, and a cluster may have none."""
    users = draw(point_sets(min_size=1, max_size=15))
    m = draw(st.integers(0, 6))
    owner = [draw(st.integers(0, m)) for _ in range(len(users))]  # m: no cluster
    clusters = [
        Cluster(frozenset(u for u, o in enumerate(owner) if o == c), draw(ellipses()))
        for c in range(m)
    ]
    return ClusterSet(users=users, clusters=clusters)


@PROPERTY
@given(point_sets(max_size=16), st.integers(2, 12))
def test_select_k_matches_per_k_reference(pts, k_limit):
    with np.errstate(all="raise"):  # no score may come from 0/0 or inf/inf
        k = select_k(pts, k_limit)
    assert k == select_k_direct(pts, k_limit)


def same_partition(a, b) -> bool:
    """Whether two label arrays group the points alike, whatever the label values."""
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


@PROPERTY
@given(point_sets(min_size=2, max_size=18))
# tied heights, where the order of Z's rows and cut_tree's order differ
@example(np.array([[0.0, 0.0], [5.0, 1.0], [0.0, 0.0], [5.0, 1.0], [5.0, 1.0]]))
@example(np.array([[1.0, -2.0], [2.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]))
def test_ward_replay_cuts_like_cut_tree_at_every_k(pts):
    merges = linkage(pdist(pts), method="ward")
    ks = list(range(1, len(pts) + 1))
    for k, labels in zip(ks, clustering._ward_cuts(merges, ks)):
        assert same_partition(labels, cut_tree(merges, n_clusters=k).ravel()), k


def test_ward_replay_cuts_like_cut_tree_at_campaign_size():
    users = generate_pcp(Region(), PcpConfig(seed=0))  # the first campaign item, 122 users
    merges = linkage(pdist(users), method="ward")
    ks = list(range(1, 11))
    for k, labels in zip(ks, clustering._ward_cuts(merges, ks)):
        assert len(np.unique(labels)) == k
        assert same_partition(labels, cut_tree(merges, n_clusters=k).ravel()), k
    assert np.array_equal(clustering._ward_cuts(merges, ks), ward_cuts_all_rows(merges, ks))


@PROPERTY
@given(point_sets(min_size=2, max_size=25), st.data())
def test_silhouette_equals_per_point_loop_bit_for_bit(pts, data):
    labels = data.draw(st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts)))
    if len(set(labels)) >= 2:
        (score,) = clustering._silhouettes(squareform(pdist(pts)), np.asarray(labels)[None])
        assert score == silhouette_per_point(pts, labels)


@PROPERTY
@given(point_sets(min_size=2, max_size=25), st.integers(2, 12))
def test_select_k_scores_every_cut_as_the_per_point_loop_bit_for_bit(pts, k_limit):
    seen = []
    silhouettes = clustering._silhouettes

    def scored(dist, cuts):
        seen.append((cuts, silhouettes(dist, cuts)))
        return seen[-1][1]

    with patch.object(clustering, "_silhouettes", scored):
        select_k(pts, k_limit)
    ((cuts, scores),) = seen
    assert len(scores) == min(k_limit, len(pts)) - 1
    for labels, score in zip(cuts, scores):
        assert score == silhouette_per_point(pts, labels)


@st.composite
def adversarial_sets(draw, min_size=1, max_size=30):
    """``point_sets`` spread over 1e-3 m to 1e7 m, moved up to 1e7 m off the
    origin, and sometimes rounded to whole metres."""
    pts = draw(point_sets(min_size, max_size))
    span = float(np.ptp(pts)) if len(pts) else 0.0
    pts = pts * (draw(st.sampled_from([1e-3, 1.0, 1e3, 1e7])) / max(span, 1.0))
    pts = pts + [draw(st.sampled_from([0.0, -3e3, 1e7])), draw(st.sampled_from([0.0, 1e5, -1e7]))]
    return np.round(pts) if draw(st.booleans()) else pts


def _on_rim(e: Ellipse, angle: float) -> np.ndarray:
    """The float point within four ulps per coordinate of the rim point at
    ``angle`` whose radius ``||A p - b||`` is nearest 1, exactly 1 if any is."""
    p = np.linalg.solve(e.A, e.b + [math.cos(angle), math.sin(angle)])
    x, y = (v + np.arange(-4, 5) * np.spacing(v) for v in p)
    grid = np.stack(np.meshgrid(x, y), axis=-1).reshape(-1, 2)
    return grid[np.argmin(np.abs(geometry._radii(e.A, e.b, grid) - 1.0))]


@st.composite
def fitted_cluster_sets(draw):
    """``grow_to_k``'s 0 to 6 cells over an adversarial set, and one more
    user on each fitted boundary, owned by a random cell or by none.  The rim
    user faces a random other cell's center, where the cells may overlap, or
    takes a random angle."""
    pts = draw(adversarial_sets(min_size=1, max_size=30))
    k = draw(st.integers(0, 6))
    clusters = grow_to_k(pts, k).clusters if k else []
    rim = []
    for c in clusters:
        e, other = c.ellipse, clusters[draw(st.integers(0, len(clusters) - 1))].ellipse
        u = e.A @ (other.center - e.center)
        angle = math.atan2(u[1], u[0]) if other is not e else draw(st.floats(0.0, 2.0 * math.pi))
        rim.append(_on_rim(e, angle))
    owners = [draw(st.integers(0, len(clusters))) for _ in rim]  # len(clusters): no cell
    clusters = [
        Cluster(c.members | {len(pts) + u for u, o in enumerate(owners) if o == m}, c.ellipse)
        for m, c in enumerate(clusters)
    ]
    return ClusterSet(users=np.vstack([pts, *rim]), clusters=clusters)


@PROPERTY
@given(st.one_of(fitted_cluster_sets(), hand_made_cluster_sets()))
def test_find_intersections_matches_the_per_cluster_loop(cs):
    assert find_intersections(cs) == intersections_per_cluster(cs)


def test_a_user_exactly_on_a_fitted_rim_is_shared():
    # two fitted squares whose circles overlap in a lens that holds no user
    # but one on the second circle's rim, facing the first circle's center
    squares = [np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]) + [dx, 0.0] for dx in (0.0, 2.4)]
    cells = [mvee(square) for square in squares]
    u = cells[1].A @ (cells[0].center - cells[1].center)
    rim = _on_rim(cells[1], math.atan2(u[1], u[0]))
    assert geometry._radii(cells[1].A, cells[1].b, rim) == 1.0
    cs = ClusterSet(
        users=np.vstack([*squares, rim]),
        clusters=[Cluster(frozenset(range(4)), cells[0]), Cluster(frozenset(range(4, 9)), cells[1])],
    )
    assert find_intersections(cs) == intersections_per_cluster(cs) == {0, 1}
    cs.users = cs.users[:8]  # without the rim user the cells share no user
    cs.clusters[1].members = frozenset(range(4, 8))
    assert find_intersections(cs) == intersections_per_cluster(cs) == set()


@PROPERTY
@given(adversarial_sets(min_size=2, max_size=30), st.lists(st.integers(1, 30), min_size=1, max_size=12))
# tied heights, where the order of Z's rows and cut_tree's order differ
@example(np.array([[0.0, 0.0], [5.0, 1.0], [0.0, 0.0], [5.0, 1.0], [5.0, 1.0]]), [5, 1, 2, 3, 4])
@example(np.array([[1.0, -2.0], [2.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]), [2, 3, 4, 5])
def test_ward_cuts_match_the_all_rows_pointer_doubling(pts, ks):
    merges = linkage(pdist(pts), method="ward")
    ks = [min(k, len(pts)) for k in ks]  # in any order, with repeats
    assert np.array_equal(clustering._ward_cuts(merges, ks), ward_cuts_all_rows(merges, ks))


@PROPERTY
@given(hand_made_cluster_sets())
def test_find_intersections_matches_pairwise_scan_on_hand_made_sets(cs):
    assert find_intersections(cs) == intersections_pairwise(cs)


@PROPERTY
@given(point_sets(min_size=2, max_size=30), st.integers(1, 6))
def test_find_intersections_matches_pairwise_scan_on_grown_sets(pts, k):
    cs = grow_to_k(pts, k)
    assert find_intersections(cs) == intersections_pairwise(cs)


@PROPERTY
@given(ellipses(), point_sets(min_size=0, max_size=20))
def test_contains_on_an_array_equals_per_point_results(e, pts):
    inside = contains(e, pts)
    assert inside.shape == (len(pts),)
    assert inside.tolist() == [bool(contains(e, p)) for p in pts]
    for p, hit in zip(pts, inside):
        # away from rounding at the boundary, the textbook norm agrees
        norm = float(np.linalg.norm(e.A @ p - e.b))
        if abs(norm - 1.0) > 1e-12:
            assert hit == (norm <= 1.0)
        if contains(e, p):  # one point still works in a condition
            assert hit
        else:
            assert not hit


def polygon(sides: int, radius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    t = phase + 2.0 * math.pi * np.arange(sides) / sides
    return radius * np.column_stack([np.cos(t), np.sin(t)])


@PROPERTY
@given(point_sets(min_size=2, max_size=40))
@example(np.zeros((5, 2)))  # every pair ties at distance 0
@example(np.full((7, 2), 1e6 + 0.3))
@example(np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]]))
# regular polygons tie on every diameter, to rounding
@example(polygon(3))
@example(polygon(4))
@example(polygon(6, 50.0))
@example(polygon(360, 300.0, 0.1))
@example(np.vstack([polygon(8, 2.0), polygon(8, 1.0, math.pi / 8)]))
@example(np.vstack([polygon(6, 5.0), polygon(6, 5.0, math.pi / 6)]))
# a 1 m x 1e6 m sliver 1e7 m out
@example(np.column_stack([np.linspace(0.0, 1e6, 41), np.resize([0.0, 1.0, 0.5], 41)]) + 1e7)
def test_farthest_pair_from_hull_matches_full_distance_matrix(pts):
    assert _farthest_pair(pts) == farthest_pair_squareform(pts)


def test_farthest_pair_compares_only_the_rim_of_a_disk():
    rng = np.random.default_rng(0)
    r, t = 100.0 * np.sqrt(rng.uniform(0.0, 1.0, 2000)), rng.uniform(0.0, 2.0 * math.pi, 2000)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    compared, distances = [], clustering._distance_matrix

    def counted(points):
        compared.append(len(points))
        return distances(points)

    with patch.object(clustering, "_distance_matrix", counted):
        pair = _farthest_pair(pts)
    assert pair == farthest_pair_squareform(pts)
    assert len(compared) == 1 and compared[0] < len(pts) // 2


@PROPERTY
@given(adversarial_sets(min_size=1, max_size=60))
@example(polygon(360, 300.0, 0.1) + 1e7)
def test_ring_distances_have_the_bits_of_squareform_pdist(pts):
    assert np.array_equal(clustering._distance_matrix(pts), squareform(pdist(pts)))
    assert _farthest_pair(pts) == farthest_pair_squareform(pts)


@PROPERTY
@given(point_sets(min_size=2, max_size=60), st.sampled_from([1e-6, 1e-3, 1.0, 1e3]), st.sampled_from([0.0, 1e6]))
def test_split_cluster_matches_the_masked_mean_loop(pts, scale, offset):
    pts = pts * scale + offset  # 1e-3 m to 1e6 m across, at 0 or 1e6 m
    got, want = split_cluster(pts), split_cluster_masked(pts)
    assert [part.tolist() for part in got] == [part.tolist() for part in want]


@PROPERTY
@given(point_sets(min_size=2, max_size=60), st.sampled_from([0.0, 1e-3, 1.0, 1e3]), st.sampled_from([0.0, 0.1, 1e6]))
def test_split_cluster_centres_are_the_bits_of_each_parts_mean(pts, scale, offset):
    pts = pts * scale + offset  # a scale of 0 puts every point on one spot, which peels one off
    idx_a, idx_b, means = split_cluster(pts, centres=True)
    assert np.array_equal(means, [pts[idx_a].mean(axis=0), pts[idx_b].mean(axis=0)])


@st.composite
def fit_sets(draw):
    """3-7 points at a 1e-3 m, 1 m or 100 m scale around the origin:
    duplicates, square lattices and sets just wider than the thin threshold."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "near-collinear", "lattice"]))
    n = draw(st.integers(3, 7))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    if kind == "uniform":
        pts = [(draw(unit), draw(unit)) for _ in range(n)]
    elif kind == "duplicates":
        base = [(draw(unit), draw(unit)) for _ in range(3)]
        pts = [base[i % 3] if i < 3 else base[draw(st.integers(0, 2))] for i in range(n)]
    elif kind == "near-collinear":
        # a width of 1e-8 against a unit length; thin sets stop at 1e-9
        pts = [(t, 0.3 * t + 1e-8 * draw(st.sampled_from([-1.0, 1.0]))) for t in (draw(unit) for _ in range(n))]
    else:
        pts = [(draw(grid), draw(grid)) for _ in range(n)]
    return np.array(pts, dtype=float) * draw(st.sampled_from([1e-3, 1.0, 100.0]))


offsets = st.sampled_from([0.0, 1e6]).map(lambda d: np.array([d, -0.5 * d]))  # in m


def _shape(e: Ellipse) -> np.ndarray:
    """A'A, which fixes the ellipse whatever orthogonal factor A carries."""
    return e.A.T @ e.A


def _sliver(pts) -> float:
    """Length over width (s0 / s1) of a point set."""
    spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return spread[0] / max(spread[1], 1e-300)


def _assert_same_ellipse(e: Ellipse, shape, center, pts) -> None:
    """Shape and center within 1e-9 of the ellipse's size, widened where the
    input is less certain than that.  Across a sliver any rotated frame keeps
    only eps * s0 / s1 of the width.  Far out, b holds about reach / minor
    semi-axis, so the boundary resolves only eps times that, and the
    containment inflation works at that resolution."""
    eps = np.finfo(float).eps
    rel = 1e-9 + 16.0 * eps * _sliver(pts) + 64.0 * eps * np.abs(pts).max() / e.semi_axes[1]
    np.testing.assert_allclose(_shape(e), shape, rtol=0.0, atol=rel * np.abs(shape).max())
    np.testing.assert_allclose(e.center, center, rtol=0.0, atol=rel * e.semi_axes[0])


@PROPERTY
@given(fit_sets(), offsets)
def test_mvee_contains_every_point_with_a_certified_gap(pts, offset):
    pts = pts + offset
    e = mvee(pts)
    assert contains(e, pts).all()
    assert e.fit.gap <= 1e-12


@PROPERTY
@given(fit_sets(), st.integers(0, 3), st.booleans(), st.sampled_from([(1, 1), (1, 4), (2, 1)]), offsets)
def test_mvee_is_affine_equivariant(pts, quarter_turns, mirror, stretch, offset):
    # points on a 2**-32 m grid and maps built from quarter turns, mirrors,
    # powers of two and these offsets carry every coordinate over exactly
    pts = np.round(pts * 2.0**32) / 2.0**32
    lin = np.diag([float(stretch[0]), -float(stretch[1]) if mirror else float(stretch[1])])
    for _ in range(quarter_turns):
        lin = np.array([[0.0, -1.0], [1.0, 0.0]]) @ lin
    moved = pts @ lin.T + offset
    np.testing.assert_array_equal((moved - offset) @ np.linalg.inv(lin).T, pts)
    e0, e1 = mvee(pts), mvee(moved)
    if stretch != (1, 1) and min(e0.semi_axes[1], e1.semi_axes[1]) < 1.5 * MIN_SEMI_AXIS_M:
        return  # the semi-axis floor commutes with rigid maps only
    inv = np.linalg.inv(lin)
    _assert_same_ellipse(e1, inv.T @ _shape(e0) @ inv, lin @ e0.center + offset, moved)


@PROPERTY
@given(fit_sets(), offsets)
# in raw metres qhull drops the true vertex [0, 1e-8] of this 1.5 mm x 10 nm set
@example(np.array([[5e-4, 1e-8], [0.0, 0.0], [0.0, 1e-8], [-1e-3, 0.0]]), np.array([1e6, -5e5]))
def test_mvee_of_the_hull_vertices_is_the_same_ellipse(pts, offset):
    pts = pts + offset
    try:
        hull = ConvexHull(pts - pts.mean(axis=0)).vertices  # about their mean, qhull keeps the digits of a sliver 1e6 m out
    except QhullError:
        return  # qhull rejects thin sets; their fit takes the line path
    if _sliver(pts) > 1e6:
        return  # a point within rounding of a sliver's edge may or may not be a vertex
    e = mvee(pts)
    _assert_same_ellipse(mvee(pts[hull]), _shape(e), e.center, pts)


@st.composite
def regular_polygons(draw):
    """7 to 1000 vertices on a circle of radius 1 m to 300 m, at any phase."""
    sides = draw(st.integers(7, 1000))
    t = draw(st.floats(0.0, 2.0 * math.pi)) + 2.0 * math.pi * np.arange(sides) / sides
    return draw(st.floats(1.0, 300.0)) * np.column_stack([np.cos(t), np.sin(t)])


@st.composite
def ellipse_arcs(draw):
    """7 to 500 evenly spaced points on a rotated ellipse arc of 0.3 rad up to
    a full turn, with semi-axes of 1 m to 300 m."""
    m = draw(st.integers(7, 500))
    t = draw(st.floats(0.0, 2.0 * math.pi)) + np.linspace(0.0, draw(st.floats(0.3, 2.0 * math.pi)), m)
    a, b = draw(st.floats(1.0, 300.0)), draw(st.floats(1.0, 300.0))
    phi = draw(st.floats(0.0, math.pi))
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return np.column_stack([a * np.cos(t), b * np.sin(t)]) @ rot.T


@st.composite
def thin_kites(draw):
    """A rhombus whose long diagonal lies near 22.5 degrees (mod 45), with 2-19
    points on each half of the short one that make the covariance isotropic,
    and x stretched a little so whitening keeps the frame: the extremes along
    x, y and the diagonals are then often just the two long tips."""
    angle = math.pi / 8 + draw(st.integers(0, 7)) * math.pi / 4 + draw(st.floats(-0.1, 0.1))
    ratio, per_side = draw(st.floats(0.1, 0.4)), draw(st.integers(2, 19))
    tip = np.array([math.cos(angle), math.sin(angle)])
    side = ratio * np.array([-tip[1], tip[0]])
    c = math.sqrt((1.0 - ratio**2) / (per_side * ratio**2))
    pts = np.array([tip, side, -tip, -side, *[s * c * side for s in (1.0, -1.0) for _ in range(per_side)]])
    return draw(st.floats(1.0, 300.0)) * pts * [1.0 + draw(st.floats(0.001, 0.05)), 1.0]


@PROPERTY
@given(st.one_of(fit_sets(), regular_polygons(), ellipse_arcs(), thin_kites()), offsets)
def test_every_fit_is_certified_without_the_away_step_loop(pts, offset):
    pts = pts + offset
    e = mvee(pts)
    assert e.fit.gap <= 1e-12
    assert contains(e, pts).all()


@PROPERTY
@given(point_sets(4, 6))
# Newton's support holds four copies of one corner, six rows but three points
@example(np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
def test_steiner_screen_gives_the_newton_area(pts):
    screened = mvee(pts)
    assert contains(screened, pts).all()
    # the fit before the 1 m floor and the inflation, against the moments of
    # the weights that Newton reaches from equal weights, for every set that
    # does not take the line path
    _, axes, _, fit = geometry._fit_center_form(pts)
    if fit.ending == "closed-form" and fit.support is None:
        return
    want = newton_min_ellipse_area(pts)
    assert want is not None
    assert math.isclose(math.pi * axes[0] * axes[1], want, rel_tol=1e-12)


# acceptance seed 4, users 0, 1, 3, 4, 6, 7 and 8 of the first ten.  The
# screen certifies their support triple on the six without user 3 (row 2);
# on all seven the extreme points miss one of its vertices, so the walk does
OFF_CORE_TRIPLE = np.array([
    [775.0050098516745, 908.7969103195874], [857.3877369554568, 965.2510727251934],
    [736.0211805825718, 963.2579292143216], [813.5609040583729, 921.9059062351272],
    [800.567822109382, 918.011513244593], [742.8747082094403, 979.2075015436585],
    [768.8812900135658, 985.8874134763763],
])


def _bytes(e: Ellipse) -> tuple[bytes, bytes]:
    return e.A.tobytes(), e.b.tobytes()


def _points_inside(e: Ellipse, count: int, rng) -> np.ndarray:
    """``count`` points at radius below 0.999 in ``e``, uniform in angle."""
    phase = rng.uniform(0.0, 2.0 * math.pi, count)
    polar = rng.uniform(0.0, 0.999, count)[:, None] * np.column_stack([np.cos(phase), np.sin(phase)])
    return np.linalg.solve(e.A, (e.b + polar).T).T


@st.composite
def triangles_with_inner_points(draw):
    """A triangle 1 m to 1 km across with up to six points strictly inside
    its Steiner ellipse, in random order: the cells brute force sees most."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corners = rng.uniform(-1.0, 1.0, (3, 2)) * draw(st.sampled_from([1.0, 30.0, 1000.0]))
    pts = np.vstack([corners, _points_inside(mvee(corners), draw(st.integers(0, 6)), rng)])
    return pts[rng.permutation(len(pts))]


def _convex(pts) -> bool:
    """True if four points, in this order, bound a strictly convex quad."""
    edges = np.roll(pts, -1, axis=0) - pts
    turns = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    return bool((turns > 0.0).all() or (turns < 0.0).all())


@st.composite
def convex_quads(draw):
    """Four points in convex position, in random order: kites, trapezoids,
    near-parallelograms and quads of lattice points 1 m to 1 km across, and
    1 m x 1e6 m slivers at any angle."""
    kind = draw(st.sampled_from(["kite", "trapezoid", "near-parallelogram", "lattice", "sliver"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "kite":  # symmetric about the x axis, tips at -a and b
        (a, b), height = rng.uniform(0.3, 1.0, 2), rng.uniform(0.1, 1.0)
        chord = rng.uniform(-0.9 * a, 0.9 * b)
        pts = np.array([[-a, 0.0], [chord, -height], [b, 0.0], [chord, height]])
    elif kind == "trapezoid":  # parallel sides along x, the top one shifted
        bottom, top, shift, height = rng.uniform(0.2, 1.0, 4)
        pts = np.array([[0.0, 0.0], [bottom, 0.0], [shift + top, height], [shift, height]])
    elif kind == "near-parallelogram":  # sides at 0.3 to pi - 0.3 rad, the fourth corner 1e-9 to 1e-3 off
        angle, turn = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, math.pi - 0.3)
        u, v = rng.uniform(0.5, 1.0, 2)[:, None] * [[math.cos(angle), math.sin(angle)], [math.cos(angle + turn), math.sin(angle + turn)]]
        pts = np.array([np.zeros(2), u, u + v + 10.0 ** rng.uniform(-9.0, -3.0) * rng.normal(size=2), v])
    elif kind == "lattice":  # drawn until convex
        pts = rng.integers(-4, 5, (4, 2)).astype(float)
        while not _convex(pts):
            pts = rng.integers(-4, 5, (4, 2)).astype(float)
    else:  # tips at either end, one point on each long side
        length = 1e6
        ends, sides = rng.uniform(0.3, 0.7, 2), rng.uniform(0.2, 0.8, 2) * length
        pts = np.array([[0.0, ends[0]], [sides[0], 0.0], [length, ends[1]], [sides[1], 1.0]])
    assert _convex(pts)
    angle = rng.uniform(0.0, math.pi) if kind == "sliver" else 0.0
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    scale = 1.0 if kind == "sliver" else draw(st.sampled_from([1.0, 30.0, 1000.0]))
    return (scale * pts @ rot.T)[rng.permutation(4)]


@st.composite
def quads_with_inner_points(draw):
    """A convex quad with up to six points strictly inside its minimum ellipse,
    in random order: the larger cells brute force sees."""
    corners = draw(convex_quads())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.vstack([corners, _points_inside(mvee(corners), draw(st.integers(0, 6)), rng)])
    return pts[rng.permutation(len(pts))]


@st.composite
def pentagons(draw):
    """Five points on or near an ellipse 1 m to 1 km across, in random order:
    a regular pentagon with its angles up to 0.3 rad and its radii up to 20%
    off, or points at any angles whose radii are 1e-12 to 1e-6 off one
    circle (near-cocircular), then stretched and rotated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        t = 2.0 * math.pi * np.arange(5) / 5 + rng.uniform(-0.3, 0.3, 5)
        r = rng.uniform(0.8, 1.2, 5)
    else:
        t = rng.uniform(0.0, 2.0 * math.pi, 5)
        r = 1.0 + 10.0 ** rng.uniform(-12.0, -6.0, 5) * rng.choice([-1.0, 1.0], 5)
    angle = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    pts = (r[:, None] * np.column_stack([np.cos(t), rng.uniform(0.2, 1.0) * np.sin(t)])) @ rot.T
    return draw(st.sampled_from([1.0, 30.0, 1000.0])) * pts[rng.permutation(5)]


@st.composite
def pentagons_with_inner_points(draw):
    """A pentagon with up to six points strictly inside its minimum ellipse,
    in random order: the cells whose support has five points."""
    corners = draw(pentagons())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.vstack([corners, _points_inside(mvee(corners), draw(st.integers(0, 6)), rng)])
    return pts[rng.permutation(len(pts))]


fits_with_supports = st.one_of(
    fit_sets(), point_sets(3, 18), triangles_with_inner_points(), quads_with_inner_points(), pentagons_with_inner_points()
)


@PROPERTY
@given(fits_with_supports, offsets)
@example(OFF_CORE_TRIPLE, np.zeros(2))
# the fourth point lies on the Steiner ellipse of the other three, and far
# out its rounded radius sets the containment inflation
@example(np.array([[1.0, 4.0], [-4.0, 0.0], [3.0, 2.0], [-1.0, 0.0]]), np.array([1000.0, -500000.0]))
# lattice points whose support is five of them
@example(np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, 1.0], [1.0, -1.0]]), np.zeros(2))
def test_a_fit_on_three_to_five_support_points_is_the_fit_of_those_points(pts, offset):
    pts = pts + offset
    e = mvee(pts)
    if e.fit.support is None:
        return  # six support points, or an axis on the floor
    assert len(e.fit.support) in (3, 4, 5)
    assert _bytes(e) == _bytes(mvee(pts[list(e.fit.support)]))


@PROPERTY
@given(fits_with_supports, offsets, st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(np.delete(OFF_CORE_TRIPLE, 2, axis=0), np.zeros(2), 1, 0)
def test_points_strictly_inside_a_three_to_five_point_fit_leave_its_bytes(pts, offset, extra, seed):
    # Welzl (1991): a point inside a set's minimum ellipse leaves it minimum
    pts = pts + offset
    e = mvee(pts)
    if e.fit.support is None:
        return
    room = 1.0 - 1e-9
    rest = np.delete(np.arange(len(pts)), list(e.fit.support))
    if not (geometry._radii(e.A, e.b, pts[rest]) < room).all():
        return  # a point off the support on the boundary may change the certified support
    rng = np.random.default_rng(seed)
    added = _points_inside(e, extra, rng)
    added = added[geometry._radii(e.A, e.b, added) < room]
    grown = pts
    for p in added:
        grown = np.insert(grown, rng.integers(len(grown) + 1), p, axis=0)
    assert _bytes(mvee(grown)) == _bytes(e)


@PROPERTY
@given(convex_quads(), offsets)
def test_every_fit_of_four_points_in_convex_position_is_settled_without_a_walk(pts, offset):
    # the support is the largest triangle, which the first screen certifies,
    # or all four points, which the quad screen does
    pts = pts + offset
    with patch.object(geometry, "_walk", wraps=geometry._walk) as walk:
        e = mvee(pts)
    assert walk.call_count == 0
    assert e.fit.ending in ("triangle", "quad") and e.fit.gap <= 1e-12
    assert contains(e, pts).all()


@settings(PROPERTY, max_examples=25)
@given(convex_quads(), offsets)
def test_the_four_point_ellipse_has_the_grid_oracle_area(pts, offset):
    # the oracle samples the pencil of conics through the points and polishes
    # the best few ellipses by pattern search: feasible, and within 1e-4 of
    # the optimum.  Its conics lose their digits 1e6 m out, so it gets the
    # points about their mean; the area does not change under translation.
    _, axes, _, fit = geometry._fit_center_form(pts + offset)  # before the 1 m floor and the inflation
    want = grid_min_ellipse_area(pts + offset - (pts + offset).mean(axis=0))
    assert fit.gap <= 1e-12
    assert want * (1.0 - 1e-4) <= math.pi * axes[0] * axes[1] <= want * (1.0 + 1e-8)


@PROPERTY
@given(pentagons(), offsets)
def test_the_five_point_ellipse_has_the_newton_area(pts, offset):
    # Newton alone from equal weights on the whitened points: its weights'
    # moments give the optimal ellipse
    pts = pts + offset
    _, axes, _, fit = geometry._fit_center_form(pts)  # before the 1 m floor and the inflation
    assert fit.gap <= 1e-12
    want = newton_min_ellipse_area(pts)
    assert want is not None
    assert math.isclose(math.pi * axes[0] * axes[1], want, rel_tol=1e-12)


@st.composite
def five_point_sets(draw):
    """Five points in convex position, in random order: a random convex set
    or a regular pentagon with its radii within 1e-12 of one circle, 1e-3 m
    to 1e7 m across, or a random convex set stretched to 1 m x 1e6 m."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["convex", "near-cocircular", "sliver"]))
    if kind == "near-cocircular":
        t = 2.0 * math.pi * np.arange(5) / 5 + rng.uniform(0.0, 2.0 * math.pi)
        pts = (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, 5))[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    else:
        pts = rng.uniform(-0.5, 0.5, (5, 2))
        while len(ConvexHull(pts).vertices) < 5:
            pts = rng.uniform(-0.5, 0.5, (5, 2))
    if kind == "sliver":
        angle = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        return (pts * [1e6, 1.0]) @ rot.T
    return 10.0 ** draw(st.integers(-3, 7)) * pts[rng.permutation(5)]


def _whitened(pts: np.ndarray) -> list:
    """The points in the frame of the walk: zero mean and unit covariance."""
    centered = pts - pts.mean(axis=0)
    centered -= centered.mean(axis=0)
    return (np.linalg.svd(centered, full_matrices=False)[0] * math.sqrt(len(pts))).tolist()


@settings(PROPERTY, max_examples=150)
@given(five_point_sets(), st.sampled_from([0.0, 1e3, 1e7]).map(lambda d: np.array([d, -0.5 * d])))
def test_the_five_point_conic_and_its_weight_signs_match_exact_arithmetic(pts, offset):
    # the walk hands _five_conic and _moment_weights whitened points, and the
    # oracle solves the conic through those same floats exactly
    z = _whitened(pts + offset)
    a, b, c, d, e, f = conic = exact_five_conic(z)
    want, got = exact_ellipse(conic), geometry._five_conic(z)
    norm = max(map(abs, conic))
    # an ellipse, a hyperbola or a line pair only where rounding cannot tell them apart
    if abs(a * c - b * b) > 1e-9 * norm**2 and abs(a * (c * f - e * e) - b * (b * f - d * e) + d * (b * e - c * d)) > 1e-9 * norm**3:
        assert (got is None) == (want is None)
    if got is None or want is None:
        return
    (center, cov, _), (exact_center, exact_cov, _) = got, want
    trace = exact_cov[0] + exact_cov[2]
    # within 1e-10 of the ellipse's size, about a million times the rounding
    # of the floats the conic is built from
    assert max(abs(Fraction(u) - v) for u, v in zip(center, exact_center)) <= 1e-10 * math.sqrt(trace)
    assert max(abs(Fraction(u) - v) for u, v in zip(cov, exact_cov)) <= 1e-10 * trace
    weights = exact_five_weights(z, exact_center, exact_cov)
    if abs(min(weights)) > 1e-9 * max(map(abs, weights)):  # a sign rounding could not flip
        assert geometry._moment_weights(z, *got) == (min(weights) > 0)


def test_every_seven_user_brute_force_fit_is_settled_without_a_walk():
    # every cell's support is the largest triangle, the quad it makes with
    # the point it leaves farthest out, or that quad and the point the quad
    # leaves farthest out; or the cell reuses a sub-cell's fit
    with patch.object(geometry, "_walk", wraps=geometry._walk) as walk:
        for seed in range(30):
            users = generate_pcp(Region(), PcpConfig(seed=seed))[:7]
            brute_force_plan(users, 3, ENVIRONMENTS["urban"], RadioConfig())
    assert walk.call_count == 0


EPS = np.finfo(float).eps
log_lengths = st.integers(0, 60).map(lambda k: 10.0 ** (k / 10.0))  # 1 m to 1e6 m


@st.composite
def accessor_ellipses(draw):
    """Fitted ellipses, circles, axis-aligned and rotated A, and 1 m x 1e6 m
    slivers, centred on a 1 m grid within 500 m of the origin or 1e6 m out."""
    kind = draw(st.sampled_from(["fitted", "circle", "axis-aligned", "rotated", "sliver"]))
    offset = draw(offsets)
    if kind == "fitted":
        return mvee(draw(fit_sets()) + offset)
    if kind == "circle":
        radius = draw(log_lengths)
        axes = [radius, radius]
    else:
        axes = [1e6, 1.0] if kind == "sliver" else [draw(log_lengths), draw(log_lengths)]
    a = np.diag(1.0 / np.array(axes))
    if kind in ("rotated", "sliver"):
        angle = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        a = rot @ a @ rot.T
        a[1, 0] = a[0, 1]
    metres = st.integers(-500, 500).map(float)
    return Ellipse(A=a, b=a @ (np.array([draw(metres), draw(metres)]) + offset))


@PROPERTY
@given(accessor_ellipses())
@example(Ellipse(A=np.array([[1.0, 1e-20], [1e-20, 2.0]]), b=np.zeros(2)))  # -1e-20 rad, which % pi rounds up to pi
def test_closed_form_accessors_match_lapack(e):
    # Rounding in a*d - b*b, in Cramer's numerators and in LAPACK's LU and
    # eigensolvers is each a few eps times the largest term, about
    # lambda_max**2 (times |x| in the numerators), against a result of
    # lambda_max * lambda_min: so both sides of each comparison are within a
    # few eps * kappa (kappa = lambda_max / lambda_min) of the exact value.
    # The major axis's direction moves by eps * lambda_max over the gap
    # between the eigenvalues; 8 covers the constants of both sides.
    w, v = np.linalg.eigh(e.A)
    kappa = w[1] / w[0]
    x = np.linalg.solve(e.A, e.b)
    np.testing.assert_allclose(e.center, x, rtol=0.0, atol=8.0 * EPS * kappa * np.abs(x).max())
    major, minor = e.semi_axes
    assert major >= minor
    assert math.isclose(major, 1.0 / w[0], rel_tol=8.0 * EPS * kappa)
    assert math.isclose(minor, 1.0 / w[1], rel_tol=8.0 * EPS)
    assert math.isclose(e.area, math.pi / np.linalg.det(e.A), rel_tol=8.0 * EPS * kappa)
    reference = math.atan2(v[1, 0], v[0, 0]) % math.pi
    gap = float(w[1] - w[0])
    assert 0.0 <= e.orientation < math.pi
    if e.A[0, 1] == 0.0:  # eigh's conventions: 0 for a circle, else the axis of the smaller diagonal entry
        assert e.orientation == reference
    elif gap > 0.0:  # a rounded circle has no major axis
        turn = abs(e.orientation - reference)
        assert min(turn, math.pi - turn) <= 8.0 * EPS * w[1] / gap


@PROPERTY
@given(accessor_ellipses(), st.sampled_from([0.0, 1e6, 1e7]), st.integers(0, 2**32 - 1))
def test_float_and_array_radii_agree_bit_for_bit(e, reach, seed):
    # numpy's elementwise products, sums and sqrt round as Python floats and
    # math.sqrt do, so mvee's and brute force's float radii are those of contains
    e = Ellipse(A=e.A, b=e.b + e.A @ np.array([reach, -0.5 * reach]))
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi, 64)
    # on the boundary, just inside and outside it, and well inside and out
    level = np.array([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 0.5, 2.0] * 10 + [0.0] * 4)
    polar = level[:, None] * np.column_stack([np.cos(phase), np.sin(phase)])
    pts = np.linalg.solve(e.A, (e.b + polar).T).T
    A, b = e.A.tolist(), e.b.tolist()
    floats = [geometry._radius(math, A, b, x, y) for x, y in pts.tolist()]
    assert np.array(floats).tobytes() == geometry._radii(e.A, e.b, pts).tobytes()
    assert [r <= 1.0 for r in floats] == contains(e, pts).tolist()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 30.0, 1000.0]))
def test_a_triangle_fit_is_its_steiner_ellipse(seed, scale):
    # corners about a third of a turn apart keep the triangle well shaped, so
    # the SVD resolves its width to full precision
    rng = np.random.default_rng(seed)
    turn = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi / 3.0 * np.arange(3) + rng.uniform(-0.5, 0.5, 3)
    corners = scale * rng.uniform(0.3, 1.0, 3)[:, None] * np.column_stack([np.cos(turn), np.sin(turn)])
    (p0x, p0y), (p1x, p1y), (p2x, p2y) = ([Fraction(c) for c in p] for p in corners.tolist())
    centroid = [float((p0x + p1x + p2x) / 3), float((p0y + p1y + p2y) / 3)]
    steiner = 4.0 * math.pi / (3.0 * math.sqrt(3.0)) * float(abs((p1x - p0x) * (p2y - p0y) - (p2x - p0x) * (p1y - p0y)) / 2)
    # the fit before the 1 m floor and the containment inflation
    center, axes, _, fit = geometry._fit_center_form(corners)
    assert fit.support == (0, 1, 2)
    assert math.dist(center, centroid) <= 1e-12 * scale
    assert math.isclose(math.pi * axes[0] * axes[1], steiner, rel_tol=1e-12)
    e = mvee(corners)
    assert math.dist(e.center, centroid) <= 1e-12 * scale
    if min(axes) >= MIN_SEMI_AXIS_M:  # inflated by a relative 1e-12 on each axis
        assert math.isclose(e.area, steiner * (1.0 + 1e-12) ** 2, rel_tol=1e-12)


@st.composite
def clustering_fields(draw):
    """20-80 users: uniform, duplicated, collinear, on a lattice or on a
    circle, at a 1e-3 m, 1 m, 1 km or 1e6 m scale, possibly 1e6 m out."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "collinear", "lattice", "circle"]))
    n = draw(st.integers(20, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        pts = rng.uniform(0.0, 1.0, (n, 2))
    elif kind == "duplicates":
        pts = rng.uniform(0.0, 1.0, (draw(st.integers(1, 4)), 2))
        pts = pts[rng.integers(0, len(pts), n)]
    elif kind == "collinear":
        pts = rng.uniform(0.0, 1.0, n)[:, None] * rng.uniform(-1.0, 1.0, 2)
    elif kind == "lattice":
        side = draw(st.integers(2, 9))
        pts = np.array([(i % side, i // side) for i in range(n)], dtype=float) / side
    else:
        t = 2.0 * math.pi * np.arange(n) / n
        pts = 0.5 + 0.5 * np.column_stack([np.cos(t), np.sin(t)])
    return pts * draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6])) + draw(offsets)


@PROPERTY
@given(clustering_fields())
def test_clustering_gives_disjoint_covering_cells_or_says_it_did_not_converge(pts):
    try:
        m, cs, trace = clustering.ellipse_clustering(pts)
    except clustering.NoConvergenceError:
        return
    assert trace.converged and m == len(cs.clusters)
    members = sorted(i for c in cs.clusters for i in c.members)
    assert members == list(range(len(pts)))  # every user in exactly one cell
    assert not find_intersections(cs)  # and inside no other cell's ellipse


@st.composite
def tiny_instances(draw):
    """Up to six users in a 1 km square; duplicates, collinear users and
    lattices within the 1 m floor radius make some partitions, or all but
    the single cell, infeasible, and lattices give exact power ties."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "collinear", "clustered", "lattice"]))
    n = draw(st.sampled_from([6, 5, 4, 3, 2, 1]))
    coord = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
    if kind == "uniform":
        pts = [(draw(coord), draw(coord)) for _ in range(n)]
    elif kind == "duplicates":
        base = [(draw(coord), draw(coord)) for _ in range(draw(st.integers(1, 3)))]
        pts = [base[draw(st.integers(0, len(base) - 1))] for _ in range(n)]
    elif kind == "collinear":
        a, b = np.array([draw(coord), draw(coord)]), np.array([draw(coord), draw(coord)])
        pts = [a + draw(st.floats(0.0, 1.0)) * (b - a) for _ in range(n)]
    elif kind == "lattice":
        spacing = draw(st.sampled_from([1.0, 100.0]))
        pts = [(spacing * draw(st.integers(0, 4)), spacing * draw(st.integers(0, 4))) for _ in range(n)]
    else:
        centers = [np.array([draw(coord), draw(coord)]) for _ in range(2)]
        jitter = st.floats(-30.0, 30.0)
        pts = [centers[i % 2] + (draw(jitter), draw(jitter)) for i in range(n)]
    return np.array(pts, dtype=float).reshape(n, 2)


def _outcome(search):
    """Every UAV field and the total power of a search's plan, or its error."""
    try:
        plan = search()
    except ValueError as exc:
        return str(exc)
    fields = [
        (u.members, u.x, u.y, u.altitude_m, u.orientation_rad, u.beam, u.tx_power_dbm,
         u.footprint.A.tobytes(), u.footprint.b.tobytes())
        for u in plan.uavs
    ]
    return fields, plan.total_power_mw


@PROPERTY
@given(tiny_instances(), st.integers(1, 3), st.sampled_from([0.0, 40.0]))
# the cheapest split here, {0} and {1, 2, 3}, leaves user 1 on the 1 m floor
# circle of user 0; a rule checking the users of only one cell of each pair
# would accept it
@example(np.array([[1.0, 3.0], [1.0, 2.0], [2.0, 2.0], [2.0, 1.0]]), 2, 0.0)
def test_brute_force_matches_per_partition_reference(users, num_uavs, step):
    urban, radio = ENVIRONMENTS["urban"], RadioConfig()
    # step 0 keeps the closed-form altitude; hypothesis rejects monkeypatch here
    search = partial(grid_altitude, step=step) if step > 0.0 else deployment.optimal_altitude
    with patch.object(deployment, "optimal_altitude", search):
        got = _outcome(lambda: brute_force_plan(users, num_uavs, urban, radio))
        want = _outcome(lambda: brute_force_per_partition(users, num_uavs, urban, radio))
    assert got == want  # same groups, UAV fields and bit-equal total power


@pytest.mark.parametrize("n, num_uavs", [(10, 2), (8, 3)])
def test_brute_force_matches_per_partition_reference_at_the_user_cap(n, num_uavs):
    # tiny_instances stops at six users, so the high member bits go untested there
    users = np.random.default_rng(n).uniform(0.0, 600.0, (n, 2))
    urban, radio = ENVIRONMENTS["urban"], RadioConfig()
    got = _outcome(lambda: brute_force_plan(users, num_uavs, urban, radio))
    want = _outcome(lambda: brute_force_per_partition(users, num_uavs, urban, radio))
    assert got == want


@st.composite
def brute_instances(draw):
    """One to eight users: uniform, duplicates, collinear users and lattices
    in a square of side 1 mm to 1e7 m, some moved 1e7 m out, so cells that
    reuse a sub-cell's ellipse, cells on the 1 m floor and power ties occur."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "collinear", "lattice"]))
    n = draw(st.sampled_from([8, 7, 6, 5, 4, 3, 2, 1]))  # larger first: they reuse the most
    unit = st.floats(0.0, 1.0)
    if kind == "uniform":
        pts = [(draw(unit), draw(unit)) for _ in range(n)]
    elif kind == "duplicates":
        base = [(draw(unit), draw(unit)) for _ in range(draw(st.integers(1, 3)))]
        pts = [base[draw(st.integers(0, len(base) - 1))] for _ in range(n)]
    elif kind == "collinear":
        a, b = np.array([draw(unit), draw(unit)]), np.array([draw(unit), draw(unit)])
        pts = [a + draw(unit) * (b - a) for _ in range(n)]
    else:
        pts = [(draw(st.integers(0, 4)) / 4.0, draw(st.integers(0, 4)) / 4.0) for _ in range(n)]
    side, offset = draw(st.sampled_from([1e-3, 1e3, 1e7])), draw(st.sampled_from([0.0, 1e7]))
    return np.array(pts, dtype=float).reshape(n, 2) * side + [offset, -offset]


def _cell(members, e):
    return sorted(members), e.A.tobytes(), e.b.tobytes(), e.fit.support


def _deployed(search):
    """Every cell a brute-force search deploys, in order, then its plan's cells and the repr of its total."""
    cells = []

    def recording(cluster, *args):
        cells.append(_cell(cluster.members, cluster.ellipse))
        return deployment.deploy_cell(cluster, *args)

    with patch.object(baseline, "deploy_cell", recording), patch.object(oracles, "deploy_cell", recording):
        plan = search()
    return cells, [_cell(u.members, u.footprint) for u in plan.uavs], repr(plan.total_power_mw)


@settings(PROPERTY, max_examples=200)
@given(brute_instances(), st.sampled_from([3, 2, 1]))
@example(np.random.default_rng(10).uniform(0.0, 600.0, (10, 2)), 3)  # the user cap
def test_brute_force_by_cell_size_matches_the_per_key_loop(users, num_uavs):
    urban, radio = ENVIRONMENTS["urban"], RadioConfig()
    # a ceiling above the 15-degree floor of a 1e7 m cell, so every search ends in a plan
    got = _deployed(lambda: brute_force_plan(users, num_uavs, urban, radio, h_max=1e8))
    assert got == _deployed(lambda: brute_force_per_key(users, num_uavs, urban, radio, h_max=1e8))


@PROPERTY
@given(ellipses(), point_sets(max_size=2 * geometry._FIVE), st.sampled_from([0.0, 1e6, 1e7]))
@example(Ellipse(np.eye(2), [0.0, 0.0]), np.arange(2.0 * geometry._FIVE).reshape(-1, 2), 1e7)
@example(Ellipse(np.eye(2), [0.0, 0.0]), np.arange(2.0 * geometry._FIVE + 2.0).reshape(-1, 2), 1e7)
def test_edge_distance_has_the_bits_of_the_array_sum_either_side_of_the_float_bound(e, pts, reach):
    shift = np.array([reach, -0.5 * reach])
    e, pts = Ellipse(A=e.A, b=e.b + e.A @ shift), pts + shift
    want = math.sqrt(float(np.square(pts - e.center).sum(axis=1).max()))
    assert edge_distance(e, pts).hex() == edge_distance(e, pts, e.center).hex() == want.hex()


@PROPERTY
@given(
    st.floats(0.0, 3000.0),
    st.sampled_from(list(ENVIRONMENTS.values())),
    st.floats(1.0, 1000.0),
    st.floats(0.0, 2000.0),
    st.sampled_from([0.9e9, 2.0e9, 5.8e9]),
)
@example(3000.0, ENVIRONMENTS["suburban"], 1.0, 2000.0, 5.8e9)  # the optimum inside the bounds
@example(0.0, ENVIRONMENTS["urban"], 1.0, 10.0, 0.9e9)
def test_closed_form_altitude_is_no_worse_than_a_grid(edge, env, h_min, span, carrier):
    bounds = AltitudeBounds(h_min, h_min + span)
    radio = RadioConfig(carrier_frequency_hz=carrier)
    grid = np.append(np.arange(bounds.h_min, bounds.h_max, 0.5), bounds.h_max)
    best = min(avg_path_loss(h, edge, env, radio) for h in grid)
    got = deployment.optimal_altitude(edge, env, bounds)
    assert bounds.h_min <= got <= bounds.h_max
    assert avg_path_loss(got, edge, env, radio) <= (1.0 + 1e-12) * best


def long_pairs(plant=None):
    """3000 [x, y] pairs of floats; ``plant`` replaces the third pair from the end."""
    pairs = (np.random.default_rng(3000).standard_normal((3000, 2)) * 1e3).tolist()
    if plant is not None:
        pairs[-3] = plant
    return pairs


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def ulps_from(value: float, steps: int) -> float:
    """``value`` moved ``steps`` representable floats away from zero, or toward it for negative ``steps``."""
    return bits_to_float(struct.unpack("<Q", struct.pack("<d", value))[0] + steps)


# the edges of the range where orjson's float text is float.__repr__'s, and what lies beyond them
EDGES = [1e-4, 1e16, 1e-3, 1.0, 1e15, 1e-5, 1e-7, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
edge_floats = (
    st.integers(0, 2**64 - 1).map(bits_to_float)  # every bit pattern: NaN payloads, infinities, subnormals
    | st.integers(1, 2**52 - 1).map(bits_to_float)  # subnormals
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
    | st.builds(ulps_from, st.sampled_from([1e-4, 1e16]), st.integers(1, 50) | st.integers(-50, -1))
    | st.sampled_from(EDGES + [-edge for edge in EDGES])
    | st.floats()
)


@st.composite
def float_arrays(draw):
    """A (rows, cols) float64 array over every float of magnitude in [1e-4, 1e16), where
    orjson's text is float.__repr__'s, with zeros of either sign and maybe one value from
    ``edge_floats``; or such an array transposed, as float32 or int64, or of rank 1 or 3,
    which the writers take as their lists."""
    rows, cols = draw(st.sampled_from([(0, 2), (1, 2), (0, 0), (1, 0), (3, 0)]) | st.tuples(st.integers(1, 300), st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = np.array([1e-4, 1e16]).view(np.int64)  # positive floats are ordered as their bits
    array = rng.integers(low, high, (rows, cols)).view(np.float64) * rng.choice([-1.0, 1.0], (rows, cols))
    array[rng.random((rows, cols)) < 0.05] = 0.0
    array[rng.random((rows, cols)) < 0.05] = -0.0
    if array.size and draw(st.booleans()):
        array.flat[draw(st.integers(0, array.size - 1))] = draw(edge_floats)
    form = draw(st.sampled_from(["float64"] * 4 + ["transposed", "float32", "int64", "rank 1", "rank 3"]))
    if form == "float32":
        with np.errstate(over="ignore"):
            return array.astype(np.float32)
    return {
        "float64": array,
        "transposed": array.T,
        "int64": rng.integers(-(2**62), 2**62, (rows, cols)),
        "rank 1": array.ravel(),
        "rank 3": array[..., None],
    }[form]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(float_arrays())
@example(np.array([[1e16, 1e-5], [5e-324, -0.0]]))
# one value just outside the range where orjson writes float.__repr__'s text
@example(np.array([[0.5, 1e16]]))
@example(np.array([[ulps_from(1e-4, -1), 0.5]]))
@example(np.array([[math.nan, math.inf], [-math.inf, 0.5]]))
@example(np.array([[ulps_from(1e-4, -1), 1e-4], [ulps_from(1e16, -1), -1e16]]))
@example(np.random.default_rng(3000).standard_normal((3000, 2)) * 1e3)
def test_canonical_json_writes_arrays_as_their_lists(array):
    payload = {"users": array, "deeper": [{"cells": array}, 1.5]}
    listed = {"users": array.tolist(), "deeper": [{"cells": array.tolist()}, 1.5]}
    assert dump_canonical_json(payload) == json.dumps(listed, indent=2, sort_keys=True) + "\n"


def test_scenario_and_cdf_writes_format_their_floats_in_one_orjson_call(tmp_path):
    users = np.random.default_rng(7).uniform(0.0, 1000.0, (3000, 2))
    scenario = Scenario(Region(), users, ENVIRONMENTS["urban"], RadioConfig(), ClusteringConfig())
    ordered, cdf = np.sort(users[:, 0]).tolist(), np.arange(1, 3001) / 3000
    with patch("orjson.dumps", wraps=orjson.dumps) as dumps:
        save_scenario(scenario, tmp_path / "scenario.json")
        assert dumps.call_count == 1
        _write_csv(tmp_path / "throughput_cdf.csv", ["throughput_bps", "cdf"], np.column_stack((ordered, cdf)))
        assert dumps.call_count == 2


# in order, a coordinate orjson writes unlike float.__repr__ and a view in Fortran order
@pytest.mark.parametrize("form", ["plain", "one 5e-5", "transposed"])
def test_save_scenario_builds_no_per_user_list(tmp_path, form):
    users = np.random.default_rng(7).uniform(0.0, 1000.0, (3000, 2))
    if form == "one 5e-5":
        users[1234, 1] = 5e-5
    elif form == "transposed":
        users = np.ascontiguousarray(users.T).T
    scenario = Scenario(Region(), users, ENVIRONMENTS["urban"], RadioConfig(), ClusteringConfig())
    with patch.object(scenario_module, "_encode", wraps=scenario_module._encode) as encode, patch("orjson.dumps", wraps=orjson.dumps) as dumps:
        save_scenario(scenario, tmp_path / "scenario.json")
    assert dumps.call_count == 1
    assert (tmp_path / "scenario.json").read_text() == json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    assert [call.args[0] for call in encode.call_args_list if isinstance(call.args[0], list) and len(call.args[0]) == 3000] == []
    assert any(isinstance(call.args[0], np.ndarray) and call.args[0].shape == (3000, 2) for call in encode.call_args_list)


def typed(value) -> list[tuple]:
    """``value`` as a prefix walk of (type, length or repr) tokens, without recursion, so that
    1 != 1.0, -0.0 != 0.0, NaN == NaN and key order counts, at any depth json reads."""
    tokens, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, dict)):
            tokens.append((type(item).__name__, len(item)))
            stack.extend(reversed([*chain.from_iterable(item.items())] if isinstance(item, dict) else item))
        else:
            tokens.append((type(item).__name__, repr(item)))
    return tokens


def read_outcome(read, path):
    try:
        return typed(read(path))
    except (ScenarioFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


def depth_and_ints(value) -> tuple[int, list[int]]:
    """How deeply ``value`` nests lists and dicts, and every int it holds."""
    depth, ints, stack = 0, [], [(value, 0)]
    while stack:
        item, level = stack.pop()
        if isinstance(item, (list, dict)):
            depth = max(depth, level + 1)
            stack.extend((kid, level + 1) for kid in (item.values() if isinstance(item, dict) else item))
        elif type(item) is int:
            ints.append(item)
    return depth, ints


BOUND_INTS = [s * (b + d) for b in (2**63, 2**64) for d in (-1, 0, 1) for s in (1, -1)]
int_literals = st.sampled_from(BOUND_INTS).map(str) | st.integers(-(10**20) + 1, 10**20 - 1).map(str) | st.integers(-(2**70), 2**70).map(str)


@st.composite
def float_literals(draw):
    """Float texts: long mantissas, the exact midpoint between two adjacent floats or its first
    17-25 digits, repr's shortest text, and texts json reads as 0, an infinity or NaN."""
    kind = draw(st.sampled_from(["long", "halfway", "repr", "special"]))
    if kind == "long":  # a mantissa of 17 to 800 digits
        digits = str(draw(st.integers(10**16, 10 ** draw(st.integers(17, 800)) - 1)))
        point = draw(st.integers(1, len(digits)))
        return f"{draw(st.sampled_from(['', '-']))}{digits[:point]}.{digits[point:] or '0'}e{draw(st.integers(-400, 400))}"
    if kind == "halfway":
        low = draw(st.floats(0.0, 1e300))
        with localcontext() as ctx:
            ctx.prec = 2000
            middle = (Decimal(low) + Decimal(math.nextafter(low, math.inf))) / 2
        text = f"{middle:e}"
        mantissa, exponent = text.split("e")
        cut = draw(st.sampled_from([None, 17, 18, 19, 20, 25]))
        return text if cut is None else f"{mantissa[:cut + 1]}e{exponent}"
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    return draw(st.sampled_from(["1e400", "-1e400", "1e-400", "NaN", "Infinity", "-Infinity", "-0", "-0.0", "0e0", "1E5"]))


string_literals = st.sampled_from([
    '"[]{}"', '"{\\"k\\": [1]}"', '"\\ud800"', '"\\u00e9\\n"', '"é☃𝄞"', '"\\\\"', '"' + "[{" * 150 + '"', '"\t"', '"open',
]) | st.text(st.characters(blacklist_categories=("Cs",))).map(lambda t: json.dumps(t, ensure_ascii=False))
keys = st.sampled_from(['"a"', '"b"', '"[{"']) | string_literals  # few names: duplicate keys
json_literal_docs = st.recursive(
    st.sampled_from(["null", "true", "false"]) | int_literals | float_literals() | string_literals,
    lambda kids: st.lists(kids, max_size=4).map(lambda items: "[" + ",".join(items) + "]")
    | st.lists(st.tuples(keys, kids), max_size=4).map(lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"),
    max_leaves=12,
)


@st.composite
def nested_docs(draw):
    """A document nested 99 to 101, 1000 or 200 000 levels deep, closed or not, maybe one
    level deeper in a list after a string."""
    depth = draw(st.sampled_from([99, 100, 101, 1000, 200_000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"k":', "}"), ('[{"k": ', "}]")]))
    reps = depth // opener.count("[") if opener.startswith("[{") else depth
    closed = draw(st.booleans())
    doc = opener * reps + draw(json_literal_docs) + (closer * reps if closed else "")
    lead = draw(st.sampled_from(["", '"\\"", ', '"[{", ']))  # a string ahead with an escaped quote or brackets
    return f"[{lead}{doc}]" if lead else doc


@st.composite
def json_file_bytes(draw):
    text = draw(json_literal_docs | nested_docs())
    space = draw(st.sampled_from(["", " ", "\n", "\r\n", "\r", "\t"]))
    data = (space + text + space).encode("utf-8")
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data  # maybe a BOM


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(json_file_bytes())
@example(b"[" * 100 + b"]" * 100)
@example(b"[" * 101 + b"]" * 101)
@example(b"[" * 1000 + b"]" * 1000)
@example(b'["\\"", ' + b"[" * 150 + b"]" * 150 + b"]")
@example(b'{"seed": 9223372036854775808, "low": -9223372036854775808, "top": 18446744073709551615}')
@example(b"[18446744073709551616, -9223372036854775809, 99999999999999999999]")
@example(b"[-9223372036854775809, 1.5]")  # 19 digits after a minus
@example(b'{"a": 1, "a": 2.5, "b": [NaN, Infinity, -Infinity, 1e400, 1e-400, -0, -0.0]}')
@example(b'["\\ud800", "\xc3\xa9"]')
@example(b'["\xff"]')
@example(b'\r\n\r[1,\r\n2,]')
def test_read_json_gives_json_loads_value_or_message(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("read") / "doc.json"
    path.write_bytes(data)
    with patch("orjson.loads", wraps=orjson.loads) as fast:
        got = read_outcome(read_json, path)
    want = read_outcome(oracles.read_json_with_json, path)
    assert got == want
    if fast.called and isinstance(want, list):  # orjson read no deeper nesting nor longer int than it may
        depth, ints = depth_and_ints(oracles.read_json_with_json(path))
        assert depth <= 100 and all(-(2**63) <= i < 2**64 for i in ints)


def test_canonical_scenario_is_read_by_one_orjson_call(tmp_path):
    users = np.random.default_rng(7).uniform(0.0, 1000.0, (3000, 2))
    pcp = PcpConfig(seed=2**62 - 1)  # 19 digits, as generate's largest seeds
    path = tmp_path / "scenario.json"
    save_scenario(Scenario(Region(), users, ENVIRONMENTS["urban"], RadioConfig(), ClusteringConfig(), pcp), path)
    with patch("orjson.loads", wraps=orjson.loads) as fast, patch("json.loads", wraps=json.loads) as slow:
        loaded = load_scenario(path)
    assert (fast.call_count, slow.call_count) == (1, 0)
    assert loaded.pcp == pcp and np.array_equal(loaded.users, users)


json_floats = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 1e22, math.nan, math.inf, -math.inf]
) | st.floats().map(np.float64)  # a float subclass, written by float.__repr__
json_ints = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**30])
json_text = st.text() | st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\x7f\n\t", "naïve ☃ 𝄞 \u2028"])
json_scalars = st.none() | st.booleans() | json_ints | json_floats | json_text
# lists the writer joins in one step, and near misses it must leave to the general walk
json_pair = st.tuples(json_floats, json_floats | json_ints | st.booleans())
json_flat_lists = (
    st.lists(json_pair.map(list) | json_pair | st.lists(json_floats, max_size=3), max_size=4)
    | st.lists(json_ints | st.booleans(), max_size=5)
)


@PROPERTY
@given(st.recursive(
    json_scalars | json_flat_lists,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(json_text, kids, max_size=4)
    | st.dictionaries(json_ints | json_floats, kids, max_size=3),
    max_leaves=24,
))
@example([[1.5, -math.inf], (5e-324, math.nan)])
@example({"members": [0, 2**64, True], "A": [[np.float64(0.1), 1e16], [-0.0, 1e-7]], "b": [[1.0, 2]]})
# scenario-sized user lists with one cell or row near the end that the pair join must leave to json's rules
@example(long_pairs())
@example(long_pairs([0.5, 7]))
@example(long_pairs([True, 0.5]))
@example(long_pairs([0.5, np.float64(0.1)]))
@example(long_pairs([math.nan, 0.5]))
@example(long_pairs([0.5, 1.5, 2.5]))
# scenario-sized lists of floats with one that orjson writes unlike float.__repr__
@example(long_pairs([ulps_from(1e-4, -1), 0.5]))
@example(long_pairs([0.5, -1e16]))
@example(long_pairs([2.5e-7, 5e-324]))
def test_canonical_json_matches_json_dumps(payload):
    assert dump_canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


csv_text = st.text(st.characters(blacklist_categories=("Cs",))) | st.sampled_from(
    ["", "a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", " padded ", "nan", "1e+16"]
)
csv_numbers = json_floats | st.integers(-(2**200), 2**200) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
csv_cells = csv_text | st.none() | st.booleans() | csv_numbers


@st.composite
def number_tables(draw):
    """A table of plain ints and floats, 0 to 3000 rows of the header's width,
    maybe with one row cut short or one cell swapped for another kind."""
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    table = floats.tolist()
    for row, ints in zip(table, rng.integers(-(2**62), 2**62, (rows, width)).tolist()):
        for j in np.flatnonzero(rng.random(width) < 0.3):
            row[j] = ints[j]
    if rows and draw(st.booleans()):
        row = table[draw(st.integers(0, rows - 1))]
        if draw(st.booleans()):
            del row[-1]
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(csv_cells)
    return [f"c{j}" for j in range(width)], table


@PROPERTY
@given(st.one_of(
    st.tuples(st.lists(csv_text, max_size=4), st.lists(st.lists(csv_cells, max_size=5), max_size=6)),
    number_tables(),
    float_arrays().filter(lambda array: array.ndim == 2).map(lambda array: ([f"c{j}" for j in range(array.shape[1])], array)),
))
@example((["throughput_bps", "cdf"], []))
@example(([], [[], [1.5]]))
@example((["a"], [[None], [""], [math.nan], [math.inf], [-math.inf], [2**100]]))
@example((["x", "y"], [[math.nan, math.inf], [-math.inf, 2**100]]))
@example((["x", "y"], [[1.5, True], [2, -0.0]]))  # numbers and a bool, which csv writes as true
# a long float table with one value that orjson writes unlike float.__repr__
@example((["x", "y"], long_pairs([ulps_from(1e16, 3), 0.5])))
@example((["x", "y"], long_pairs([0.5, -ulps_from(1e-4, -50)])))
@example((["x", "y"], long_pairs([math.inf, 0.5])))
@example((["x", "y"], np.column_stack((np.arange(3000.0), np.arange(1, 3001) / 3000))))
@example((["x", "y"], np.array([[1.5, 1e-5], [2.5, 1e16]])))
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    header, rows = table
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_csv_cell(v) for v in row] for row in [header, *rows])
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_csv(path, header, rows)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@st.composite
def scored_plans(draw):
    """A plan of random UAVs over random users; some users are unowned,
    some lie outside their UAV's footprint, some cells are empty, and
    some UAVs put their farthest member exactly at the SNR threshold."""
    coord = st.floats(0.0, 400.0)
    n = draw(st.integers(1, 40))
    users = np.array([(draw(coord), draw(coord)) for _ in range(n)]).reshape(n, 2)
    env = ENVIRONMENTS[draw(st.sampled_from(sorted(ENVIRONMENTS)))]
    radio = RadioConfig(snr_threshold_db=draw(st.floats(-5.0, 10.0)))
    m = draw(st.integers(0, 5))
    owner = [draw(st.integers(-1, m - 1)) for _ in range(n)]
    uavs = []
    for c in range(m):
        axes = sorted([draw(st.floats(5.0, 300.0)), draw(st.floats(5.0, 300.0))])
        angle = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        a = rot @ np.diag([1.0 / axes[1], 1.0 / axes[0]]) @ rot.T
        a = 0.5 * (a + a.T)
        x, y = draw(coord), draw(coord)
        altitude = draw(st.floats(5.0, 800.0))
        beam = Beam(draw(st.floats(5.0, 80.0)), draw(st.floats(1.0, 5.0)))
        members = frozenset(u for u in range(n) if owner[u] == c)
        power = draw(st.floats(-20.0, 40.0))
        if members and draw(st.booleans()):
            edge = max(math.hypot(users[u][0] - x, users[u][1] - y) for u in members)
            power = required_power_dbm(altitude, edge, env, beam, radio)
        footprint = Ellipse(A=a, b=a @ np.array([x, y]))
        uavs.append(UavDeployment(x, y, altitude, angle, beam, power, footprint, members))
    return DeploymentPlan(uavs, env, radio, total_power_mw=1.0), users


@PROPERTY
@given(scored_plans())
def test_per_uav_evaluate_matches_per_user_link_budget(case):
    plan, users = case
    got = evaluate(plan, users)
    snr, throughput, coverage = evaluate_per_user(plan, users)
    got_snr, got_rate = np.array(got.per_user_snr_db), np.array(got.per_user_throughput_bps)
    unserved = np.array(snr) == -math.inf
    np.testing.assert_array_equal(got_snr[unserved], -math.inf)
    np.testing.assert_array_equal(got_rate[unserved], 0.0)
    np.testing.assert_allclose(got_snr[~unserved], np.array(snr)[~unserved], rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(got_rate, throughput, rtol=1e-12, atol=0.0)
    cut = plan.radio.snr_threshold_db - SNR_GRACE_DB
    clear = np.abs(np.array(snr) - cut) > 1e-11
    np.testing.assert_array_equal((got_snr >= cut)[clear], (np.array(snr) >= cut)[clear])
    if clear.all():
        assert got.coverage_probability == coverage


def _error(score, plan, users):
    try:
        score(plan, users)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(scored_plans(), st.sampled_from(["past_end", "negative", "huge", "twice"]), st.integers(0, 10))
def test_per_uav_evaluate_rejects_bad_members_like_the_per_user_loop(case, fault, k):
    plan, users = case
    if not plan.uavs:
        return
    uav = plan.uavs[k % len(plan.uavs)]
    bad = {"past_end": len(users) + k, "negative": -1 - k, "huge": 10**30 + k, "twice": k % len(users)}[fault]
    if fault == "twice":
        plan.uavs.append(UavDeployment(**{**vars(uav), "members": frozenset({bad})}))
    else:
        uav.members = uav.members | {bad}
    want = _error(evaluate_per_user, plan, users)
    assert want is not None or fault == "twice"  # an unowned user taken once is no fault
    assert _error(evaluate, plan, users) == want


@PROPERTY
@given(scored_plans(), st.lists(st.tuples(st.sampled_from(["past_end", "negative", "huge", "twice"]), st.integers(0, 10)), min_size=2, max_size=6))
def test_evaluate_rejects_mixed_bad_members_like_the_per_user_loop(case, faults):
    # several faults at once, in one UAV or spread over several: the first
    # member in set order that fails names the fault, as in the loop
    plan, users = case
    if not plan.uavs:
        return
    for fault, k in faults:
        uav = plan.uavs[k % len(plan.uavs)]
        bad = {"past_end": len(users) + k, "negative": -1 - k, "huge": 10**30 + k, "twice": k % len(users)}[fault]
        if fault == "twice" and k % 2:
            plan.uavs.append(UavDeployment(**{**vars(uav), "members": frozenset({bad})}))
        else:
            uav.members = uav.members | {bad}
    assert _error(evaluate, plan, users) == _error(evaluate_per_user, plan, users)


@PROPERTY
@given(
    st.integers(1, 150),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from(["past_end", "negative", "huge", "twice"]), st.integers(0, 200)), max_size=3),
)
@example(82, 2, 0, [("twice", 0)])  # a large cell takes a user an earlier cell holds
@example(100, 1, 0, [("huge", 0), ("past_end", 1), ("negative", 2)])
def test_evaluate_claims_cells_of_any_size_like_the_per_user_loop(n, m, seed, faults):
    # cells of a few members are claimed one by one, larger ones by numpy at once
    rng = np.random.default_rng(seed)
    users = rng.uniform(0.0, 400.0, (n, 2))
    owner = rng.integers(-1, m, n)
    footprint = Ellipse(A=np.eye(2) / 300.0, b=np.array([200.0, 200.0]) / 300.0)
    uavs = [
        UavDeployment(200.0, 200.0, 100.0, 0.0, Beam(30.0, 30.0), 10.0, footprint, frozenset(np.flatnonzero(owner == c).tolist()))
        for c in range(m)
    ]
    for fault, k in faults:
        uav = uavs[k % m]
        bad = {"past_end": n + k, "negative": -1 - k, "huge": 10**30 + k, "twice": k % n}[fault]
        if fault == "twice" and k % 2:
            uavs.append(UavDeployment(**{**vars(uav), "members": frozenset({bad})}))
        else:
            uav.members = uav.members | {bad}
    plan = DeploymentPlan(uavs, ENVIRONMENTS["urban"], RadioConfig(), total_power_mw=1.0)
    assert _error(evaluate, plan, users) == _error(evaluate_per_user, plan, users)
