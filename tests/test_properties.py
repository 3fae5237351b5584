"""Property tests of the ellipse fit and the clustering steps, the vectorized
steps against per-item oracles, the Ward-merge replay against ``cut_tree``,
the JSON writer against ``json``, the per-UAV ``evaluate`` against the
per-user scalar link budget and the closed-form altitude against a grid.

Examples are derandomized so that every run checks the same cases.
"""

import json
import math
from functools import partial
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import cut_tree, linkage
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from oracles import (
    brute_force_per_partition,
    evaluate_per_user,
    farthest_pair_squareform,
    grid_altitude,
    intersections_pairwise,
    select_k_direct,
    silhouette_per_point,
)
from uavcell import clustering, deployment
from uavcell.baseline import brute_force_plan
from uavcell.channel import ENVIRONMENTS, Beam, RadioConfig, avg_path_loss
from uavcell.clustering import (
    Cluster,
    ClusterSet,
    _farthest_pair,
    find_intersections,
    grow_to_k,
    select_k,
    silhouette_index,
)
from uavcell.deployment import SNR_GRACE_DB, AltitudeBounds, DeploymentPlan, UavDeployment, evaluate, required_power_dbm
from uavcell.geometry import MIN_SEMI_AXIS_M, MVEE_TOLERANCE, Ellipse, contains, mvee
from uavcell.scenario import PcpConfig, Region, dump_canonical_json, generate_pcp

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


@PROPERTY
@given(point_sets(min_size=2, max_size=25), st.data())
def test_silhouette_equals_per_point_loop_bit_for_bit(pts, data):
    labels = data.draw(st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts)))
    if len(set(labels)) >= 2:
        assert silhouette_index(pts, labels) == silhouette_per_point(pts, labels)


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


@PROPERTY
@given(point_sets(min_size=2, max_size=40))
@example(np.zeros((5, 2)))  # every pair ties at distance 0
@example(np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]]))
def test_farthest_pair_from_hull_matches_full_distance_matrix(pts):
    with patch.object(clustering, "_HULL_MIN_POINTS", 3):  # take the hull at every size
        assert _farthest_pair(pts) == farthest_pair_squareform(pts)
    assert _farthest_pair(pts) == farthest_pair_squareform(pts)


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
    assert e.fit.gap <= MVEE_TOLERANCE


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
def test_mvee_of_the_hull_vertices_is_the_same_ellipse(pts, offset):
    pts = pts + offset
    try:
        hull = ConvexHull(pts).vertices
    except QhullError:
        return  # qhull rejects thin sets; their fit takes the line path
    if _sliver(pts) > 1e6:
        return  # a point within rounding of a sliver's edge may or may not be a vertex
    e = mvee(pts)
    _assert_same_ellipse(mvee(pts[hull]), _shape(e), e.center, pts)


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
def test_canonical_json_matches_json_dumps(payload):
    assert dump_canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
