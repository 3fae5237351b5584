"""Property tests of the vectorized clustering steps against per-item oracles.

Examples are derandomized so that every run checks the same cases.
"""

import math
from functools import partial
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_per_partition,
    grid_altitude,
    intersections_pairwise,
    select_k_direct,
    silhouette_per_point,
)
from uavcell import deployment
from uavcell.baseline import brute_force_plan
from uavcell.channel import ENVIRONMENTS, RadioConfig
from uavcell.clustering import (
    Cluster,
    ClusterSet,
    find_intersections,
    grow_to_k,
    select_k,
    silhouette_index,
)
from uavcell.geometry import Ellipse, contains

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
    # step 0 keeps the golden-section search; hypothesis rejects monkeypatch here
    search = partial(grid_altitude, step=step) if step > 0.0 else deployment.optimal_altitude
    with patch.object(deployment, "optimal_altitude", search):
        got = _outcome(lambda: brute_force_plan(users, num_uavs, urban, radio))
        want = _outcome(lambda: brute_force_per_partition(users, num_uavs, urban, radio))
    assert got == want  # same groups, UAV fields and bit-equal total power
