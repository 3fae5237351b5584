import dataclasses
import math
from functools import partial
from itertools import groupby

import numpy as np
import pytest

from oracles import grid_altitude
from uavcell import baseline, deployment, geometry
from uavcell.baseline import (
    CirclePackingConfig,
    PackingError,
    _partitions,
    brute_force_optimum,
    brute_force_plan,
    circle_pack_deploy,
)
from uavcell.channel import ENVIRONMENTS, Beam, RadioConfig, dbm_to_mw
from uavcell.clustering import ellipse_clustering
from uavcell.deployment import SNR_GRACE_DB, deploy, evaluate
from uavcell.geometry import contains, mvee
from uavcell.scenario import PcpConfig, Region, Scenario, generate_pcp

RADIO = RadioConfig()
URBAN = ENVIRONMENTS["urban"]


def pcp_scenario(seed=0):
    cfg = PcpConfig(seed=seed)
    region = Region()
    return Scenario(
        region=region,
        users=generate_pcp(region, cfg),
        environment=URBAN,
        radio=RADIO,
        clustering=None,
        pcp=cfg,
    )


def fixed_scenario(users):
    return Scenario(
        region=Region(),
        users=np.asarray(users, dtype=float),
        environment=URBAN,
        radio=RADIO,
        clustering=None,
    )


# --- circle packing ---------------------------------------------------------

def test_single_circle_fills_the_region():
    plan = circle_pack_deploy(pcp_scenario(), CirclePackingConfig(num_uavs=1))
    uav = plan.uavs[0]
    assert (uav.x, uav.y) == (500.0, 500.0)
    assert uav.altitude_m == 150.0
    # auto beam reaches exactly to the lattice radius
    assert 150.0 * math.tan(math.radians(uav.beam.theta1_deg)) == pytest.approx(500.0, rel=1e-9)


def test_packed_circles_never_overlap():
    for num in (2, 3, 5, 7, 9):
        scen = pcp_scenario()
        plan = circle_pack_deploy(scen, CirclePackingConfig(num_uavs=num))
        assert all(contains(u.footprint, scen.users[sorted(u.members)]).all() for u in plan.uavs)
        centers = np.array([[u.x, u.y] for u in plan.uavs])
        radius = 150.0 * math.tan(math.radians(plan.uavs[0].beam.theta1_deg))
        for i in range(num):
            for j in range(i + 1, num):
                assert np.linalg.norm(centers[i] - centers[j]) >= 2.0 * radius * (1.0 - 1e-9)
        assert (centers[:, 0] >= radius * (1.0 - 1e-9)).all()
        assert (centers[:, 0] <= 1000.0 - radius * (1.0 - 1e-9)).all()
        assert (centers[:, 1] >= radius * (1.0 - 1e-9)).all()
        assert (centers[:, 1] <= 1000.0 - radius * (1.0 - 1e-9)).all()


def test_auto_power_puts_circle_edge_at_threshold():
    cfg = CirclePackingConfig(num_uavs=4)
    probe = circle_pack_deploy(pcp_scenario(), cfg)
    center = np.array([probe.uavs[0].x, probe.uavs[0].y])
    radius = 150.0 * math.tan(math.radians(probe.uavs[0].beam.theta1_deg))
    edge_user = center + np.array([radius, 0.0])
    scen = fixed_scenario([edge_user])
    plan = circle_pack_deploy(scen, cfg)
    metrics = evaluate(plan, scen.users)
    assert metrics.per_user_snr_db[0] == pytest.approx(RADIO.snr_threshold_db, abs=1e-9)


def test_members_feed_coverage_exactly():
    scen = pcp_scenario(seed=5)
    plan = circle_pack_deploy(scen, CirclePackingConfig(num_uavs=6))
    claimed = set()
    for uav in plan.uavs:
        assert claimed.isdisjoint(uav.members)
        claimed |= uav.members
    radius = 150.0 * math.tan(math.radians(plan.uavs[0].beam.theta1_deg))
    for uav in plan.uavs:
        for u in uav.members:
            assert math.hypot(scen.users[u][0] - uav.x, scen.users[u][1] - uav.y) <= radius * (1 + 1e-12)
    metrics = evaluate(plan, scen.users)
    assert metrics.coverage_probability == pytest.approx(len(claimed) / len(scen.users))


def test_corner_users_fall_outside_circles():
    # (0, 0) sits in the gap outside every packed circle; (250, 250) is a center
    scen = fixed_scenario([[0.0, 0.0], [250.0, 250.0]])
    plan = circle_pack_deploy(scen, CirclePackingConfig(num_uavs=4))
    metrics = evaluate(plan, scen.users)
    assert metrics.coverage_probability == 0.5
    assert metrics.per_user_snr_db[0] == float("-inf")


def test_oversized_beam_cannot_pack():
    with pytest.raises(PackingError):
        circle_pack_deploy(pcp_scenario(), CirclePackingConfig(num_uavs=9, beam=Beam(60.0, 60.0)))


def test_fixed_power_is_kept():
    plan = circle_pack_deploy(pcp_scenario(), CirclePackingConfig(num_uavs=3, fixed_power_dbm=30.0))
    assert all(u.tx_power_dbm == 30.0 for u in plan.uavs)
    assert plan.total_power_mw == pytest.approx(3.0 * dbm_to_mw(30.0))


def test_packing_config_validation():
    with pytest.raises(ValueError):
        CirclePackingConfig(num_uavs=0)
    for num in (1001, 10**20):  # the lattice search is quadratic in the count
        with pytest.raises(ValueError, match=r"num_uavs must be in \[1, 1000\]"):
            CirclePackingConfig(num_uavs=num)
    with pytest.raises(ValueError):
        CirclePackingConfig(num_uavs=2, fixed_altitude_m=0.0)
    with pytest.raises(ValueError):
        CirclePackingConfig(num_uavs=2, beam=Beam(40.0, 20.0))


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name, message", [("fixed_altitude_m", "fixed altitude"), ("fixed_power_dbm", "fixed power")])
def test_packing_config_rejects_non_finite_altitude_and_power(name, message, value):
    with pytest.raises(ValueError, match=f"^{message} must be"):
        CirclePackingConfig(num_uavs=2, **{name: value})


def test_circle_layouts_are_deterministic():
    a = circle_pack_deploy(pcp_scenario(seed=3), CirclePackingConfig(num_uavs=5))
    b = circle_pack_deploy(pcp_scenario(seed=3), CirclePackingConfig(num_uavs=5))
    assert [(u.x, u.y, u.tx_power_dbm) for u in a.uavs] == [(u.x, u.y, u.tx_power_dbm) for u in b.uavs]


# --- brute force ------------------------------------------------------------

def test_brute_single_user_matches_pipeline():
    users = [[300.0, 400.0]]
    groups, power = brute_force_optimum(users, 1, URBAN, RADIO)
    assert groups == [{0}]
    _, cs, _ = ellipse_clustering(np.asarray(users))
    assert power == pytest.approx(deploy(cs, URBAN, RADIO).total_power_mw, rel=1e-12)


def test_brute_splits_far_pair():
    users = [[0.0, 0.0], [900.0, 900.0]]
    groups, power = brute_force_optimum(users, 2, URBAN, RADIO)
    assert sorted(map(sorted, groups)) == [[0], [1]]
    joint_groups, joint_power = brute_force_optimum(users, 1, URBAN, RADIO)
    assert joint_groups == [{0, 1}]
    assert power < joint_power


def test_brute_keeps_close_pair_together():
    # floor circles around near-coincident users overlap, so splitting is
    # infeasible and the single shared cell wins by default
    groups, _ = brute_force_optimum([[100.0, 100.0], [101.0, 100.0]], 2, URBAN, RADIO)
    assert groups == [{0, 1}]


def test_brute_never_loses_to_pipeline():
    rng = np.random.default_rng(2)
    for trial in range(3):
        centers = rng.uniform(150.0, 850.0, (2, 2))
        pts = np.vstack([rng.normal(c, 15.0, (4, 2)) for c in centers])
        m, cs, _ = ellipse_clustering(pts)
        pipeline_power = deploy(cs, URBAN, RADIO).total_power_mw
        _, brute_power = brute_force_optimum(pts, 3, URBAN, RADIO)
        assert brute_power <= pipeline_power * (1.0 + 1e-9)


def test_grid_altitude_cross_checks_golden_section(monkeypatch):
    rng = np.random.default_rng(9)
    pts = np.vstack([
        rng.normal([250.0, 250.0], 20.0, (3, 2)),
        rng.normal([700.0, 700.0], 20.0, (3, 2)),
    ])
    _, closed_form = brute_force_optimum(pts, 2, URBAN, RADIO)
    monkeypatch.setattr(deployment, "optimal_altitude", partial(grid_altitude, step=0.5))
    _, grid = brute_force_optimum(pts, 2, URBAN, RADIO)
    assert grid == pytest.approx(closed_form, rel=1e-3)


def test_brute_caps():
    eleven = np.random.default_rng(0).uniform(0, 1000, (11, 2))
    with pytest.raises(ValueError, match="cap is 10"):
        brute_force_optimum(eleven, 2, URBAN, RADIO)
    with pytest.raises(ValueError, match="num_uavs"):
        brute_force_optimum(eleven[:4], 4, URBAN, RADIO)
    with pytest.raises(ValueError, match="no users"):
        brute_force_optimum(np.empty((0, 2)), 1, URBAN, RADIO)


def test_brute_fits_and_deploys_each_distinct_cell_once(monkeypatch):
    fitted, placed = [], []
    optimal_altitude = deployment.optimal_altitude

    def counting_mvee(points):
        fitted.append(tuple(map(tuple, points)))
        return mvee(points)

    def counting_altitude(*args):
        placed.append(args)
        return optimal_altitude(*args)

    monkeypatch.setattr(baseline, "mvee", counting_mvee)
    monkeypatch.setattr(deployment, "optimal_altitude", counting_altitude)
    rng = np.random.default_rng(4)
    for n, num_uavs in ((7, 3), (6, 2), (5, 1)):
        fitted.clear()
        placed.clear()
        users = rng.uniform(0.0, 1000.0, (n, 2))
        plan = brute_force_plan(users, num_uavs, URBAN, RADIO)
        assert len(fitted) <= 2**n - 1
        assert len(set(fitted)) == len(fitted)  # no point set is fitted twice
        # one altitude search per deployed cell, each cell deployed at most once
        assert len(plan.uavs) <= len(placed) <= len(fitted)
        if num_uavs == 1:
            assert len(fitted) == len(placed) == 1


def test_a_search_takes_one_radius_pass_per_cell_size_with_a_fit(monkeypatch):
    # counted, never timed: the bitmasks of the cells fitted at one size come
    # from one broadcast of the array radii, and no user's radius is taken in
    # Python floats outside mvee
    fitted, passes, stray, depth = [], [], [], [0]
    fit, radii, radius = baseline.mvee, baseline._radii, geometry._radius

    def counting_mvee(points):
        fitted.append(len(points))
        depth[0] += 1
        try:
            return fit(points)
        finally:
            depth[0] -= 1

    def counting_radii(A, b, p):
        passes.append(np.shape(A[0][0])[-1])  # ellipses in this pass
        return radii(A, b, p)

    def watched_radius(xp, *args):
        if xp is math and not depth[0]:
            stray.append(args)
        return radius(xp, *args)

    monkeypatch.setattr(baseline, "mvee", counting_mvee)
    monkeypatch.setattr(baseline, "_radii", counting_radii)
    monkeypatch.setattr(geometry, "_radius", watched_radius)
    rng = np.random.default_rng(5)
    for n, num_uavs in ((7, 3), (8, 2), (10, 3), (4, 1), (1, 1)):
        fitted.clear()
        passes.clear()
        brute_force_plan(rng.uniform(0.0, 600.0, (n, 2)), num_uavs, URBAN, RADIO)
        # fits come in order of size, and each size's fits share one pass
        assert fitted == sorted(fitted) and passes == [len(list(run)) for _, run in groupby(fitted)]
    assert not stray


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_every_brute_force_cell_has_the_bytes_of_a_fresh_fit(monkeypatch, offset):
    # a cell that reuses a sub-cell's ellipse, because its extra users sit
    # strictly inside it (the float radii of the reuse bitmasks), must hold
    # the bytes that fitting its own members gives
    cells = []
    deploy_cell = baseline.deploy_cell

    def recording_deploy_cell(cluster, *args):
        cells.append((sorted(cluster.members), cluster.ellipse))
        return deploy_cell(cluster, *args)

    monkeypatch.setattr(baseline, "deploy_cell", recording_deploy_cell)
    for seed in range(30):
        users = generate_pcp(Region(), PcpConfig(seed=seed))[:7] + [offset, -0.5 * offset]
        cells.clear()
        brute_force_plan(users, 3, URBAN, RADIO)
        assert cells
        for members, e in cells:
            fresh = mvee(users[members])
            assert (e.A.tobytes(), e.b.tobytes()) == (fresh.A.tobytes(), fresh.b.tobytes()), (seed, members)


def test_partition_enumeration_counts():
    # Bell(4) = 15 partitions, one of which needs 4 blocks
    assert sum(1 for _ in _partitions(4, 3)) == 14
    assert sum(1 for _ in _partitions(4, 4)) == 15
    assert sum(1 for _ in _partitions(3, 1)) == 1
    # the one-cell labelling comes first, so brute force always has a feasible plan
    assert not next(_partitions(4, 3)).any()
    seen = {tuple(labels) for labels in _partitions(5, 3)}
    assert len(seen) == sum(1 for _ in _partitions(5, 3))  # each partition exactly once
