import dataclasses
import math

import numpy as np
import pytest

from oracles import grid_best_altitude
from uavcell.channel import ENVIRONMENTS, Beam, RadioConfig, avg_path_loss, dbm_to_mw, optimal_elevation_rad
from uavcell import deployment
from uavcell.clustering import Cluster, ClusterSet, ellipse_clustering
from uavcell.deployment import (
    AltitudeBounds,
    SNR_GRACE_DB,
    UavDeployment,
    DeploymentPlan,
    _beam,
    deploy,
    deploy_cell,
    evaluate,
    optimal_altitude,
    required_power_dbm,
)
from uavcell.geometry import Ellipse, mvee

RADIO = RadioConfig()
URBAN = ENVIRONMENTS["urban"]


def blob_cluster_set(seed=0, centers=((200.0, 200.0), (800.0, 750.0)), per_blob=10, spread=30.0):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(c, spread, (per_blob, 2)) for c in centers])
    _, cs, _ = ellipse_clustering(pts)
    return pts, cs


# --- altitude bounds --------------------------------------------------------

def test_bounds_validation():
    with pytest.raises(ValueError):
        AltitudeBounds(0.0, 100.0)
    with pytest.raises(ValueError):
        AltitudeBounds(200.0, 100.0)


def test_bounds_keep_edge_elevation():
    b = AltitudeBounds.for_footprint(300.0, 1000.0)
    assert b.h_min == pytest.approx(300.0 * math.tan(math.pi / 12.0))
    assert b.h_max == 1000.0


# --- altitude search --------------------------------------------------------

def test_altitude_matches_dense_grid():
    rng = np.random.default_rng(1)
    for _ in range(6):
        edge = float(rng.uniform(50.0, 800.0))
        env = ENVIRONMENTS[rng.choice(list(ENVIRONMENTS))]
        bounds = AltitudeBounds.for_footprint(edge * 0.9, 1000.0)
        got = optimal_altitude(edge, env, bounds)
        want = grid_best_altitude(edge, env, RADIO, bounds.h_min, bounds.h_max)
        assert abs(got - want) <= 1.0
        assert bounds.h_min <= got <= bounds.h_max


def test_altitude_boundary_when_minimizer_below_range():
    # urban at a 100 m edge wants a low platform; force the range above it
    bounds = AltitudeBounds(800.0, 1000.0)
    got = optimal_altitude(100.0, URBAN, bounds)
    assert got == pytest.approx(800.0)


def test_min_loss_grows_with_cell_size():
    for env in ENVIRONMENTS.values():
        best = []
        for edge in (100.0, 200.0, 400.0, 800.0):
            bounds = AltitudeBounds.for_footprint(edge, 1000.0)
            h = optimal_altitude(edge, env, bounds)
            best.append(avg_path_loss(h, edge, env, RADIO))
        assert all(b >= a for a, b in zip(best, best[1:]))


def test_altitude_rejects_negative_edge():
    with pytest.raises(ValueError):
        optimal_altitude(-1.0, URBAN, AltitudeBounds(10.0, 100.0))


@pytest.mark.parametrize("env", ENVIRONMENTS.values(), ids=ENVIRONMENTS)
def test_optimal_elevation_matches_grid_argmin(env):
    step = 1e-5
    thetas = np.arange(step, math.pi / 2.0, step)
    losses = [avg_path_loss(math.tan(t), 1.0, env, RADIO) for t in thetas]
    assert abs(optimal_elevation_rad(env) - thetas[int(np.argmin(losses))]) <= step


def test_zero_edge_distance_sits_on_the_floor():
    for env in ENVIRONMENTS.values():
        assert optimal_altitude(0.0, env, AltitudeBounds(25.0, 1000.0)) == 25.0


# --- beam sizing ------------------------------------------------------------

def axis_aligned(a_major, a_minor, cx=0.0, cy=0.0):
    a = np.diag([1.0 / a_major, 1.0 / a_minor])
    return Ellipse(A=a, b=a @ np.array([cx, cy]))


def test_beam_forty_five_degrees_when_axis_equals_altitude():
    beam = _beam(250.0, *axis_aligned(250.0, 100.0).semi_axes)
    assert beam.theta1_deg == pytest.approx(45.0)


def test_beam_circle_gives_equal_widths():
    beam = _beam(300.0, *axis_aligned(120.0, 120.0).semi_axes)
    assert beam.theta1_deg == pytest.approx(beam.theta2_deg)


def test_beam_reference_values():
    beam = _beam(300.0, *axis_aligned(200.0, 100.0).semi_axes)
    assert beam.theta1_deg == pytest.approx(33.69, abs=0.01)
    assert beam.theta2_deg == pytest.approx(18.43, abs=0.01)


def test_beam_requires_positive_altitude():
    with pytest.raises(ValueError):
        _beam(0.0, *axis_aligned(100.0, 50.0).semi_axes)


# --- power sizing -----------------------------------------------------------

def test_power_balances_link_budget_at_edge():
    beam = Beam(35.0, 20.0)
    power = required_power_dbm(300.0, 400.0, URBAN, beam, RADIO)
    pl_db = 10.0 * math.log10(avg_path_loss(300.0, 400.0, URBAN, RADIO, beam))
    assert power - pl_db - RADIO.noise_power_dbm() == pytest.approx(RADIO.snr_threshold_db, abs=1e-9)


def test_power_tracks_threshold_db_for_db():
    beam = Beam(35.0, 20.0)
    base = required_power_dbm(300.0, 400.0, URBAN, beam, RADIO)
    stricter = required_power_dbm(300.0, 400.0, URBAN, beam, dataclasses.replace(RADIO, snr_threshold_db=3.0))
    assert stricter - base == pytest.approx(3.0, abs=1e-9)


# --- plan assembly ----------------------------------------------------------

def test_deploy_two_blob_field():
    pts, cs = blob_cluster_set()
    plan = deploy(cs, URBAN, RADIO)
    assert len(plan.uavs) == 2
    for m, uav in enumerate(plan.uavs):
        foot = cs.clusters[m].ellipse
        np.testing.assert_allclose([uav.x, uav.y], foot.center, atol=1e-9)
        assert uav.orientation_rad == foot.orientation
        major, minor = foot.semi_axes
        bounds = AltitudeBounds.for_footprint(major, 1000.0)
        assert bounds.h_min <= uav.altitude_m <= bounds.h_max
        # the beam projected back to the ground must reproduce the footprint
        assert uav.altitude_m * math.tan(math.radians(uav.beam.theta1_deg)) == pytest.approx(major, rel=1e-6)
        assert uav.altitude_m * math.tan(math.radians(uav.beam.theta2_deg)) == pytest.approx(minor, rel=1e-6)
    assert plan.total_power_mw == pytest.approx(sum(dbm_to_mw(u.tx_power_dbm) for u in plan.uavs), rel=1e-9)


def test_deploy_serves_every_member():
    pts, cs = blob_cluster_set(seed=5)
    plan = deploy(cs, URBAN, RADIO)
    metrics = evaluate(plan, pts)
    assert metrics.coverage_probability == 1.0
    assert min(metrics.per_user_snr_db) >= RADIO.snr_threshold_db - SNR_GRACE_DB
    assert metrics.num_uavs == len(plan.uavs)


def test_deploy_singleton_sits_at_the_elevation_floor():
    _, cs, _ = ellipse_clustering(np.array([[50.0, 60.0]]))
    plan = deploy(cs, URBAN, RADIO)
    uav = plan.uavs[0]
    # floor footprint is the 1 m circle; overhead loss only grows with height
    assert uav.altitude_m == pytest.approx(math.tan(math.pi / 12.0), rel=1e-9)
    np.testing.assert_allclose([uav.x, uav.y], [50.0, 60.0], atol=1e-9)


def test_deploy_places_each_cell_with_deploy_cell():
    _, cs = blob_cluster_set(seed=2)
    plan = deploy(cs, URBAN, RADIO, h_max=800.0)
    alone = [deploy_cell(c, cs.member_points(m), URBAN, RADIO, 800.0) for m, c in enumerate(cs.clusters)]
    assert plan.uavs == alone
    assert plan.total_power_mw == sum(dbm_to_mw(u.tx_power_dbm) for u in alone)


def test_deploy_cell_looks_up_the_altitude_search_when_called(monkeypatch):
    # a wrapper installed on the module after import must see every search
    _, cs = blob_cluster_set(seed=2)
    searched = []

    def recorded(*args):
        searched.append(args[0])
        return optimal_altitude(*args)

    monkeypatch.setattr(deployment, "optimal_altitude", recorded)
    plan = deploy(cs, URBAN, RADIO)
    assert len(searched) == len(plan.uavs) == len(cs.clusters)
    monkeypatch.setattr(deployment, "optimal_altitude", lambda edge, env, bounds: bounds.h_max)
    fixed = deploy(cs, URBAN, RADIO)
    assert len(searched) == len(cs.clusters)
    assert all(u.altitude_m == 1000.0 for u in fixed.uavs)


def test_a_cell_too_wide_for_h_max_is_named_by_the_widest_before_any_is_placed(monkeypatch):
    # round cells of 2000 m and 5000 m radius, the narrower first: both are too
    # wide for 100 m, and the 5000 m one needs ceil(5000 tan 15 deg) = 1340 m
    users = np.array([[0.0, 0.0], [20000.0, 0.0]])
    cs = ClusterSet(users=users, clusters=[
        Cluster(frozenset({0}), Ellipse(A=np.eye(2) / 2000.0, b=[0.0, 0.0])),
        Cluster(frozenset({1}), Ellipse(A=np.eye(2) / 5000.0, b=[4.0, 0.0])),
    ])
    searched = []
    monkeypatch.setattr(deployment, "optimal_altitude", lambda *args: searched.append(args) or optimal_altitude(*args))
    with pytest.raises(ValueError, match=r"semi-major axis 5000.0 m needs an altitude of at least 1340 m"):
        deploy(cs, URBAN, RADIO, h_max=100.0)
    assert not searched
    assert len(deploy(cs, URBAN, RADIO, h_max=1340.0).uavs) == len(searched) == 2


def test_deploy_rejects_overlapping_cells():
    users = np.array([[0.0, 0.0], [1.0, 0.0]])
    a = np.eye(2) / 2.0
    overlapping = ClusterSet(
        users=users,
        clusters=[
            Cluster(frozenset({0}), Ellipse(A=a, b=a @ np.array([0.0, 0.0]))),
            Cluster(frozenset({1}), Ellipse(A=a, b=a @ np.array([1.0, 0.0]))),
        ],
    )
    with pytest.raises(ValueError, match="interference risk"):
        deploy(overlapping, URBAN, RADIO)


# --- plan scoring -----------------------------------------------------------

def test_evaluate_unassigned_user_is_uncovered():
    pts, cs = blob_cluster_set(seed=2)
    plan = deploy(cs, URBAN, RADIO)
    extra = np.vstack([pts, [[500.0, 10.0]]])
    metrics = evaluate(plan, extra)
    assert metrics.per_user_snr_db[-1] == float("-inf")
    assert metrics.per_user_throughput_bps[-1] == 0.0
    assert metrics.coverage_probability == pytest.approx(len(pts) / len(extra))


def test_evaluate_member_outside_footprint_is_uncovered():
    users = np.array([[0.0, 0.0], [500.0, 0.0]])
    foot = axis_aligned(50.0, 50.0)
    uav = UavDeployment(
        x=0.0, y=0.0, altitude_m=100.0, orientation_rad=0.0,
        beam=_beam(100.0, *foot.semi_axes),
        tx_power_dbm=60.0, footprint=foot, members=frozenset({0, 1}),
    )
    plan = DeploymentPlan(uavs=[uav], environment=URBAN, radio=RADIO, total_power_mw=dbm_to_mw(60.0))
    metrics = evaluate(plan, users)
    assert metrics.per_user_snr_db[1] == float("-inf")
    assert metrics.coverage_probability == 0.5


def test_evaluate_rejects_double_claimed_user():
    pts, cs = blob_cluster_set(seed=3)
    plan = deploy(cs, URBAN, RADIO)
    bad = DeploymentPlan(
        uavs=[plan.uavs[0], dataclasses.replace(plan.uavs[1], members=plan.uavs[0].members)],
        environment=URBAN, radio=RADIO, total_power_mw=plan.total_power_mw,
    )
    with pytest.raises(ValueError, match="claimed by two"):
        evaluate(bad, pts)


def test_evaluate_rejects_out_of_range_member():
    pts, cs = blob_cluster_set(seed=4)
    plan = deploy(cs, URBAN, RADIO)
    with pytest.raises(ValueError, match="outside user array"):
        evaluate(plan, pts[:3])


def test_evaluate_throughput_shares_the_band():
    pts, cs = blob_cluster_set(seed=6)
    plan = deploy(cs, URBAN, RADIO)
    metrics = evaluate(plan, pts)
    u = min(plan.uavs[0].members)
    share = RADIO.bandwidth_hz / len(plan.uavs[0].members)
    want = share * math.log2(1.0 + 10.0 ** (metrics.per_user_snr_db[u] / 10.0))
    assert metrics.per_user_throughput_bps[u] == pytest.approx(want, rel=1e-12)


def test_evaluate_power_cut_breaks_coverage():
    pts, cs = blob_cluster_set(seed=7)
    plan = deploy(cs, URBAN, RADIO)
    dimmed = DeploymentPlan(
        uavs=[dataclasses.replace(u, tx_power_dbm=u.tx_power_dbm - 3.0) for u in plan.uavs],
        environment=URBAN,
        radio=RADIO,
        total_power_mw=sum(dbm_to_mw(u.tx_power_dbm - 3.0) for u in plan.uavs),
    )
    metrics = evaluate(dimmed, pts)
    assert metrics.coverage_probability < 1.0
    # coverage must equal the fraction of users meeting the threshold
    want = np.mean([s >= RADIO.snr_threshold_db - SNR_GRACE_DB for s in metrics.per_user_snr_db])
    assert metrics.coverage_probability == pytest.approx(want)
