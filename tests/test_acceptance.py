"""Release gate: ten end-to-end checks on the full deployment pipeline.

The campaign fixture pushes one hundred seeded point-process scenarios
through generation, clustering and deployment once; the coverage, QoS,
convergence and baseline checks all read from its records.  The remaining
checks exercise the geometry and channel layers against independent
oracles and pin the CLI to byte-identical reruns.  Each test ends with a
single ACCEPTANCE line (visible under ``pytest -s``) so a run of this file
doubles as the release checklist.
"""

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import grid_best_altitude, grid_min_ellipse_area
from uavcell.baseline import CirclePackingConfig, brute_force_optimum, circle_pack_deploy
from uavcell.channel import ENVIRONMENTS, Beam, RadioConfig, _fspl_db, antenna_gain_db, avg_path_loss
from uavcell.cli import main
from uavcell.clustering import ClusteringConfig, ClusterSet, ellipse_clustering, find_intersections
from uavcell.deployment import AltitudeBounds, DeploymentPlan, deploy, evaluate, optimal_altitude
from uavcell.geometry import mvee
from uavcell.scenario import PcpConfig, Region, Scenario, generate_pcp

URBAN = ENVIRONMENTS["urban"]
RADIO = RadioConfig()

CAMPAIGN_SEEDS = range(100)


@dataclass
class CampaignRecord:
    seed: int
    users: np.ndarray
    cluster_set: ClusterSet
    trace: object
    plan: DeploymentPlan


@pytest.fixture(scope="module")
def campaign():
    records = []
    start = time.perf_counter()
    for seed in CAMPAIGN_SEEDS:
        users = generate_pcp(Region(), PcpConfig(seed=seed))
        _, cs, trace = ellipse_clustering(users)
        plan = deploy(cs, URBAN, RADIO)
        records.append(CampaignRecord(seed, users, cs, trace, plan))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_acceptance_01_cells_partition_users_without_overlap(campaign):
    records, elapsed = campaign
    sizes = []
    for rec in records:
        n = len(rec.users)
        sizes.append(n)
        claimed = sorted(i for c in rec.cluster_set.clusters for i in c.members)
        assert claimed == list(range(n))
        assert find_intersections(rec.cluster_set) == set()
        # geometric restatement: count footprints around every user directly
        inside = np.zeros(n, dtype=int)
        for uav in rec.plan.uavs:
            q = np.linalg.norm(rec.users @ uav.footprint.A - uav.footprint.b, axis=1)
            inside += (q <= 1.0).astype(int)
        assert int(inside.max()) <= 1
    mean_users = statistics.mean(sizes)
    assert 200.0 <= mean_users <= 400.0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 1 PASS: {len(records)} scenarios, mean {mean_users:.0f} users, "
        f"every user in exactly one cell, zero double coverage, {elapsed:.1f}s"
    )


def test_acceptance_02_every_user_served_and_edge_user_at_threshold(campaign):
    records, _ = campaign
    worst_fence = 0.0
    global_min = float("inf")
    for rec in records:
        metrics = evaluate(rec.plan, rec.users)
        snr = np.asarray(metrics.per_user_snr_db)
        assert np.isfinite(snr).all()
        global_min = min(global_min, float(snr.min()))
        assert snr.min() >= RADIO.snr_threshold_db - 1e-9
        for uav in rec.plan.uavs:
            fence = min(snr[u] for u in uav.members) - RADIO.snr_threshold_db
            worst_fence = max(worst_fence, abs(fence))
    assert worst_fence <= 1e-9
    print(
        f"ACCEPTANCE 2 PASS: min SNR {global_min:.12f} dB >= 0, "
        f"farthest member off threshold by at most {worst_fence:.2e} dB"
    )


def test_acceptance_03_clustering_converges_within_iteration_budget(campaign):
    records, _ = campaign
    counts = []
    for rec in records:
        assert rec.trace.converged
        counts.append(len(rec.trace.iterations))
    assert max(counts) <= 50
    dist = dict(sorted(Counter(counts).items()))
    print(
        f"ACCEPTANCE 3 PASS: 100/100 converged, iterations mean {statistics.mean(counts):.2f} "
        f"max {max(counts)}, distribution {dist}"
    )


def test_acceptance_04_min_ellipse_covers_points_and_nears_grid_optimum():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_slack = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        pts = rng.uniform(0.0, 1000.0, (n, 2))
        e = mvee(pts)
        q = np.linalg.norm(pts @ e.A - e.b, axis=1)
        worst_slack = max(worst_slack, float(q.max()) - 1.0)
    assert worst_slack <= 1e-6

    worst_ratio = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        pts = rng.uniform(0.0, 1000.0, (n, 2))
        area = mvee(pts).area
        oracle = grid_min_ellipse_area(pts)
        worst_ratio = max(worst_ratio, area / oracle)
    assert worst_ratio <= 1.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4 PASS: 1000 fits cover with slack <= {max(worst_slack, 0.0):.2e}, "
        f"200 tiny fits within {100.0 * (worst_ratio - 1.0):.3f}% of grid optimum, {elapsed:.1f}s"
    )


def test_acceptance_05_altitude_search_matches_grid_argmin():
    edges = [60.0, 150.0, 300.0, 500.0, 800.0]
    worst_gap = 0.0
    for env in ENVIRONMENTS.values():
        best_losses = []
        for edge in edges:
            bounds = AltitudeBounds.for_footprint(edge, h_max=3000.0)
            h_opt = optimal_altitude(edge, env, bounds)
            h_grid = grid_best_altitude(edge, env, RADIO, bounds.h_min, bounds.h_max, step=0.5)
            worst_gap = max(worst_gap, abs(h_opt - h_grid))
            best_losses.append(avg_path_loss(h_opt, edge, env, RADIO))
        diffs = np.diff(best_losses)
        assert (diffs >= -1e-9).all()
    assert worst_gap <= 1.0
    print(
        f"ACCEPTANCE 5 PASS: 20 (edge, environment) pairs, optimizer within "
        f"{worst_gap:.3f} m of 0.5 m grid, minimized loss non-decreasing in edge distance"
    )


def test_acceptance_06_path_loss_non_decreasing_in_horizontal_distance():
    radii = np.arange(0.0, 1001.0, 10.0)
    for env in ENVIRONMENTS.values():
        losses = [avg_path_loss(300.0, r, env, RADIO) for r in radii]
        assert (np.diff(losses) >= -1e-9).all()
    print("ACCEPTANCE 6 PASS: avg path loss non-decreasing over r in [0, 1000] m at h = 300 m, all four environments")


def test_acceptance_07_link_budget_spot_values():
    fspl = _fspl_db(math, 1000.0, 2.0e9)
    gain = antenna_gain_db(Beam(30.0, 30.0))
    assert fspl == pytest.approx(98.46, abs=0.01)
    assert gain == pytest.approx(15.23, abs=0.01)
    print(f"ACCEPTANCE 7 PASS: FSPL(1 km, 2 GHz) = {fspl:.4f} dB, gain(30, 30) = {gain:.4f} dB")


def test_acceptance_08_cheaper_than_circle_packing_at_matched_fleet_size(campaign):
    records, _ = campaign
    proposed = []
    circle_power = []
    circle_coverage = []
    for rec in records[:20]:
        scenario = Scenario(
            region=Region(),
            users=rec.users,
            environment=URBAN,
            radio=RADIO,
            clustering=ClusteringConfig(),
        )
        pack = circle_pack_deploy(scenario, CirclePackingConfig(num_uavs=len(rec.plan.uavs)))
        metrics = evaluate(pack, rec.users)
        proposed.append(rec.plan.total_power_mw)
        circle_power.append(pack.total_power_mw)
        circle_coverage.append(metrics.coverage_probability)
    mean_prop = statistics.mean(proposed)
    mean_circ = statistics.mean(circle_power)
    mean_cov = statistics.mean(circle_coverage)
    assert mean_prop < mean_circ
    assert mean_cov < 1.0
    print(
        f"ACCEPTANCE 8 PASS: 20 matched scenarios, mean power {mean_prop:.4f} mW vs "
        f"circle packing {mean_circ:.4f} mW, circle coverage {mean_cov:.3f} < 1"
    )


def test_acceptance_09_tiny_instances_match_brute_force_optimum():
    start = time.perf_counter()
    matched_ratios = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        blobs = int(rng.integers(2, 4))
        extra = rng.multinomial(8 - 2 * blobs, [1.0 / blobs] * blobs)
        sizes = [2 + int(v) for v in extra]
        # singleton blobs are excluded on purpose: a two-point cell keeps the
        # floored 1 m minor axis, and its razor beam makes the cell almost
        # free, so the oracle would win on antenna gain instead of layout
        while True:
            centers = rng.uniform(120.0, 880.0, (blobs, 2))
            gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
            if (gaps[np.triu_indices(blobs, 1)] > 320.0).all():
                break
        spread = float(rng.uniform(8.0, 20.0))
        pts = np.vstack([rng.normal(c, spread, (s, 2)) for c, s in zip(centers, sizes)])

        truth = set()
        lo = 0
        for s in sizes:
            truth.add(frozenset(range(lo, lo + s)))
            lo += s

        m, cs, _ = ellipse_clustering(pts)
        assert m <= 3
        plan = deploy(cs, URBAN, RADIO)
        _, oracle_power = brute_force_optimum(pts, min(3, max(blobs, m)), URBAN, RADIO)
        assert oracle_power <= plan.total_power_mw * (1.0 + 1e-9)
        if {frozenset(c.members) for c in cs.clusters} == truth:
            matched_ratios.append(plan.total_power_mw / oracle_power)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert len(matched_ratios) >= 10
    assert max(matched_ratios) <= 1.25
    print(
        f"ACCEPTANCE 9 PASS: oracle never beaten on 20 instances, "
        f"{len(matched_ratios)} structurally matched with worst ratio "
        f"{max(matched_ratios):.4f}, {elapsed:.1f}s"
    )


def test_acceptance_10_repeated_commands_write_identical_bytes(tmp_path):
    def run_all(root):
        scen_dir = root / "scenarios"
        assert main(["generate", "--out-dir", str(scen_dir), "--count", "2", "--master-seed", "7"]) == 0
        for name in ("scenario_000", "scenario_001"):
            plan_dir = root / f"{name}_plan"
            assert main(["deploy", str(scen_dir / f"{name}.json"), "--out-dir", str(plan_dir)]) == 0
            assert main([
                "evaluate", str(plan_dir / "plan.json"),
                str(scen_dir / f"{name}.json"), "--out-dir", str(root / f"{name}_eval"),
            ]) == 0
        manifest = root / "manifest.json"
        manifest.write_text(
            '{"out_dir": "sweep_out", "generate": {"count": 2, "master_seed": 7}, '
            '"methods": ["ellipse", "circle"], "circle": {"num_uavs": "match"}}'
        )
        assert main(["sweep", str(manifest)]) == 0

    first, second = tmp_path / "first", tmp_path / "second"
    run_all(first)
    run_all(second)

    names = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
    assert any(n.endswith("plan.json") for n in names)
    assert any(n.endswith("runs.csv") for n in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"ACCEPTANCE 10 PASS: {len(names)} output files byte-identical across reruns of every command")
