"""Per-cell altitude, beamwidth and transmit-power selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Beam, Environment, RadioConfig, avg_path_loss, avg_path_loss_array, dbm_to_mw, optimal_elevation_rad
from .clustering import Cluster, ClusterSet, find_intersections
from .geometry import Ellipse, _center, _semi_axes, contains, edge_distance

__all__ = [
    "AltitudeBounds",
    "DeploymentPlan",
    "PlanMetrics",
    "UavDeployment",
    "deploy",
    "deploy_cell",
    "evaluate",
    "optimal_altitude",
    "required_power_dbm",
]

MIN_ELEVATION_RAD = math.pi / 12  # cell-edge elevation floor
# edge users sit exactly at the SNR threshold, so coverage predicates give
# that equality this much slack against rounding
SNR_GRACE_DB = 1e-9


@dataclass(frozen=True)
class AltitudeBounds:
    h_min: float
    h_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.h_min <= self.h_max:
            raise ValueError("bounds must satisfy 0 < h_min <= h_max")

    @classmethod
    def for_footprint(cls, semi_major_m: float, h_max: float) -> "AltitudeBounds":
        """Lower bound keeps the cell-edge elevation at or above 15 degrees."""
        h_min = semi_major_m * math.tan(MIN_ELEVATION_RAD)
        if h_min > h_max:
            need = math.ceil(h_min)
            raise ValueError(f"a cell of semi-major axis {semi_major_m:.1f} m needs an altitude of at least {need} m "
                             f"for a 15 degree edge elevation; h_max must be at least {need} m, got {h_max:g} m")
        return cls(h_min=h_min, h_max=h_max)


@dataclass
class UavDeployment:
    x: float
    y: float
    altitude_m: float
    orientation_rad: float
    beam: Beam
    tx_power_dbm: float
    footprint: Ellipse
    members: frozenset[int]


@dataclass
class DeploymentPlan:
    uavs: list[UavDeployment]
    environment: Environment
    radio: RadioConfig
    total_power_mw: float


@dataclass
class PlanMetrics:
    coverage_probability: float
    total_power_mw: float
    per_user_snr_db: list[float]
    per_user_throughput_bps: list[float]
    num_uavs: int


def optimal_altitude(edge_distance_m: float, env: Environment, bounds: AltitudeBounds) -> float:
    """Altitude minimizing the gain-free path loss toward the cell edge: the
    edge at ``optimal_elevation_rad(env)``, clamped to the bounds, which is the
    best inside them because the loss has one minimum in the elevation."""
    if edge_distance_m < 0.0:
        raise ValueError("edge distance must be non-negative")
    return min(max(edge_distance_m * math.tan(optimal_elevation_rad(env)), bounds.h_min), bounds.h_max)


def _beam(altitude_m: float, major: float, minor: float) -> Beam:
    """Half-power half-widths that project semi-axes ``major`` and ``minor`` from ``altitude_m``."""
    if altitude_m <= 0.0:
        raise ValueError("altitude must be positive")
    return Beam(
        theta1_deg=math.degrees(math.atan(major / altitude_m)),
        theta2_deg=math.degrees(math.atan(minor / altitude_m)),
    )


def required_power_dbm(
    altitude_m: float,
    edge_distance_m: float,
    env: Environment,
    beam: Beam,
    radio: RadioConfig,
) -> float:
    """Transmit power placing the cell-edge user exactly at the SNR threshold."""
    pl_db = 10.0 * math.log10(avg_path_loss(altitude_m, edge_distance_m, env, radio, beam))
    return radio.snr_threshold_db + radio.noise_power_dbm() + pl_db


def deploy(
    cs: ClusterSet,
    env: Environment,
    radio: RadioConfig,
    h_max: float = 1000.0,
) -> DeploymentPlan:
    """One UAV per cluster, each placed by ``deploy_cell``.

    Rejects cluster sets whose ellipses still share users: powering such
    cells independently cannot meet the per-user SNR target.
    """
    if find_intersections(cs):
        raise ValueError("interference risk: cluster ellipses share users")
    _check_widest([c.ellipse.semi_axes[0] for c in cs.clusters], h_max)
    uavs = [deploy_cell(c, cs.member_points(m), env, radio, h_max) for m, c in enumerate(cs.clusters)]
    total = sum(dbm_to_mw(u.tx_power_dbm) for u in uavs)
    return DeploymentPlan(uavs=uavs, environment=env, radio=radio, total_power_mw=total)


def _check_widest(majors: list[float], h_max: float) -> None:
    """Cells of semi-major axes ``majors`` fail before any is placed if one is too wide, named by the widest."""
    if majors:
        AltitudeBounds.for_footprint(max(majors), h_max)


def deploy_cell(
    cluster: Cluster, points, env: Environment, radio: RadioConfig, h_max: float = 1000.0
) -> UavDeployment:
    """The UAV of one cell over its ellipse; ``points`` are its members: ``_place``, then ``_uav``."""
    e = cluster.ellipse
    return _uav(e, cluster.members, *_place(e.A.tolist(), e.b.tolist(), edge_distance(e, points), env, radio, h_max))


def _place(A, b, edge_m: float, env: Environment, radio: RadioConfig, h_max: float):
    """(x, y, altitude, beam, tx power in dBm), in Python floats, of the UAV over the ellipse of ``A`` and ``b``
    (nested floats) whose farthest member is ``edge_m`` from its center.  The altitude comes from
    ``optimal_altitude``, looked up in this module at call time, so a replacement installed on the module is used."""
    (a, c), (_, d) = A
    major, minor = _semi_axes(a, c, d)
    height = optimal_altitude(edge_m, env, AltitudeBounds.for_footprint(major, h_max))
    beam = _beam(height, major, minor)
    return (*_center(a, c, d, *b), height, beam, required_power_dbm(height, edge_m, env, beam, radio))


def _uav(footprint: Ellipse, members: frozenset[int], x, y, height, beam, power) -> UavDeployment:
    """The UAV of a cell from its ``_place`` result."""
    return UavDeployment(x, y, height, footprint.orientation, beam, power, footprint, members)


def evaluate(plan: DeploymentPlan, users) -> PlanMetrics:
    """Score a plan against user positions.

    A user counts as covered when some UAV claims it, its position is inside
    that UAV's footprint (users outside the main lobe get no gain and are
    unserved) and its SNR meets the threshold.  Throughput shares the band
    equally among the UAV's members.
    """
    pts = np.atleast_2d(np.asarray(users, dtype=float))
    n = len(pts)
    owner = np.full(n, -1)
    env, radio = plan.environment, plan.radio
    noise_dbm = radio.noise_power_dbm()
    snr = np.full(n, -math.inf)
    throughput = np.zeros(n)
    for m, uav in enumerate(plan.uavs):
        members = _claim(owner, uav.members, m)
        served = members[contains(uav.footprint, pts[members])]
        if not len(served):
            continue
        horizontal = np.hypot(pts[served, 0] - uav.x, pts[served, 1] - uav.y)
        pl_db = 10.0 * np.log10(avg_path_loss_array(uav.altitude_m, horizontal, env, radio, uav.beam))
        snr_db = uav.tx_power_dbm - pl_db - noise_dbm
        snr[served] = snr_db
        share = radio.bandwidth_hz / len(uav.members)
        throughput[served] = share * np.log2(1.0 + 10.0 ** (snr_db / 10.0))

    covered = int(np.count_nonzero(snr >= radio.snr_threshold_db - SNR_GRACE_DB))
    return PlanMetrics(
        coverage_probability=covered / n if n else 0.0,
        total_power_mw=plan.total_power_mw,
        per_user_snr_db=snr.tolist(),
        per_user_throughput_bps=throughput.tolist(),
        num_uavs=len(plan.uavs),
    )


def _claim(owner: np.ndarray, members: frozenset[int], m: int) -> np.ndarray:
    """Mark ``members`` as UAV ``m``'s users in ``owner``; returns their indices."""
    n = len(owner)
    if members and 0 <= min(members) and max(members) < n:
        idx = np.fromiter(members, dtype=np.intp, count=len(members))
        if (owner[idx] == -1).all():
            owner[idx] = m
            return idx
    # no members, or a fault: the first member in the set's order that fails names it
    for u in members:
        if not 0 <= u < n:
            raise ValueError(f"member index {u} outside user array")
        if owner[u] != -1:
            raise ValueError(f"user {u} claimed by two UAVs")
        owner[u] = m
    return np.fromiter(members, dtype=np.intp, count=len(members))
