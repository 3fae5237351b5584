"""Reference deployments: packed fixed circles and tiny-instance brute force."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .channel import Beam, Environment, RadioConfig, dbm_to_mw
from .deployment import DeploymentPlan, UavDeployment, _beam, _check_widest, _place, _uav, required_power_dbm
from .geometry import Ellipse, _center, _radii, _semi_axes, contains, mvee
from .scenario import Region, Scenario

__all__ = [
    "CirclePackingConfig",
    "PackingError",
    "brute_force_optimum",
    "brute_force_plan",
    "circle_pack_deploy",
]

_HARD_MAX_USERS = 10
_HARD_MAX_UAVS = 3
_ROOM = 1e-9  # radius margin inside a cell's ellipse within which a user leaves it unchanged
_MAX_CIRCLES = 1000  # the lattice search is quadratic in the circle count


class PackingError(ValueError):
    """The requested circles cannot be placed without overlap."""


@dataclass
class CirclePackingConfig:
    """Fixed-altitude circular cells on a lattice.

    Leave ``beam`` unset to size the (circular) footprint to the lattice
    pitch, and ``fixed_power_dbm`` unset to power each cell so its edge user
    sits at the SNR threshold.
    """

    num_uavs: int
    fixed_altitude_m: float = 150.0
    fixed_power_dbm: float | None = None
    beam: Beam | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.num_uavs <= _MAX_CIRCLES:
            raise ValueError(f"num_uavs must be in [1, {_MAX_CIRCLES}], got {self.num_uavs}")
        if not (math.isfinite(self.fixed_altitude_m) and self.fixed_altitude_m > 0.0):
            raise ValueError(f"fixed altitude must be positive and finite, got {self.fixed_altitude_m}")
        if self.fixed_power_dbm is not None and not math.isfinite(self.fixed_power_dbm):
            raise ValueError(f"fixed power must be finite, got {self.fixed_power_dbm}")
        if self.beam is not None and self.beam.theta1_deg != self.beam.theta2_deg:
            raise ValueError("packed cells are circular: beam must have theta1 == theta2")


def circle_pack_deploy(scenario: Scenario, cfg: CirclePackingConfig) -> DeploymentPlan:
    """Place ``num_uavs`` equal disjoint circles and serve whoever they cover.

    Centers come from the best of a few aligned and offset lattice layouts
    shrunk to the region; the plan keeps the configured altitude and power for
    every UAV.  Raises PackingError when the configured beam needs circles
    larger than the lattice can place without overlap.
    """
    pitch_radius, centers = _best_lattice(cfg.num_uavs, scenario.region)
    beam = _beam(cfg.fixed_altitude_m, pitch_radius, pitch_radius) if cfg.beam is None else cfg.beam
    cover_radius = cfg.fixed_altitude_m * math.tan(math.radians(beam.theta1_deg))
    if cover_radius > pitch_radius * (1.0 + 1e-9):
        raise PackingError(
            f"coverage radius {cover_radius:.1f} m exceeds the lattice "
            f"radius {pitch_radius:.1f} m for {cfg.num_uavs} circles"
        )

    env, radio = scenario.environment, scenario.radio
    if cfg.fixed_power_dbm is None:
        power = required_power_dbm(cfg.fixed_altitude_m, cover_radius, env, beam, radio)
    else:
        power = cfg.fixed_power_dbm

    users = np.atleast_2d(scenario.users)
    claimed = np.full(len(users), False)
    uavs = []
    for center in centers:
        footprint = Ellipse(A=np.eye(2) / cover_radius, b=center / cover_radius)
        mine = contains(footprint, users) & ~claimed
        claimed |= mine
        uavs.append(
            UavDeployment(
                x=float(center[0]),
                y=float(center[1]),
                altitude_m=cfg.fixed_altitude_m,
                orientation_rad=0.0,
                beam=beam,
                tx_power_dbm=power,
                footprint=footprint,
                members=frozenset(np.flatnonzero(mine).tolist()),
            )
        )
    total = sum(dbm_to_mw(u.tx_power_dbm) for u in uavs)
    return DeploymentPlan(uavs=uavs, environment=env, radio=radio, total_power_mw=total)


def brute_force_optimum(
    users, num_uavs: int, env: Environment, radio: RadioConfig, h_max: float = 1000.0
) -> tuple[list[set[int]], float]:
    """Cheapest grouping from ``brute_force_plan``: (groups, total power in mW)."""
    plan = brute_force_plan(users, num_uavs, env, radio, h_max)
    return [set(u.members) for u in plan.uavs], plan.total_power_mw


def brute_force_plan(
    users, num_uavs: int, env: Environment, radio: RadioConfig, h_max: float = 1000.0
) -> DeploymentPlan:
    """Exhaustive minimum-power deployment over at most ``num_uavs`` cells.

    Scores every partition of the users into 1..num_uavs groups (restricted
    growth strings, ``_partition_table``), rejects groupings whose ellipses
    share a user, and prices each distinct cell of the rest once (``_price``),
    building the UAVs of the cheapest plan alone.  Cells go one size at a time: a cell
    that adds a user strictly inside a sub-cell's ellipse built on a support
    of three to five points (``fit.support``) has that ellipse (Welzl, 1991),
    byte for byte, and reuses it without a fit, as one array lookup decides
    for the whole size; the rest are fitted, and one broadcast of the radii
    of ``contains`` gives the users inside each new ellipse and those it can
    take.  Returns the first cheapest plan; the one-cell grouping comes first
    and is always feasible, so there is one.  Instance sizes are capped
    because the partition count grows combinatorially.
    """
    pts = np.atleast_2d(np.asarray(users, dtype=float))
    n = len(pts)
    if n == 0:
        raise ValueError("no users")
    if n > _HARD_MAX_USERS:
        raise ValueError(f"instance has {n} users, cap is {_HARD_MAX_USERS}")
    if not 1 <= num_uavs <= _HARD_MAX_UAVS:
        raise ValueError(f"num_uavs must be in [1, {_HARD_MAX_UAVS}]")

    table = _partition_table(n, num_uavs)
    bits = 1 << np.arange(n)
    # per distinct cell, indexed by the bitmask of its members: its ellipse,
    # the users inside it, and the users it can take without changing it (its
    # support and the users strictly inside; none unless a support built it)
    ellipses = np.empty(1 << n, dtype=object)
    inside = np.zeros(1 << n, dtype=np.int64)
    spare = np.zeros(1 << n, dtype=np.int64)
    for level, mine, member_rows in _cell_levels(n, num_uavs):
        # a cell takes the ellipse of its first sub-cell that can take the member it lacks
        takes = mine & (level[:, None] & ~spare[level[:, None] ^ bits] == 0)
        reuse = takes.any(axis=1)
        cells, subs = level[reuse], level[reuse] ^ bits[takes[reuse].argmax(axis=1)]
        ellipses[cells], inside[cells], spare[cells] = ellipses[subs], inside[subs], spare[subs]
        if reuse.all():
            continue
        fresh, members = level[~reuse], member_rows[~reuse]
        ellipses[fresh] = fits = [mvee(cell) for cell in pts[members]]
        support = np.array([sum(map(row.__getitem__, e.fit.support or ())) for e, row in zip(fits, bits[members].tolist())])
        # every new ellipse (axis 1) over every user (axis 0) at once, with the arithmetic of ``contains``
        radii = _radii(np.array([e.A for e in fits]).transpose(1, 2, 0), np.array([e.b for e in fits]).T, pts[:, None])
        inside[fresh] = bits @ (radii <= 1.0)
        spare[fresh] = np.where(support > 0, bits @ (radii < 1.0 - _ROOM) | support, 0)

    # the rule of find_intersections: no user of either cell lies inside both
    covers = inside[table]
    feasible = np.ones(len(table), dtype=bool)
    for a, b in combinations(range(num_uavs), 2):
        feasible &= (covers[:, a] & covers[:, b] & (table[:, a] | table[:, b])) == 0
    keys = np.unique(table[feasible])
    keys = keys[keys > 0]
    placed = dict(zip(keys.tolist(), _price(keys, ellipses[keys], pts, env, radio, h_max)))
    power_mw = np.zeros(1 << n)
    power_mw[keys] = [dbm_to_mw(placement[-1]) for placement in placed.values()]
    # summed in group order, as the plan's own total is
    total = power_mw[table[:, 0]]
    for g in range(1, num_uavs):
        total = total + power_mw[table[:, g]]
    total[~feasible] = np.inf
    best = int(np.argmin(total))
    uavs = [_uav(ellipses[key], frozenset(np.flatnonzero(bits & key).tolist()), *placed[key]) for key in table[best].tolist() if key]
    return DeploymentPlan(uavs, env, radio, float(total[best]))


def _price(keys: np.ndarray, footprints, pts: np.ndarray, env: Environment, radio: RadioConfig, h_max: float) -> list:
    """``_place`` of the cells of bitmasks ``keys`` and ellipses ``footprints``, in order, after ``_check_widest``."""
    A, b = np.array([e.A for e in footprints]), np.array([e.b for e in footprints])
    # every cell's edge_distance at once, with its bits: the same steps, non-members taking 0
    cx, cy = _center(A[:, 0, 0], A[:, 0, 1], A[:, 1, 1], b[:, 0], b[:, 1])
    dx, dy = pts[:, 0] - cx[:, None], pts[:, 1] - cy[:, None]
    held = (keys[:, None] >> np.arange(len(pts)) & 1).astype(bool)
    edges = np.sqrt(np.where(held, dx * dx + dy * dy, 0.0).max(axis=1))
    cells = list(zip(A.tolist(), b.tolist(), edges.tolist()))
    _check_widest([_semi_axes(a, c, d)[0] for ((a, c), (_, d)), _, _ in cells], h_max)
    return [_place(*cell, env, radio, h_max) for cell in cells]


@functools.cache
def _partition_table(n: int, num_uavs: int) -> np.ndarray:
    """(partitions, num_uavs) member bitmasks of the groups of each partition
    from ``_partitions``, in its order; groups a partition lacks are 0."""
    labels = np.array([row.tolist() for row in _partitions(n, num_uavs)]).reshape(-1, 1, n)
    table = np.where(labels == np.arange(num_uavs)[:, None], 1 << np.arange(n), 0).sum(axis=2)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


@functools.cache
def _cell_levels(n: int, num_uavs: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The distinct cells of ``_partition_table(n, num_uavs)`` by size, smallest first: per
    size that has any, (their bitmasks in ascending order, held[c, i] set when user i is a
    member of cell c, the (cells, size) member indices), all read-only."""
    table = _partition_table(n, num_uavs)
    keys = np.unique(table[table > 0])
    held = (keys[:, None] & (1 << np.arange(n))) != 0
    sizes = held.sum(axis=1)
    levels = [(keys[sizes == s], held[sizes == s], np.nonzero(held[sizes == s])[1].reshape(-1, s)) for s in np.unique(sizes)]
    for array in chain.from_iterable(levels):
        array.flags.writeable = False  # shared by every caller through the cache
    return tuple(levels)


def _partitions(n: int, max_blocks: int):
    """Yield every label vector of a set partition with <= max_blocks blocks.

    Restricted growth strings: label[i] <= max(label[:i]) + 1, so each
    partition appears exactly once.
    """
    labels = np.zeros(n, dtype=int)

    def advance(i: int, peak: int):
        if i == n:
            yield labels
            return
        top = min(peak + 1, max_blocks - 1)
        for g in range(top + 1):
            labels[i] = g
            yield from advance(i + 1, max(peak, g))

    yield from advance(1, 0)


def _best_lattice(num: int, region: Region) -> tuple[float, np.ndarray]:
    """Largest-radius lattice of ``num`` equal circles inside the region.

    Tries aligned grids and two hexagonal row patterns per column count and
    keeps the best.  Deterministic: candidates are scored by radius with ties
    going to the earliest layout generated.
    """
    w, h = region.width_m, region.height_m
    best_radius = -1.0
    best_centers: np.ndarray | None = None
    for cols in range(1, num + 1):
        for centers_fn in (_aligned_rows, _hex_alternating, _hex_shifted):
            got = centers_fn(num, cols, w, h)
            if got is None:
                continue
            radius, centers = got
            if radius > best_radius + 1e-12:
                best_radius, best_centers = radius, centers
    assert best_centers is not None
    return best_radius, best_centers


def _aligned_rows(num: int, cols: int, w: float, h: float):
    rows = math.ceil(num / cols)
    radius = min(w / (2.0 * cols), h / (2.0 * rows))
    if radius <= 0.0:
        return None
    centers = [(radius * (2.0 * c + 1.0), radius * (2.0 * r + 1.0)) for r in range(rows) for c in range(cols)]
    return radius, np.asarray(centers[:num])


def _hex_rows(num: int, cols: int, w: float, h: float, odd_cols: int, width_units: float):
    """Shared layout for hex variants; odd rows hold ``odd_cols`` circles."""
    rows, count = 0, 0
    while count < num:  # ends: every two rows add cols >= 1 circles
        count += cols if rows % 2 == 0 else odd_cols
        rows += 1
    radius = min(w / width_units, h / (2.0 + (rows - 1) * math.sqrt(3.0)))
    centers = [
        ((2.0 * radius if r % 2 else radius) + 2.0 * radius * c, radius + r * math.sqrt(3.0) * radius)
        for r in range(rows)
        for c in range(odd_cols if r % 2 else cols)
    ]
    return radius, np.asarray(centers[:num])


def _hex_alternating(num: int, cols: int, w: float, h: float):
    # odd rows drop one circle and nest between their neighbors
    return _hex_rows(num, cols, w, h, cols - 1, 2.0 * cols)


def _hex_shifted(num: int, cols: int, w: float, h: float):
    # odd rows keep all circles but shift by one radius
    return _hex_rows(num, cols, w, h, cols, 2.0 * cols + 1.0)
