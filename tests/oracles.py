"""Independent reference computations the tests compare the package against.

Everything here is deliberately written from the definitions, not from the
package internals: the ellipse oracle is a parametric grid/pattern search over
(center, axes, angle), the silhouette oracle follows the textbook formula
point by point, and the partition oracle enumerates splits exhaustively.
The exceptions are the loop references for vectorized or cached code:
``silhouette_per_point`` repeats the package's arithmetic one point at a time
so results must match bit for bit, ``intersections_pairwise`` scans pairs
with the package's own ``contains``, ``intersections_per_cluster`` fills
the inside and owner matrices of ``find_intersections`` one ``contains``
call per cluster, ``ward_cuts_all_rows`` pointer-doubles every k row of
``_ward_cuts`` over every node, ``brute_force_per_partition`` fits,
checks and deploys every partition from scratch with the package's own steps,
``brute_force_per_key`` decides each cell's reuse, fit and bitmasks one
cell at a time, as ``brute_force_plan`` did before it worked by cell size,
``farthest_pair_squareform`` scans the full distance matrix for the pair
the ring-filtered search in ``split_cluster`` must find,
``split_cluster_masked`` runs the 2-means split with a norm per center and a
masked mean per side, and
``evaluate_per_user`` scores a plan one user at a time with the scalar
``avg_path_loss``, as ``evaluate`` did before it worked per UAV, and
``write_csv_per_row`` writes a CSV table one row at a time, as ``_write_csv``
did before it formatted an all-number table in one pass, and
``newton_min_ellipse_area`` solves the dual of the minimum ellipse by
active-set Newton from equal weights, as ``mvee`` did before its basis walk,
and ``exact_five_conic``, ``exact_ellipse`` and ``exact_five_weights`` give
the conic through five points, its ellipse and their moment weights in
exact rational arithmetic, by row reduction of the monomials and of the
moment equations, and
``read_json_with_json`` reads a JSON file with ``json.loads`` alone, as
``read_json`` did before it passed screened text to orjson.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import ClusterWarning, cut_tree, linkage
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist, squareform

from uavcell.baseline import _ROOM, _partition_table, _partitions
from uavcell.channel import RadioConfig, avg_path_loss, dbm_to_mw
from uavcell.clustering import Cluster, ClusterSet, find_intersections
from uavcell.deployment import SNR_GRACE_DB, DeploymentPlan, deploy, deploy_cell
from uavcell.geometry import _radius, contains, mvee
from uavcell.scenario import ScenarioFormatError


def feasible_areas(pts: np.ndarray, cand: np.ndarray, slack: float = 1e-9) -> np.ndarray:
    """Areas of candidate ellipses (cx, cy, a1, a2, phi) covering all ``pts``.

    Candidates leaving any point outside score infinity.
    """
    cos, sin = np.cos(cand[:, 4]), np.sin(cand[:, 4])
    dx = pts[None, :, 0] - cand[:, None, 0]
    dy = pts[None, :, 1] - cand[:, None, 1]
    u = (cos[:, None] * dx + sin[:, None] * dy) / cand[:, None, 2]
    v = (-sin[:, None] * dx + cos[:, None] * dy) / cand[:, None, 3]
    ok = ((u * u + v * v) <= 1.0 + slack).all(axis=1)
    return np.where(ok, math.pi * cand[:, 2] * cand[:, 3], np.inf)


def _inflated(pts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Scale the axes of ``p`` up just enough to cover every point."""
    cos, sin = math.cos(p[4]), math.sin(p[4])
    dx, dy = pts[:, 0] - p[0], pts[:, 1] - p[1]
    u = (cos * dx + sin * dy) / p[2]
    v = (-sin * dx + cos * dy) / p[3]
    rho = math.sqrt(max(float((u * u + v * v).max()), 1e-30))
    q = p.copy()
    if rho > 1.0:
        q[2] *= rho * (1.0 + 1e-12)
        q[3] *= rho * (1.0 + 1e-12)
    return q


def _refine(pts: np.ndarray, start: np.ndarray, r0: float, passes: int) -> float:
    """Shrinking 5-point-per-axis pattern search around ``start``."""
    best = start.copy()
    best_area = float(feasible_areas(pts, best[None, :])[0])
    span = np.array(
        [0.12 * r0, 0.12 * r0, 0.35 * max(best[2], 1e-9), 0.35 * max(best[3], 1e-9), math.pi / 8.0]
    )
    floor = np.array([1e-5 * r0, 1e-5 * r0, 1e-6 * r0, 1e-6 * r0, 1e-6])
    for _ in range(passes):
        vals = [np.linspace(best[d] - span[d], best[d] + span[d], 5) for d in range(5)]
        vals[2] = vals[2][vals[2] > 0.0]
        vals[3] = vals[3][vals[3] > 0.0]
        grid = np.meshgrid(*vals, indexing="ij")
        cand = np.stack([g.ravel() for g in grid], axis=1)
        areas = feasible_areas(pts, cand)
        j = int(np.argmin(areas))
        if areas[j] < best_area * (1.0 - 1e-12):
            best_area, best = float(areas[j]), cand[j]
        else:
            span *= 0.5
            if (span < floor).all():
                break
    return best_area


def _steiner_params(tri: np.ndarray) -> np.ndarray:
    """Minimum-area ellipse through a triangle's vertices (closed form)."""
    c = tri.mean(axis=0)
    s = (tri - c).T @ (tri - c) / 3.0
    lam, vec = np.linalg.eigh(0.5 * (s + s.T))
    axes = np.sqrt(2.0 * np.clip(lam, 0.0, None))
    phi = math.atan2(vec[1, 1], vec[0, 1]) % math.pi
    return np.array([c[0], c[1], max(axes[1], 1e-9), max(axes[0], 1e-9), phi])


def _conic_to_params(conics: np.ndarray) -> np.ndarray:
    """Ellipse parameter rows for each 3x3 conic matrix; non-ellipses dropped."""
    out = []
    for c in conics:
        m = c[:2, :2]
        det_m = float(np.linalg.det(m))
        if det_m <= 0.0:
            continue
        center = np.linalg.solve(m, -c[:2, 2])
        val = float(c[:2, 2] @ np.linalg.solve(m, c[:2, 2])) - float(c[2, 2])
        if val <= 0.0:
            m, val = -m, -val
        if val <= 0.0:
            continue
        e = m / val
        lam, vec = np.linalg.eigh(0.5 * (e + e.T))
        if lam[0] <= 0.0:
            continue
        axes = 1.0 / np.sqrt(lam)  # descending: axes[0] is the major one
        phi = math.atan2(vec[1, 0], vec[0, 0]) % math.pi
        out.append([center[0], center[1], axes[0], axes[1], phi])
    return np.asarray(out) if out else np.empty((0, 5))


def _line(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.cross([p[0], p[1], 1.0], [q[0], q[1], 1.0])


def _quad_pencil_params(quad: np.ndarray, samples: int = 400) -> np.ndarray:
    """Ellipses through four cyclically ordered points, sampled along the pencil."""
    l1 = np.outer(_line(quad[0], quad[1]), _line(quad[2], quad[3]))
    l2 = np.outer(_line(quad[1], quad[2]), _line(quad[3], quad[0]))
    c1, c2 = l1 + l1.T, l2 + l2.T
    t = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    conics = (1.0 - t)[:, None, None] * c1 + t[:, None, None] * c2
    return _conic_to_params(conics)


def _quint_conic_params(quint: np.ndarray) -> np.ndarray:
    """The unique conic through five points, as ellipse parameters if it is one."""
    x, y = quint[:, 0], quint[:, 1]
    design = np.stack([x * x, x * y, y * y, x, y, np.ones(5)], axis=1)
    coef = np.linalg.svd(design)[2][-1]
    a, b, c, d, e, f = coef
    conic = np.array([[a, b / 2.0, d / 2.0], [b / 2.0, c, e / 2.0], [d / 2.0, e / 2.0, f]])
    return _conic_to_params(conic[None, :, :])


def grid_min_ellipse_area(points, refine_starts: int = 6, passes: int = 50) -> float:
    """Smallest covering-ellipse area found by parametric search.

    A coarse absolute grid plus seeds built from every boundary-support
    structure (hull triples, quads, quints) are inflated to feasibility,
    ranked, and the best few polished by a shrinking pattern search.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c0 = pts.mean(axis=0)
    r0 = max(float(np.linalg.norm(pts - c0, axis=1).max()) * (1.0 + 1e-9), 1e-6)

    cx = np.linspace(c0[0] - 0.4 * r0, c0[0] + 0.4 * r0, 7)
    cy = np.linspace(c0[1] - 0.4 * r0, c0[1] + 0.4 * r0, 7)
    a1 = r0 * np.geomspace(0.3, 1.1, 8)
    ratio = np.geomspace(0.002, 1.0, 12)
    phi = np.linspace(0.0, math.pi, 10, endpoint=False)
    g = np.meshgrid(cx, cy, a1, ratio, phi, indexing="ij")
    coarse = np.stack(
        [g[0].ravel(), g[1].ravel(), g[2].ravel(), (g[2] * g[3]).ravel(), g[4].ravel()], axis=1
    )
    areas = feasible_areas(pts, coarse)
    order = np.argsort(areas)
    seeds = [coarse[j] for j in order[:2] if math.isfinite(areas[j])]

    try:
        hull = pts[ConvexHull(pts).vertices] if len(pts) >= 3 else pts
    except QhullError:
        hull = pts
    n_hull = len(hull)
    for tri in combinations(range(n_hull), 3):
        seeds.append(_steiner_params(hull[list(tri)]))
    for quad in combinations(range(n_hull), 4):  # hull order keeps them convex
        for p in _quad_pencil_params(hull[list(quad)]):
            seeds.append(p)
    for quint in combinations(range(n_hull), 5):
        for p in _quint_conic_params(hull[list(quint)]):
            seeds.append(p)
    seeds.append(np.array([c0[0], c0[1], r0, r0, 0.0]))  # covering circle

    inflated = np.stack([_inflated(pts, s) for s in seeds])
    ranked = inflated[np.argsort(feasible_areas(pts, inflated))]
    return min(_refine(pts, s, r0, passes) for s in ranked[:refine_starts])


def newton_min_ellipse_area(points) -> float | None:
    """Area of the minimum ellipse of (n, 2) points that are not collinear,
    from the moments of the dual weights (Khachiyan's lifted problem) that
    active-set Newton reaches from equal weights on the whitened points; None
    if Newton fails.  Independent of ``mvee``'s bases and primitives."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    centered = pts - pts.mean(axis=0)
    centered -= centered.mean(axis=0)
    left, svals, _ = np.linalg.svd(centered, full_matrices=False)
    z = left * math.sqrt(n)
    u = _newton(np.column_stack([z, np.ones(n)]), np.full(n, 1.0 / n))
    if u is None:
        return None
    zc = u @ z
    cov = (z * u[:, None]).T @ z - np.outer(zc, zc)
    return 2.0 * math.pi * math.sqrt(np.linalg.det(cov)) * svals[0] * svals[1] / n


def _reduced(rows: list) -> tuple[list, list]:
    """Reduced row echelon form of a matrix of Fractions, and its pivot columns."""
    rows, pivots = [list(row) for row in rows], []
    for col in range(len(rows[0])):
        r = len(pivots)
        lead = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if lead is None:
            continue
        rows[r], rows[lead] = rows[lead], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = [v - row[col] * u for v, u in zip(row, rows[r])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def exact_five_conic(points) -> list | None:
    """The conic (a, b, c, d, e, f) through five points, for
    a x^2 + 2b xy + c y^2 + 2d x + 2e y + f = 0, as Fractions exactly through
    the floats they are, or None if it is not unique: the null vector of the
    points' monomials, by row reduction."""
    q = [(Fraction(x), Fraction(y)) for x, y in points]
    rows, pivots = _reduced([[x * x, 2 * x * y, y * y, 2 * x, 2 * y, Fraction(1)] for x, y in q])
    if len(pivots) != 5:
        return None
    free = next(col for col in range(6) if col not in pivots)
    conic = [Fraction(0)] * 6
    conic[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        conic[col] = -row[free]
    return conic


def exact_ellipse(conic):
    """(center, covariance (sxx, sxy, syy), its determinant) as Fractions of
    the sqrt(2) times covariance ellipse that is the ``conic``, or None if it
    is no ellipse.  For x'Mx + 2g'x + f = 0 with center c = -M^-1 g, the
    conic is (x - c)'M(x - c) = k with k = -(f + g'c), so the covariance is
    k M^-1 / 2."""
    a, b, c, d, e, f = conic
    det2 = a * c - b * b
    if det2 <= 0:
        return None
    center = ((b * e - c * d) / det2, (b * d - a * e) / det2)
    k = -(f + d * center[0] + e * center[1])
    if k / a <= 0:  # an empty ellipse
        return None
    cov = (k * c / (2 * det2), -k * b / (2 * det2), k * a / (2 * det2))
    return center, cov, cov[0] * cov[2] - cov[1] * cov[1]


def exact_five_weights(points, center, cov) -> list:
    """The weights as Fractions of five points on the ellipse of the exact
    ``center`` and ``cov``, with total 1, mean ``center`` and covariance
    ``cov``: the unique solution of those six moment equations, of which one
    follows from the others."""
    q = [(Fraction(x), Fraction(y)) for x, y in points]
    dx, dy = [x - center[0] for x, _ in q], [y - center[1] for _, y in q]
    moments = [[Fraction(1)] * 5, [x for x, _ in q], [y for _, y in q],
               [u * u for u in dx], [u * v for u, v in zip(dx, dy)], [v * v for v in dy]]
    rows, pivots = _reduced([m + [rhs] for m, rhs in zip(moments, [1, *center, *cov])])
    assert pivots == list(range(5)), "the moment equations of five points on their ellipse have one solution"
    return [row[5] for row in rows[:5]]


_LIFT_DIM = 3  # planar points lifted with a homogeneous coordinate
_KKT_TOLERANCE = 3e-13  # |w_i - 3| on the support at convergence
_NEWTON_MAX_STEPS = 100
_MAX_SUPPORT = 6  # rank bound of K o K for planar points lifted to 3-D
_SINGULAR = 1e12  # condition number of K o K past which rounding picks the sign of a step


def _leverages(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w_i = q_i' V(u)^-1 q_i for every lifted point."""
    vinv = np.linalg.inv(q.T @ (q * u[:, None]))
    return np.einsum("ij,jk,ik->i", q, vinv, q)


def _newton(q: np.ndarray, u: np.ndarray):
    """Weights certified to a duality gap max_i w_i / 3 - 1 of 1e-12 by
    active-set Newton on the KKT equations w_S(u) = 3 over the support S,
    or None if S would outgrow ``_MAX_SUPPORT``, a matrix is singular or the
    step cap is reached.

    Damped Newton on the concave log det V(u) - 3 sum(u), whose Hessian on S
    is -(K o K) with K = Q_S V^-1 Q_S'.  A weight that reaches zero leaves S;
    once S has converged, the most violated point joins it with the exact
    first-order line-search step, and a step that would shrink it again while
    K o K is singular to rounding (near-cocircular points) is turned.
    """
    d = float(_LIFT_DIM)
    support = np.flatnonzero(u)
    us = u[support]
    joined = None  # position in S of the point that has just joined it
    for _ in range(_NEWTON_MAX_STEPS):
        if len(support) < _LIFT_DIM:
            return None
        qs = q[support]
        try:
            kern = qs @ np.linalg.inv(qs.T @ (qs * us[:, None])) @ qs.T
        except np.linalg.LinAlgError:
            return None
        r = np.diag(kern) - d
        if np.abs(r).max() <= _KKT_TOLERANCE:
            full = np.zeros(len(q))
            full[support] = us / us.sum()
            w = _leverages(q, full)
            if w.max() / d - 1.0 <= 1e-12:
                return full
            if len(support) == _MAX_SUPPORT:
                return None
            j = int(np.argmax(w))
            t = (w[j] - d) / (d * (w[j] - 1.0))
            full *= 1.0 - t
            full[j] += t
            support = np.flatnonzero(full > 0.0)
            us = full[support]
            joined = int(np.searchsorted(support, j))
            continue
        hessian = kern * kern
        try:
            delta = np.linalg.solve(hessian, r)
        except np.linalg.LinAlgError:  # duplicated points make K o K singular
            delta = np.linalg.lstsq(hessian, r, rcond=None)[0]
        if joined is not None and delta[joined] < 0.0 and np.linalg.cond(hessian) > _SINGULAR:
            delta = -delta
        joined = None
        decrement = math.sqrt(max(float(r @ delta), 0.0))
        t = 1.0 if decrement <= 0.25 else 1.0 / (1.0 + decrement)
        shrinking = np.flatnonzero(delta < 0.0)
        limits = -us[shrinking] / delta[shrinking]
        if limits.size and limits.min() <= t:
            blocked = shrinking[int(np.argmin(limits))]
            us = us + limits.min() * delta
            keep = np.arange(len(support)) != blocked
            support, us = support[keep], us[keep]
        else:
            us = us + t * delta
    return None


def grid_best_altitude(edge_distance_m, env, radio, h_min, h_max, step=0.5) -> float:
    """Argmin of the gain-free path loss over an altitude grid."""
    grid = np.append(np.arange(h_min, h_max, step), h_max)
    losses = [avg_path_loss(h, edge_distance_m, env, radio) for h in grid]
    return float(grid[int(np.argmin(losses))])


def grid_altitude(edge_distance_m, env, bounds, step) -> float:
    """``grid_best_altitude`` on the default radio with the signature of
    ``deployment.optimal_altitude``, to stand in for the closed form (bind
    ``step`` first)."""
    return grid_best_altitude(edge_distance_m, env, RadioConfig(), bounds.h_min, bounds.h_max, step)


def silhouette_direct(points, labels) -> float:
    """Textbook per-point silhouette, averaged; singletons contribute zero."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = len(pts)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = float(np.mean([np.linalg.norm(pts[i] - pts[j]) for j in same]))
        b = math.inf
        for other in set(labels.tolist()) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, float(np.mean([np.linalg.norm(pts[i] - pts[j]) for j in members])))
        denom = max(a, b)
        scores.append((b - a) / denom if denom > 0.0 else 0.0)
    return float(np.mean(scores))


def silhouette_per_point(points, labels) -> float:
    """Mean silhouette by a loop over points, from per-cluster distance sums.

    The same arithmetic as ``clustering._silhouettes``, one cut and one point
    at a time, so the two agree bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    dist = squareform(pdist(pts))
    sums = np.stack([dist[:, labels == c].sum(axis=1) for c in uniq], axis=1)
    counts = np.array([(labels == c).sum() for c in uniq])
    own = np.searchsorted(uniq, labels)
    scores = np.zeros(len(pts))
    for i in range(len(pts)):
        c = own[i]
        if counts[c] == 1:
            continue
        a = sums[i, c] / (counts[c] - 1)
        other = np.arange(len(uniq)) != c
        b = float(np.min(sums[i, other] / counts[other]))
        denom = max(a, b)
        if denom > 0.0:
            scores[i] = (b - a) / denom
    return float(scores.mean())


def select_k_direct(points, k_limit: int, tol: float = 1e-12) -> int:
    """Per-k reference for ``select_k``: one Ward cut and one textbook
    silhouette per k.  Scores within ``tol`` of the best tie, and ties go to
    the smaller k.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return 1
    with warnings.catch_warnings():
        # a 2x2 point set can look like a distance matrix; it is still points
        warnings.simplefilter("ignore", ClusterWarning)
        merges = linkage(pts, method="ward")
    scores = {}
    for k in range(2, min(k_limit, len(pts)) + 1):
        labels = cut_tree(merges, n_clusters=k).ravel()
        scores[k] = silhouette_direct(pts, labels)
    best = max(scores.values())
    return min(k for k, s in scores.items() if s >= best - tol)


def intersections_pairwise(cs) -> set[int]:
    """Clusters sharing a user, by testing every pair on every user of either."""
    flagged = set()
    for m, cm in enumerate(cs.clusters):
        for mp in range(m + 1, len(cs.clusters)):
            cp = cs.clusters[mp]
            joint = cm.members | cp.members
            if any(contains(cm.ellipse, cs.users[u]) and contains(cp.ellipse, cs.users[u]) for u in joint):
                flagged |= {m, mp}
    return flagged


def intersections_per_cluster(cs) -> set[int]:
    """``find_intersections`` with the inside and owner rows filled one cluster
    at a time, ``contains`` per ellipse."""
    inside = np.zeros((len(cs.clusters), len(cs.users)), dtype=bool)
    owner = np.zeros_like(inside)
    for m, c in enumerate(cs.clusters):
        inside[m] = contains(c.ellipse, cs.users)
        owner[m, list(c.members)] = True
    shared = (owner & inside) @ inside.T
    shared |= shared.T
    np.fill_diagonal(shared, False)
    return {int(m) for m in np.flatnonzero(shared.any(axis=1))}


def ward_cuts_all_rows(z: np.ndarray, ks: list[int]) -> np.ndarray:
    """``_ward_cuts`` with every row pointer-doubled over all 2n - 1 nodes:
    a leaf's label for k is its highest ancestor formed within the first
    n - k merges of ``cut_tree``'s order."""
    n = len(z) + 1
    kids = z[:, :2].astype(np.intp)
    visit, level = [], np.array([n - 2])
    while level.size:
        visit.append(level)
        level = kids[level, ::-1].ravel()
        level = level[level >= n] - n
    nodes = np.arange(2 * n - 1)
    parent, step = nodes.copy(), np.zeros_like(nodes)
    parent[kids] = nodes[n:, None]
    step[n + np.lexsort((-np.argsort(np.concatenate(visit)), z[:, 2]))] = nodes[1:n]
    up = np.where(step[parent] <= n - np.array(ks)[:, None], parent, nodes)
    while not np.array_equal(jump := np.take_along_axis(up, up, axis=1), up):
        up = jump
    return up[:, :n]


def brute_force_per_partition(users, num_uavs, env, radio, h_max=1000.0):
    """Per-partition reference for ``brute_force_plan``: every partition gets
    its own fits, its own ``find_intersections`` and its own ``deploy``; the
    first strictly cheapest plan wins."""
    pts = np.atleast_2d(np.asarray(users, dtype=float))
    best = None
    for labels in _partitions(len(pts), num_uavs):
        clusters = []
        for g in range(labels.max() + 1):
            idx = np.flatnonzero(labels == g)
            clusters.append(Cluster(frozenset(idx.tolist()), mvee(pts[idx])))
        cs = ClusterSet(users=pts, clusters=clusters)
        if find_intersections(cs):
            continue
        plan = deploy(cs, env, radio, h_max=h_max)
        if best is None or plan.total_power_mw < best.total_power_mw:
            best = plan
    if best is None:
        raise ValueError("no feasible partition: every grouping shares users across ellipses")
    return best


def brute_force_per_key(users, num_uavs, env, radio, h_max=1000.0):
    """``brute_force_plan`` one cell at a time: each cell, in order of size,
    takes the ellipse of the first sub-cell one member smaller that can take
    its last member unchanged, or is fitted, and then gets its bitmasks from
    per-user float radii; the partition scoring is the package's."""
    pts = np.atleast_2d(np.asarray(users, dtype=float))
    n = len(pts)
    table = _partition_table(n, num_uavs)
    users = pts.tolist()
    ellipses = {}
    inside = np.zeros(1 << n, dtype=np.int64)
    spare = [0] * (1 << n)
    for key in sorted(np.unique(table[table > 0]).tolist(), key=int.bit_count):
        members = [i for i in range(n) if key >> i & 1]
        sub = next((key ^ 1 << i for i in members if key & ~spare[key ^ 1 << i] == 0), None)
        if sub is not None:
            ellipses[key], inside[key], spare[key] = ellipses[sub], inside[sub], spare[sub]
            continue
        ellipses[key] = e = mvee(pts[members])
        A, b = e.A.tolist(), e.b.tolist()
        radii = [_radius(math, A, b, *user) for user in users]
        inside[key] = sum(1 << i for i, r in enumerate(radii) if r <= 1.0)
        if e.fit.support is not None:
            spare[key] = sum(1 << i for i, r in enumerate(radii) if r < 1.0 - _ROOM) | sum(1 << members[t] for t in e.fit.support)
    covers = inside[table]
    feasible = np.ones(len(table), dtype=bool)
    for a, b in combinations(range(num_uavs), 2):
        feasible &= (covers[:, a] & covers[:, b] & (table[:, a] | table[:, b])) == 0
    uavs = {}
    power_mw = np.zeros(1 << n)
    for key in np.unique(table[feasible]).tolist():
        if key:
            members = [i for i in range(n) if key >> i & 1]
            uavs[key] = deploy_cell(Cluster(frozenset(members), ellipses[key]), pts[members], env, radio, h_max)
            power_mw[key] = dbm_to_mw(uavs[key].tx_power_dbm)
    total = power_mw[table[:, 0]]
    for g in range(1, num_uavs):
        total = total + power_mw[table[:, g]]
    total[~feasible] = np.inf
    best = int(np.argmin(total))
    return DeploymentPlan([uavs[key] for key in table[best].tolist() if key], env, radio, float(total[best]))


def farthest_pair_squareform(points) -> tuple[int, int]:
    """First farthest pair in row-major order over the full n x n distance matrix."""
    dist = squareform(pdist(np.asarray(points, dtype=float)))
    i, j = np.unravel_index(int(np.argmax(dist)), dist.shape)
    return int(i), int(j)


def split_cluster_masked(points):
    """2-means split from ``farthest_pair_squareform``'s pair, with a
    ``np.linalg.norm`` per center and a masked mean per side each round, for
    at most 100 rounds; ``split_cluster`` must return the same index arrays."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        return None
    i, j = farthest_pair_squareform(pts)
    centers = np.stack([pts[i], pts[j]])
    assign = np.zeros(n, dtype=bool)  # False -> center 0
    for _ in range(100):
        d0 = np.linalg.norm(pts - centers[0], axis=1)
        d1 = np.linalg.norm(pts - centers[1], axis=1)
        new_assign = d1 < d0
        if new_assign.all() or not new_assign.any():
            break
        if (new_assign == assign).all():
            break
        assign = new_assign
        centers = np.stack([pts[~assign].mean(axis=0), pts[assign].mean(axis=0)])
    if assign.all() or not assign.any():
        # co-located points collapse onto one center; peel the pair point off
        assign = np.zeros(n, dtype=bool)
        assign[j] = True
    return np.flatnonzero(~assign), np.flatnonzero(assign)


def best_two_partition_wcss(points):
    """Exhaustive minimum within-cluster sum of squares over all 2-splits."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best, best_cost = None, math.inf
    for bits in range(1, 2 ** (n - 1)):  # fix point 0 in side A to skip mirrors
        side = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        a, b = pts[~side], pts[side]
        cost = float(((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum())
        if cost < best_cost:
            best_cost, best = cost, side.copy()
    return best, best_cost


def pcp_retention_fraction(width, height, radius, parent_grid=60, radial=64, angular=128):
    """Average fraction of a daughter disk inside the region, parents uniform.

    Deterministic quadrature: parents on a grid, daughter offsets on an
    equal-area polar grid.
    """
    px = (np.arange(parent_grid) + 0.5) * width / parent_grid
    py = (np.arange(parent_grid) + 0.5) * height / parent_grid
    # equal-area radial rings: r_k = R * sqrt((k + 0.5) / radial)
    rr = radius * np.sqrt((np.arange(radial) + 0.5) / radial)
    aa = (np.arange(angular) + 0.5) * 2.0 * math.pi / angular
    ox = (rr[:, None] * np.cos(aa)[None, :]).ravel()
    oy = (rr[:, None] * np.sin(aa)[None, :]).ravel()
    gy = py[:, None] + oy[None, :]
    ok_y = (gy >= 0.0) & (gy <= height)
    inside = 0
    for x in px:
        gx = x + ox
        ok_x = (gx >= 0.0) & (gx <= width)
        inside += int((ok_x[None, :] & ok_y).sum())
    return inside / (parent_grid * parent_grid * radial * angular)


def evaluate_per_user(plan, users):
    """(per-user SNR in dB, per-user throughput, coverage) with ``math`` per user."""
    pts = np.atleast_2d(np.asarray(users, dtype=float))
    n = len(pts)
    owner = [-1] * n
    inside = np.zeros(n, dtype=bool)
    for m, uav in enumerate(plan.uavs):
        for u in uav.members:
            if not 0 <= u < n:
                raise ValueError(f"member index {u} outside user array")
            if owner[u] != -1:
                raise ValueError(f"user {u} claimed by two UAVs")
            owner[u] = m
        members = list(uav.members)
        inside[members] = contains(uav.footprint, pts[members])
    env, radio = plan.environment, plan.radio
    snr, throughput, covered = [], [], 0
    for u in range(n):
        if owner[u] == -1 or not inside[u]:
            snr.append(-math.inf)
            throughput.append(0.0)
            continue
        uav = plan.uavs[owner[u]]
        horizontal = math.hypot(pts[u][0] - uav.x, pts[u][1] - uav.y)
        pl_db = 10.0 * math.log10(avg_path_loss(uav.altitude_m, horizontal, env, radio, uav.beam))
        snr.append(uav.tx_power_dbm - pl_db - radio.noise_power_dbm())
        covered += snr[-1] >= radio.snr_threshold_db - SNR_GRACE_DB
        share = radio.bandwidth_hz / len(uav.members)
        throughput.append(share * math.log2(1.0 + 10.0 ** (snr[-1] / 10.0)))
    return snr, throughput, covered / n


def write_csv_per_row(path, header, rows) -> None:
    """Write a CSV table row by row: a row of plain ints and floats joined
    with ``repr``, any other row through ``csv.writer`` with floats written by
    ``float.__repr__`` and bools as true/false."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return float.__repr__(value) if isinstance(value, float) else value

    lines = []
    for row in [header, *rows]:
        if set(map(type, row)) <= {int, float}:
            lines.append(",".join(map(repr, row)))
        else:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([cell(v) for v in row])
            lines.append(buf.getvalue()[:-1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def read_json_with_json(path):
    """The JSON value in the file at ``path`` from ``json.loads``, or its ScenarioFormatError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioFormatError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
