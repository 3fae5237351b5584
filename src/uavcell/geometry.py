"""Minimum-area enclosing ellipses and the predicates built on them.

An ellipse is stored as the region {x : ||A x - b|| <= 1} with A symmetric
positive definite, so containment tests and affine bookkeeping stay cheap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

__all__ = ["Ellipse", "mvee", "contains", "edge_distance"]

_LIFT_DIM = 3  # planar points lifted with a homogeneous coordinate
MVEE_TOLERANCE = 1e-7  # relative duality gap that stops the away-step fallback
MVEE_MAX_ITERATIONS = 10_000  # away-step updates per fit, coarse phase included
MIN_SEMI_AXIS_M = 1.0  # floor on every fitted semi-axis
_COARSE_GAP = 1e-2  # away-step gap at which Newton takes over
_CERTIFIED_GAP = 1e-12  # gap Newton must certify on every point
_KKT_TOLERANCE = 3e-13  # |w_i - 3| on the support at Newton convergence
_NEWTON_MAX_STEPS = 50
_MAX_SUPPORT = 6  # rank bound of K o K for planar points lifted to 3-D


@dataclass(frozen=True)
class FitRecord:
    """How the dual solve of one ``mvee`` fit ended."""

    gap: float  # certified relative duality gap, max_i w_i / 3 - 1
    newton_steps: int
    iterations: int  # first-order (away-step loop) updates
    fallback: bool  # Newton failed and the away-step loop finished the solve


_EXACT = FitRecord(0.0, 0, 0, False)  # closed-form fits: a point, a line, a triangle


@dataclass
class Ellipse:
    """Closed region {x : ||A x - b||_2 <= 1}, A symmetric positive definite."""

    A: np.ndarray
    b: np.ndarray
    fit: FitRecord | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.shape != (2, 2) or self.b.shape != (2,):
            raise ValueError("ellipse is planar: A must be 2x2 and b length 2")
        if not np.all(np.isfinite(self.A)) or not np.all(np.isfinite(self.b)):
            raise ValueError("ellipse parameters must be finite")
        if abs(self.A[0, 1] - self.A[1, 0]) > 1e-9 * (1.0 + abs(self.A).max()):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(self.A)[0] <= 0.0:
            raise ValueError("A must be positive definite")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ellipse):
            return NotImplemented
        return bool(np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b))

    @property
    def center(self) -> np.ndarray:
        return np.linalg.solve(self.A, self.b)

    @property
    def semi_axes(self) -> tuple[float, float]:
        """(major, minor) semi-axis lengths in meters."""
        w = np.linalg.eigvalsh(self.A)
        return 1.0 / float(w[0]), 1.0 / float(w[1])

    @property
    def orientation(self) -> float:
        """Angle of the major axis against the x axis, in [0, pi)."""
        w, v = np.linalg.eigh(self.A)
        major = v[:, 0]  # smallest eigenvalue of A spans the longest axis
        return math.atan2(float(major[1]), float(major[0])) % math.pi

    @property
    def area(self) -> float:
        return math.pi / float(np.linalg.det(self.A))


def mvee(points) -> Ellipse:
    """Fit a minimum-area ellipse enclosing ``points``.

    Solves the dual of the lifted problem on the whitened convex-hull
    vertices (sets of up to six points whole): a short away-step phase, then
    active-set Newton, certified to a relative duality gap of 1e-12 on every
    point.  If Newton fails, the away-step loop goes on to a gap of
    ``MVEE_TOLERANCE``; stopping at ``MVEE_MAX_ITERATIONS`` above it warns.
    ``Ellipse.fit`` records how the solve ended.  Inputs whose spread
    collapses in some direction are rebuilt from their principal axis
    instead, and every fitted semi-axis is floored at ``MIN_SEMI_AXIS_M`` so
    downstream beam math never sees a zero extent.  The result is inflated by
    a relative 1e-12 so that ``contains`` holds for every input point despite
    rounding, and again while it does not (far from the origin).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no points")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point: coordinates must be finite")

    center, axes, basis, fit = _fit_center_form(pts)
    axes = np.maximum(axes, MIN_SEMI_AXIS_M)
    A = basis @ np.diag(1.0 / axes) @ basis.T
    A = 0.5 * (A + A.T)
    b = A @ center

    # far from the origin the rounding of ``contains`` can exceed the margin,
    # so inflate again while its own arithmetic leaves a point outside
    limit = 1.0 - 1e-12
    while (residual := float(_radii(A, b, pts).max())) > limit:
        scale = residual * (1.0 + 1e-12)
        A = A / scale
        b = b / scale
        limit = 1.0
    return Ellipse(A=A, b=b, fit=fit)


def contains(e: Ellipse, points):
    """True where a point lies in the closed region of ``e``.

    Takes one point (gives a bool) or an (n, 2) array (gives n bools).  The
    test is elementwise, so a point gets the same answer alone or in an array.
    """
    return _radii(e.A, e.b, np.asarray(points, dtype=float)) <= 1.0


def _radii(A: np.ndarray, b: np.ndarray, p: np.ndarray):
    """||A p - b|| per point, elementwise (no BLAS) so one point and an array agree."""
    x, y = p[..., 0], p[..., 1]
    r0 = A[0, 0] * x + A[0, 1] * y - b[0]
    r1 = A[1, 0] * x + A[1, 1] * y - b[1]
    return np.sqrt(r0 * r0 + r1 * r1)


def edge_distance(e: Ellipse, members) -> float:
    """Distance from the ellipse center to the farthest member."""
    pts = np.atleast_2d(np.asarray(members, dtype=float))
    if pts.size == 0:
        raise ValueError("no members")
    return float(np.linalg.norm(pts - e.center, axis=1).max())


def _fit_center_form(pts: np.ndarray):
    """(center, semi_axes, basis, fit record) of the optimal ellipse, unclamped."""
    n = len(pts)
    if n == 1:
        return pts[0].copy(), np.zeros(2), np.eye(2), _EXACT

    mean = pts.mean(axis=0)
    centered = pts - mean
    left, svals, vt = np.linalg.svd(centered, full_matrices=False)
    thin = len(svals) < 2 or svals[1] <= 1e-9 * max(svals[0], 1.0)
    if thin:
        # all points are (numerically) on one line; cover its extent only
        direction = vt[0]
        proj = centered @ direction
        lo, hi = float(proj.min()), float(proj.max())
        center = mean + direction * (0.5 * (lo + hi))
        basis = np.column_stack([direction, [-direction[1], direction[0]]])
        return center, np.array([0.5 * (hi - lo), 0.0]), basis, _EXACT

    # the weights do not change under affine maps, so solve on the whitened
    # points (zero mean, unit covariance) and map the moments back; in raw
    # metres Newton's KKT residual stalls above its tolerance
    scale = svals / math.sqrt(n)
    z = left * math.sqrt(n)
    u, fit = _dual_weights(z)
    zc = u @ z
    cov = (z * u[:, None]).T @ z - np.outer(zc, zc)
    center = mean + (zc * scale) @ vt
    sigma = vt.T @ (cov * np.outer(scale, scale)) @ vt
    lams, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    axes = np.sqrt(2.0 * np.clip(lams, 0.0, None))
    return center, axes, vecs, fit


def _dual_weights(z: np.ndarray):
    """(weights, fit record) of the dual MVEE solve on the points ``z``.

    Only hull vertices can carry weight.  Sets of up to ``_MAX_SUPPORT``
    points go straight to Newton from uniform weights; larger sets run the
    away-step loop on their hull vertices to a gap of ``_COARSE_GAP`` first.
    Newton certifies its gap on every point, so the fit does not rest on
    qhull's rounding.  If Newton fails, the away-step loop continues on the
    hull from the same weights to ``MVEE_TOLERANCE``.
    """
    n = len(z)
    if n == _LIFT_DIM:
        # three points in general position: the Steiner circumellipse
        return np.full(n, 1.0 / n), _EXACT
    q = np.column_stack([z, np.ones(n)])
    hull = np.arange(n)
    if n > _MAX_SUPPORT:
        try:
            hull = np.sort(ConvexHull(z).vertices)
        except QhullError:
            pass
    u = np.zeros(n)
    u[hull] = 1.0 / len(hull)
    iterations = 0
    if len(hull) > _MAX_SUPPORT:
        u[hull], iterations, gap = _away_steps(q[hull], u[hull], _COARSE_GAP, MVEE_MAX_ITERATIONS)
        # a cocircular hull is optimal at uniform weights, out of Newton's six-point reach
        if gap <= _CERTIFIED_GAP and (gap := _gap(_leverages(q, u))) <= _CERTIFIED_GAP:
            return u, FitRecord(gap, 0, iterations, False)
    polished, steps, gap = _newton(q, u)
    if polished is not None:
        return polished, FitRecord(gap, steps, iterations, False)
    u[hull], more, _ = _away_steps(q[hull], u[hull], MVEE_TOLERANCE, MVEE_MAX_ITERATIONS - iterations)
    gap = _gap(_leverages(q, u))
    if gap > MVEE_TOLERANCE:
        warnings.warn(
            f"mvee: the dual solve on {n} points ended with a gap of {gap:.3g} "
            f"after {iterations + more} first-order iterations",
            RuntimeWarning,
            stacklevel=4,
        )
    return u, FitRecord(gap, steps, iterations + more, True)


def _gap(w: np.ndarray) -> float:
    """Relative duality gap max_i w_i / 3 - 1 (never below 0)."""
    return max(float(w.max()) / _LIFT_DIM - 1.0, 0.0)


def _toward(w_j: float) -> float:
    """Exact line-search step that moves weight onto a point with leverage w_j."""
    return (w_j - _LIFT_DIM) / (_LIFT_DIM * (w_j - 1.0))


def _leverages(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w_i = q_i' V(u)^-1 q_i for every lifted point."""
    vinv = np.linalg.inv(q.T @ (q * u[:, None]))
    return np.einsum("ij,jk,ik->i", q, vinv, q)


def _away_steps(q: np.ndarray, u: np.ndarray, tolerance: float, max_iterations: int):
    """First-order dual updates with away steps; returns (u, iterations, gap)."""
    d = float(_LIFT_DIM)
    u = u.copy()
    it = 0
    while True:
        w = _leverages(q, u)
        j_fw = int(np.argmax(w))
        gap = w[j_fw] / d - 1.0
        # the max-w gap bounds the area suboptimality, so it is the stop test;
        # a weight-change test would quit early on clamped away steps
        if gap <= tolerance or it == max_iterations:
            return u, it, gap
        active = np.flatnonzero(u > 0.0)
        j_aw = int(active[np.argmin(w[active])])
        gap_aw = 1.0 - w[j_aw] / d
        if gap >= gap_aw:
            j = j_fw
            step = _toward(w[j])
        else:
            # away step: shed weight from the least supported active point
            j = j_aw
            drop = -u[j] / (1.0 - u[j]) if u[j] < 1.0 else 0.0
            denom = d * (w[j] - 1.0)
            step = (w[j] - d) / denom if denom > 0.0 else drop
            step = max(step, drop)
        u *= 1.0 - step
        u[j] += step
        it += 1


def _newton(q: np.ndarray, u: np.ndarray):
    """Active-set Newton on the KKT equations w_S(u) = 3 over the support S.

    This is damped Newton on the concave log det V(u) - 3 sum(u), whose
    Hessian on S is -(K o K) with K = Q_S V^-1 Q_S'.  A weight that reaches
    zero leaves S; once S has converged, the most violated point joins it
    with a first-order step.  Returns (weights, steps, gap); the weights are
    None if S would outgrow ``_MAX_SUPPORT`` (K o K has rank at most 6), a
    matrix is singular or the step cap is reached.
    """
    d = float(_LIFT_DIM)
    top = np.argsort(-u, kind="stable")[:_MAX_SUPPORT]
    support = np.sort(top[u[top] > 0.0])
    us = u[support]
    for step in range(1, _NEWTON_MAX_STEPS + 1):
        if len(support) < _LIFT_DIM:
            break
        qs = q[support]
        try:
            kern = qs @ np.linalg.inv(qs.T @ (qs * us[:, None])) @ qs.T
        except np.linalg.LinAlgError:
            break
        r = np.diag(kern) - d
        if np.abs(r).max() <= _KKT_TOLERANCE:
            full = np.zeros(len(q))
            full[support] = us / us.sum()
            w = _leverages(q, full)
            gap = _gap(w)
            if gap <= _CERTIFIED_GAP:
                return full, step, gap
            if len(support) == _MAX_SUPPORT:
                break
            j = int(np.argmax(w))
            t = _toward(w[j])
            full *= 1.0 - t
            full[j] += t
            support = np.flatnonzero(full > 0.0)
            us = full[support]
            continue
        try:
            delta = np.linalg.solve(kern * kern, r)
        except np.linalg.LinAlgError:  # duplicated points make K o K singular
            delta = np.linalg.lstsq(kern * kern, r, rcond=None)[0]
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
    return None, step, math.inf
