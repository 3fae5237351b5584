"""Minimum-area enclosing ellipses and the predicates built on them.

An ellipse is stored as the region {x : ||A x - b|| <= 1} with A symmetric
positive definite, so containment tests and affine bookkeeping stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Ellipse", "mvee", "contains", "edge_distance"]

_LIFT_DIM = 3  # planar points lifted with a homogeneous coordinate
MVEE_TOLERANCE = 1e-7  # relative duality gap that stops the dual solve
MVEE_MAX_ITERATIONS = 10_000
MIN_SEMI_AXIS_M = 1.0  # floor on every fitted semi-axis


@dataclass
class Ellipse:
    """Closed region {x : ||A x - b||_2 <= 1}, A symmetric positive definite."""

    A: np.ndarray
    b: np.ndarray

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

    Runs a dual weight-update scheme (Khachiyan style, with away steps for
    fast convergence) on the lifted point set, stopping at a relative duality
    gap of ``MVEE_TOLERANCE`` or after ``MVEE_MAX_ITERATIONS`` updates.  Inputs
    whose spread collapses in some direction are rebuilt from their principal
    axis instead, and every fitted semi-axis is floored at
    ``MIN_SEMI_AXIS_M`` so downstream beam math never sees a zero extent.
    The result is inflated by at most a relative 1e-12 so that ``contains``
    holds for every input point despite rounding.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no points")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point: coordinates must be finite")

    center, axes, basis = _fit_center_form(pts)
    axes = np.maximum(axes, MIN_SEMI_AXIS_M)
    A = basis @ np.diag(1.0 / axes) @ basis.T
    A = 0.5 * (A + A.T)
    b = A @ center

    residual = float(np.linalg.norm(pts @ A.T - b, axis=1).max())
    if residual > 1.0 - 1e-12:
        scale = residual * (1.0 + 1e-12)
        A = A / scale
        b = b / scale
    return Ellipse(A=A, b=b)


def contains(e: Ellipse, points):
    """True where a point lies in the closed region of ``e``.

    Takes one point (gives a bool) or an (n, 2) array (gives n bools).  The
    test is elementwise, so a point gets the same answer alone or in an array.
    """
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    r0 = e.A[0, 0] * x + e.A[0, 1] * y - e.b[0]
    r1 = e.A[1, 0] * x + e.A[1, 1] * y - e.b[1]
    return np.sqrt(r0 * r0 + r1 * r1) <= 1.0


def edge_distance(e: Ellipse, members) -> float:
    """Distance from the ellipse center to the farthest member."""
    pts = np.atleast_2d(np.asarray(members, dtype=float))
    if pts.size == 0:
        raise ValueError("no members")
    return float(np.linalg.norm(pts - e.center, axis=1).max())


def _fit_center_form(pts: np.ndarray):
    """Return (center, semi_axes, basis) of the optimal ellipse, unclamped."""
    n = len(pts)
    if n == 1:
        return pts[0].copy(), np.zeros(2), np.eye(2)

    mean = pts.mean(axis=0)
    centered = pts - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=True)
    thin = len(svals) < 2 or svals[1] <= 1e-9 * max(svals[0], 1.0)
    if thin:
        # all points are (numerically) on one line; cover its extent only
        direction = vt[0]
        proj = centered @ direction
        lo, hi = float(proj.min()), float(proj.max())
        center = mean + direction * (0.5 * (lo + hi))
        basis = np.column_stack([direction, [-direction[1], direction[0]]])
        return center, np.array([0.5 * (hi - lo), 0.0]), basis

    u = _dual_weights(pts)
    center = u @ pts
    sigma = (pts * u[:, None]).T @ pts - np.outer(center, center)
    lams, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    axes = np.sqrt(2.0 * np.clip(lams, 0.0, None))
    return center, axes, vecs


def _dual_weights(pts: np.ndarray) -> np.ndarray:
    n = len(pts)
    d = float(_LIFT_DIM)
    q = np.column_stack([pts, np.ones(n)])
    u = np.full(n, 1.0 / n)
    for _ in range(MVEE_MAX_ITERATIONS):
        v = q.T @ (q * u[:, None])
        vinv = np.linalg.inv(v)
        w = np.einsum("ij,jk,ik->i", q, vinv, q)
        j_fw = int(np.argmax(w))
        gap_fw = w[j_fw] / d - 1.0
        # the max-w gap bounds the area suboptimality, so it is the stop test;
        # a weight-change test would quit early on clamped away steps
        if gap_fw <= MVEE_TOLERANCE:
            break
        active = np.flatnonzero(u > 0.0)
        j_aw = int(active[np.argmin(w[active])])
        gap_aw = 1.0 - w[j_aw] / d
        if gap_fw >= gap_aw:
            j = j_fw
            step = (w[j] - d) / (d * (w[j] - 1.0))
        else:
            # away step: shed weight from the least supported active point
            j = j_aw
            drop = -u[j] / (1.0 - u[j]) if u[j] < 1.0 else 0.0
            denom = d * (w[j] - 1.0)
            step = (w[j] - d) / denom if denom > 0.0 else drop
            step = max(step, drop)
        u *= 1.0 - step
        u[j] += step
    return u
