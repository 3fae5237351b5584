"""Minimum-area enclosing ellipses and the predicates built on them.

An ellipse is stored as the region {x : ||A x - b|| <= 1} with A symmetric
positive definite, so containment tests and affine bookkeeping stay cheap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain, combinations

import numpy as np

__all__ = ["Ellipse", "mvee", "contains", "edge_distance"]

_LIFT_DIM = 3  # planar points lifted with a homogeneous coordinate
MIN_SEMI_AXIS_M = 1.0  # floor on every fitted semi-axis
_CERTIFIED_GAP = 1e-12  # gap a fit must certify on every point
_QUAD = 4
_FIVE = 5  # five points fix a conic: the largest basis
_ENDINGS = {_LIFT_DIM: "triangle", _QUAD: "quad", _FIVE: "five"}  # by support size
_DIRECTIONS = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, -1.0]])  # x, y, x+y, x-y


@dataclass(frozen=True)
class FitRecord:
    """How one ``mvee`` fit ended."""

    gap: float  # certified relative duality gap, max_i w_i / 3 - 1
    ending: str  # "closed-form", "triangle", "quad", "five" or "stalled"
    # input indices of a certified support of three to five points, from whose
    # own fit alone the ellipse was built; None for any other fit, or when an axis is floored
    support: tuple[int, ...] | None = None


_EXACT = FitRecord(0.0, "closed-form")  # fits of a point or a line


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
        (a, b), (c, d) = self.A.tolist()
        if not all(map(math.isfinite, (a, b, c, d, *self.b.tolist()))):
            raise ValueError("ellipse parameters must be finite")
        if abs(b - c) > 1e-9 * (1.0 + max(abs(a), abs(b), abs(c), abs(d))):
            raise ValueError("A must be symmetric")
        # a symmetric 2x2 matrix is positive definite iff A[0,0] > 0 and det(A) > 0
        if not (a > 0.0 and a * d - b * c > 0.0):
            raise ValueError("A must be positive definite")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ellipse):
            return NotImplemented
        return bool(np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b))

    @property
    def center(self) -> np.ndarray:
        (a, b), (_, d) = self.A.tolist()  # Cramer's rule
        b0, b1 = self.b.tolist()
        det = a * d - b * b
        return np.array([(d * b0 - b * b1) / det, (a * b1 - b * b0) / det])

    @property
    def semi_axes(self) -> tuple[float, float]:
        """(major, minor) semi-axis lengths in meters: one over A's eigenvalues, the
        larger as mid + hypot and the smaller as det / larger, which does not cancel."""
        (a, b), (_, d) = self.A.tolist()
        high = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
        return 1.0 / min((a * d - b * b) / high, high), 1.0 / high

    @property
    def orientation(self) -> float:
        """Angle of the major axis against the x axis, in [0, pi): 0 for a circle,
        and for b == 0, 0 if a <= d and pi/2 if a > d (A = [[a, b], [b, d]])."""
        (a, b), (_, d) = self.A.tolist()
        # adj(A)'s larger eigenvector is A's smaller; the second % maps a tiny negative angle, rounded up to pi, to 0
        return (0.5 * math.atan2(-2.0 * b, d - a)) % math.pi % math.pi

    @property
    def area(self) -> float:
        (a, b), (_, d) = self.A.tolist()
        return math.pi / (a * d - b * b)


def mvee(points) -> Ellipse:
    """Fit a minimum-area ellipse enclosing ``points``.

    Up to five points are fitted by cases (``_small_fit``), and larger sets,
    or small ones the cases leave open, by a walk over bases of three to five
    of the whitened points (``_walk``), certified to a relative duality gap
    of 1e-12 on every point.  Either way a fit certified on a support of
    three to five points is that support's own fit, its exact primitive
    (Gärtner & Schönherr, 1997): ``fit.support`` names it unless an axis is
    floored or a point off it sets an inflation step, and then the fit has
    the bytes of ``mvee(points[list(fit.support)])``, and so do its supersets
    by points strictly inside it (Welzl, 1991).  If the walk stalls, the fit
    is its last basis's ellipse and warns.  Thin inputs give their segment,
    semi-axes are floored at ``MIN_SEMI_AXIS_M``, and the fit is inflated by
    a relative 1e-12, and again by twice the last margin while ``contains``
    misses a point.  Up to five points stay in Python floats from the input
    check to ``A`` and ``b``, radii with the bits of ``contains``; a larger
    set takes one SVD, to whiten.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no points")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    p = pts.tolist() if len(pts) <= _FIVE else None  # small sets stay in Python floats
    finite = all(map(math.isfinite, chain.from_iterable(p))) if p is not None else np.all(np.isfinite(pts))
    if not finite:
        raise ValueError("invalid point: coordinates must be finite")

    (x, y), axes, (c, s), fit = _fit_center_form(pts)
    if fit.gap > _CERTIFIED_GAP:
        message = f"mvee: the basis walk stalled on {len(pts)} points with its last ellipse at a gap of {fit.gap:.3g}"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    if fit.support is not None and min(axes) < MIN_SEMI_AXIS_M:
        fit = replace(fit, support=None)  # the floor, not the support, sets this ellipse
    # A = R diag(1 / axes) R' for the rotation R whose first column is (c, s)
    w0, w1 = (1.0 / max(axis, MIN_SEMI_AXIS_M) for axis in axes)
    a00, a01, a11 = c * c * w0 + s * s * w1, c * s * (w0 - w1), s * s * w0 + c * c * w1
    A, b = ((a00, a01), (a01, a11)), (a00 * x + a01 * y, a01 * x + a11 * y)

    # far from the origin the rounding of ``contains`` can exceed the margin,
    # so inflate again, by twice the margin each time, while its own
    # arithmetic leaves a point outside (a fixed margin can stall in that rounding)
    limit, margin = 1.0 - 1e-12, 1e-12
    while True:
        if p is not None:
            residual = max(radii := [_radius(math, A, b, *point) for point in p])
        else:
            residual = float((radii := _radii(A, b, pts)).max())
        if residual <= limit:
            return Ellipse(A=np.array(A), b=np.array(b), fit=fit)
        if not math.isfinite(residual):  # no scale brings a point back from an overflow
            raise ValueError(f"mvee: the fit of {len(pts)} points overflows; coordinates too large")
        if fit.support is not None and residual > max(radii[t] for t in fit.support):
            fit = replace(fit, support=None)  # a point off the support scales this step
        scale = residual * (1.0 + margin)
        A, b = tuple(tuple(v / scale for v in row) for row in A), tuple(v / scale for v in b)
        limit, margin = 1.0, 2.0 * margin


def contains(e: Ellipse, points):
    """True where a point lies in the closed region of ``e``.

    Takes one point (gives a bool) or an (n, 2) array (gives n bools).  The
    test is elementwise, so a point gets the same answer alone or in an array.
    """
    return _radii(e.A, e.b, np.asarray(points, dtype=float)) <= 1.0


def _radii(A, b, p: np.ndarray):
    """``_radius`` of every point of an array."""
    return _radius(np, A, b, p[..., 0], p[..., 1])


def _radius(xp, A, b, x, y):
    """||A p - b|| at p = (x, y), elementwise (no BLAS): ``xp`` is ``math`` for
    one point in Python floats and ``numpy`` for arrays, which round alike."""
    r0 = A[0][0] * x + A[0][1] * y - b[0]
    r1 = A[1][0] * x + A[1][1] * y - b[1]
    return xp.sqrt(r0 * r0 + r1 * r1)


def edge_distance(e: Ellipse, members, center=None) -> float:
    """Distance from the ellipse center to the farthest member; a caller
    that has read ``e.center`` already passes it as ``center``.  Up to five
    members stay in Python floats, as in ``mvee``, with the bits of the array sum."""
    pts = np.atleast_2d(np.asarray(members, dtype=float))
    if pts.size == 0:
        raise ValueError("no members")
    center = e.center if center is None else center
    # sqrt is monotone and correctly rounded, so one sqrt of the largest square gives the same bits
    if len(pts) <= _FIVE:
        (cx, cy), p = center.tolist(), pts.tolist()
        return math.sqrt(max((x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in p))
    return math.sqrt(float(np.square(pts - center).sum(axis=1).max()))


def _fit_center_form(pts: np.ndarray):
    """(center, semi-axes, unit direction of the first axis, fit record) of
    the optimal ellipse, unclamped, as Python floats."""
    n = len(pts)
    if n <= 2:
        (x0, y0), (x1, y1) = pts[0].tolist(), pts[-1].tolist()
        length = math.hypot(x1 - x0, y1 - y0)
        if length == 0.0:  # one point, or two equal ones
            return (x0, y0), (0.0, 0.0), (1.0, 0.0), _EXACT
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1)), (0.5 * length, 0.0), ((x1 - x0) / length, (y1 - y0) / length), _EXACT
    if n <= _FIVE and (small := _small_fit(pts.tolist())) is not None:
        return small

    mean = pts.mean(axis=0)
    centered = pts - mean
    # far from the origin the rounded mean sits up to eps * |mean| off the
    # line of collinear points, which the thin test would take for width; a
    # second pass removes that error
    shift = centered.mean(axis=0)
    centered -= shift
    left, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[1] <= 1e-9 * max(svals[0], 1.0):
        # all points are (numerically) on one line; cover its extent only
        proj = centered @ vt[0]
        lo, hi = float(proj.min()), float(proj.max())
        center = mean + (shift + vt[0] * (0.5 * (lo + hi)))
        return tuple(center.tolist()), (0.5 * (hi - lo), 0.0), tuple(vt[0].tolist()), _EXACT

    # the minimum ellipse commutes with affine maps, so walk on the whitened
    # points (zero mean, unit covariance), where every conic is of order one
    frame = (mean + shift).tolist(), (svals / math.sqrt(n)).tolist(), vt.tolist()
    basis, conic, gap = _walk(left * math.sqrt(n))
    if gap > _CERTIFIED_GAP:
        return (*_center_form(frame, *conic), FitRecord(gap, "stalled"))
    fit = FitRecord(gap, _ENDINGS[len(basis)], tuple(basis))
    if len(basis) < n:
        # the ellipse depends only on its support: fit those points alone,
        # in input order, so every superset certified on them gets these bytes
        return (*_fit_center_form(pts[basis])[:3], fit)
    return (*_center_form(frame, *conic), fit)


def _small_fit(p: list):
    """The fit of three to five points (pairs) by cases, in Python floats, or
    None where these cases do not settle it or rounding leaves them open: a
    segment for points on a line, the Steiner ellipse of three points, and of
    more, the first of these that holds every point to a gap of 1e-12: the
    largest triangle's Steiner ellipse, the minimum ellipse through that
    triangle and the point it leaves farthest out (``_quad_conic``; they are
    in convex position), and the conic through five points (``_five_conic``)
    if ``_moment_weights`` finds its weights positive.  Determinants come from
    cross products, and conics from the points whitened here, so 1 m x 1e6 m
    slivers keep their width.
    """
    n = len(p)
    mx, my = (sum(col) / n for col in zip(*p))
    d = [(x - mx, y - my) for x, y in p]
    # a second pass, as in the SVD path, so the line test sees no rounded width
    sx, sy = (sum(col) / n for col in zip(*d))
    d = [(x - sx, y - sy) for x, y in d]
    origin = (mx + sx, my + sy)
    sxx, sxy, syy = sum(x * x for x, _ in d), sum(x * y for x, y in d), sum(y * y for _, y in d)
    triples = list(combinations(range(n), 3))
    areas = [_cross(p[i], p[j], p[k]) for i, j, k in triples]  # twice the signed areas
    det = sum(a * a for a in areas) / n  # of the scatter matrix (Cauchy-Binet)
    high = 0.5 * (sxx + syy) + math.hypot(0.5 * (sxx - syy), sxy)
    angle = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    c, s = math.cos(angle), math.sin(angle)
    if det <= 1e-18 * high * max(high, 1.0):  # the SVD path's line test, on the squared singular values
        proj = [c * x + s * y for x, y in d]
        mid = 0.5 * (min(proj) + max(proj))
        return (origin[0] + c * mid, origin[1] + s * mid), (0.5 * (max(proj) - min(proj)), 0.0), (c, s), _EXACT
    if n == _LIFT_DIM:  # the centroid, and sqrt(2) times the covariance ellipse
        form = _center_form((origin, (1.0, 1.0), ((1.0, 0.0), (0.0, 1.0))), (0.0, 0.0), (sxx / 3, sxy / 3, syy / 3), det / 9)
        return (*form, FitRecord(0.0, "closed-form", (0, 1, 2)))
    # under weights 1/3 on the largest triangle a point of barycentric
    # coordinates l in it has leverage 3 |l|^2, so a gap of |l|^2 - 1
    best = max(range(len(triples)), key=lambda t: abs(areas[t]))
    i, j, k = triple = triples[best]
    gaps = {m: (_cross(p[m], p[j], p[k]) ** 2 + _cross(p[i], p[m], p[k]) ** 2 + _cross(p[i], p[j], p[m]) ** 2)
            / (areas[best] * areas[best]) - 1.0 for m in range(n) if m not in triple}
    if (gap := max(max(gaps.values()), 0.0)) <= _CERTIFIED_GAP:
        return (*_small_fit([p[m] for m in triple])[:3], FitRecord(gap, "triangle", triple))
    k0, k1 = math.sqrt(high / n), math.sqrt(det / high / n)
    frame = origin, (k0, k1), ((c, s), (-s, c))
    z = [((c * x + s * y) / k0, (c * y - s * x) / k1) for x, y in d]
    quad = sorted((*triple, max(gaps, key=gaps.get)))
    if (conic := _quad_conic([z[m] for m in quad])) is not None and (gap := _gap_on(z, *conic)) <= _CERTIFIED_GAP:
        if n == _QUAD:
            return (*_center_form(frame, *conic), FitRecord(gap, "quad", (0, 1, 2, 3)))
        fit = _small_fit([p[m] for m in quad])
        return None if fit is None else (*fit[:3], FitRecord(gap, "quad", tuple(quad)))
    if n == _QUAD or (conic := _five_conic(z)) is None or not _moment_weights(z, *conic) or (gap := _gap_on(z, *conic)) > _CERTIFIED_GAP:
        return None
    return (*_center_form(frame, *conic), FitRecord(gap, "five", (0, 1, 2, 3, 4)))


def _gap_on(z: list, center, cov, det) -> float:
    """Gap max_i w_i / 3 - 1 of the points (pairs) under sqrt(2) times the covariance
    ellipse (``center``, ``cov`` of determinant ``det``): w = 1 + 2 r^2 at radius r."""
    (cx, cy), (sxx, sxy, syy) = center, cov
    radii = (((x - cx) ** 2 * syy - 2.0 * (x - cx) * (y - cy) * sxy + (y - cy) ** 2 * sxx) / (3.0 * det) for x, y in z)
    return max(max(radii) - 2.0 / 3.0, 0.0)


def _center_form(frame, center, cov, det):
    """(center, semi-axes, unit direction of the first axis) in metres of sqrt(2) times the
    covariance ellipse (``center``, ``cov`` = (sxx, sxy, syy) of determinant ``det``) of
    points whitened by ``frame``: (origin, scale per axis, rows of the rotation)."""
    (mx, my), (k0, k1), ((a, b), (c, d)) = frame
    x, y = k0 * center[0], k1 * center[1]
    # the eigen-decomposition in the frame of the singular vectors, where slivers keep their width
    sxx, sxy, syy = k0 * k0 * cov[0], k0 * k1 * cov[1], k1 * k1 * cov[2]
    high = 0.5 * (sxx + syy) + math.hypot(0.5 * (sxx - syy), sxy)
    angle = 0.5 * math.atan2(2.0 * sxy, sxx - syy)  # of the major axis, the larger eigenvalue's
    cos, sin = math.cos(angle), math.sin(angle)
    axes = math.sqrt(2.0 * high), math.sqrt(2.0 * det * (k0 * k1) ** 2 / high)
    return (mx + a * x + c * y, my + b * x + d * y), axes, (a * cos + c * sin, b * cos + d * sin)


def _walk(z: np.ndarray):
    """(basis, conic, gap) of the minimum ellipse of the points ``z``, by a
    walk over bases of three to five points (the problem is LP-type: Welzl,
    1991; Matoušek, Sharir & Welzl, 1996).  It starts from the largest
    triangle of the points extreme along x, y and the diagonals (the initial
    core set of Kumar & Yildirim, 2005), and while a point lies out of the
    basis's conic by a gap above 1e-12 it moves to ``_next_basis``.  No basis
    is visited twice, so it ends: certified, or stalled with none left.
    """
    x, y = z[:, 0], z[:, 1]
    basis = _steiner_triple(z, _extreme_points(z))
    conic = _steiner(*z[basis].tolist())
    visited = {tuple(basis)}
    while True:
        j, gap = _farthest(x, y, conic)
        if gap <= _CERTIFIED_GAP or (step := _next_basis(z, x, y, basis, j, visited)) is None:
            return basis, conic, gap
        basis, conic = step
        visited.add(tuple(basis))


def _next_basis(z: np.ndarray, x, y, basis: list, j: int, visited: set):
    """(basis, conic) after ``basis`` once the point ``j`` is out of its
    conic, or None if no unvisited candidate is left.

    The candidates are the subsets of three to five of the basis and j that
    hold j, and one is feasible if its exact primitive (Gärtner & Schönherr,
    1997) holds them all to a gap of 1e-12.  A feasible Steiner ellipse, or
    a feasible ``_five_conic`` whose ``_moment_weights`` are positive, is the
    minimum ellipse of its own points and so of them all; else the least
    feasible ``_quad_conic`` is.  So triangles, then fives, then quads are
    tried, and the first kind with a feasible candidate gives its least
    determinant.  Near-cocircular points round determinants into ties: those
    within a relative 1e-12 of the least go to the least gap over every
    point, then to the first subset.
    """
    pool = sorted([*basis, j])
    p = dict(zip(pool, z[pool].tolist()))
    held = list(p.values())
    for size in (_LIFT_DIM, _FIVE, _QUAD):
        feasible = []
        for rest in combinations(basis, size - 1):
            if (subset := tuple(sorted((*rest, j)))) in visited:
                continue
            q = [p[m] for m in subset]
            conic = _steiner(*q, held) if size == _LIFT_DIM else _quad_conic(q) if size == _QUAD else _five_conic(q)
            if conic is None or (size > _LIFT_DIM and _gap_on(held, *conic) > _CERTIFIED_GAP):
                continue
            if size < _FIVE or _moment_weights(q, *conic):
                feasible.append((conic[2], subset, conic))
        if feasible:
            least = min(det for det, *_ in feasible)
            ties = [tie for tie in feasible if tie[0] <= least * (1.0 + _CERTIFIED_GAP)]
            # min keeps the first of equals
            _, subset, conic = min(ties, key=lambda tie: _farthest(x, y, tie[2])[1]) if len(ties) > 1 else ties[0]
            return list(subset), conic
    return None


def _farthest(x: np.ndarray, y: np.ndarray, conic):
    """(index, gap) of the point farthest out of ``conic``: ``_gap_on`` on arrays."""
    (cx, cy), (sxx, sxy, syy), det = conic
    dx, dy = x - cx, y - cy
    radii = dx * dx * syy - 2.0 * dx * dy * sxy + dy * dy * sxx
    j = int(radii.argmax())
    return j, max(float(radii[j]) / (3.0 * det) - 2.0 / 3.0, 0.0)


def _steiner(a, b, c, held=()):
    """(center, covariance (sxx, sxy, syy), its determinant) of three points
    (pairs) under weights 1/3, their Steiner ellipse, or None if they are
    collinear or it leaves a point of ``held`` out by a gap above 1e-12; the
    determinant and the gaps from cross products, so slivers keep them.
    """
    area = _cross(a, b, c) ** 2
    # under the Steiner ellipse a point of barycentric coordinates l has the gap |l|^2 - 1
    if area == 0.0 or any((_cross(q, b, c) ** 2 + _cross(a, q, c) ** 2 + _cross(a, b, q) ** 2) / area - 1.0 > _CERTIFIED_GAP for q in held):
        return None
    cx, cy = (a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0
    d = [(px - cx, py - cy) for px, py in (a, b, c)]
    cov = sum(u * u for u, _ in d) / 3.0, sum(u * v for u, v in d) / 3.0, sum(v * v for _, v in d) / 3.0
    return (cx, cy), cov, area / 27.0


def _five_conic(z: list):
    """(center, covariance (sxx, sxy, syy), its determinant) of the conic through five points
    (pairs), or None if it is no ellipse: in the pencil of the line pairs L01 L23 and L02 L13 through
    the first four, v2 L01 L23 - v1 L02 L13 for the pairs' values v1 and v2 at the fifth point."""
    a, b, c, d, (x, y) = z
    pairs = _line_pair(a, b, c, d), _line_pair(a, c, b, d)
    v1, v2 = (pa * x * x + 2.0 * pb * x * y + pc * y * y + 2.0 * pd * x + 2.0 * pe * y + pf for pa, pb, pc, pd, pe, pf in pairs)
    return _ellipse_of([v2 * u - v1 * v for u, v in zip(*pairs)])


def _moment_weights(z: list, center, cov, det) -> bool:
    """Whether the weights of five points (pairs) on the conic (``center``, ``cov`` of determinant
    ``det``) with total 1, mean ``center`` and covariance ``cov`` are all positive, when that ellipse
    is their minimum one.  With 2 cov = L L' (Cholesky), L^-1 (p - center) maps the points onto the
    unit circle as complex s_k, where the moments are sum_k w_k s_k^m = [m = 0] for m = -2..2, so
    w_k = Re(s_k^2 e2(s_l, l != k) / prod_{l != k} (s_k - s_l)) (Vandermonde); its sign is that of
    the numerator times the conjugate denominator, which needs no division."""
    l00 = math.sqrt(2.0 * cov[0])
    l10, l11 = 2.0 * cov[1] / l00, 2.0 * math.sqrt(det) / l00
    s = [complex(u := (x - center[0]) / l00, (y - center[1] - l10 * u) / l11) for x, y in z]
    for k, sk in enumerate(s):
        a, b, c, d = s[:k] + s[k + 1:]
        spread = (sk - a) * (sk - b) * (sk - c) * (sk - d)
        if not (sk * sk * ((a + b) * (c + d) + a * b + c * d) * spread.conjugate()).real > 0.0:
            return False
    return True


def _extreme_points(z: np.ndarray) -> np.ndarray:
    """Sorted indices of the points extreme along +-x, +-y, +-(x+y) and +-(x-y)."""
    proj = z @ _DIRECTIONS
    return np.unique(np.concatenate([proj.argmax(axis=0), proj.argmin(axis=0)]))


def _steiner_triple(z: np.ndarray, core: np.ndarray) -> list:
    """Sorted indices of the core triple that spans the largest triangle; if
    the core spans none (a thin kite's two tips), of its first and last
    points and the point farthest from their line.

    If some triple's Steiner ellipse holds every point, it is the minimum
    ellipse, so no triangle of the set is larger: only the largest is worth certifying.
    """
    p = z[core].tolist()
    triples = list(combinations(range(len(p)), 3))
    areas = [abs(_cross(p[i], p[j], p[k])) for i, j, k in triples]
    if areas and (largest := max(areas)) > 0.0:
        return sorted(core[list(triples[areas.index(largest)])].tolist())
    a, b = p[0], p[-1]
    cross = (z - a) @ [b[1] - a[1], a[0] - b[0]]
    return sorted([int(core[0]), int(core[-1]), int(np.abs(cross).argmax())])


def _quad_conic(z):
    """(center, covariance (sxx, sxy, syy), its determinant) of the minimum
    ellipse through four points (pairs) in convex position (Gärtner &
    Schönherr, 1997), or None if the points are not in convex position.

    The conics through the points are the pencil C1 + t (C2 - C1) of the two
    pairs of opposite sides, scaled to unit norm; the ellipses are those with
    det(C[:2, :2]) > 0, an interval within (0, 1).  Area squared is
    det(C)^2 / det(C[:2, :2])^3 up to a constant, and its derivative vanishes
    at a root of a cubic, because the quartic terms cancel; the area falls
    from the interval's ends, so bisection finds the root down to adjacent
    floats.  The covariance is half the inverse shape.
    """
    # centred and scaled, so the conic's coefficients are of order one
    mx, my = (0.25 * sum(col) for col in zip(*z))
    p = [(x - mx, y - my) for x, y in z]
    size = max(max(abs(x), abs(y)) for x, y in p)
    p = [(x / size, y / size) for x, y in p]
    # the affine dependence of the points (sum n = 0, sum n p = 0): in convex
    # position two are positive and two negative, and each sign pair is a diagonal
    n = [_cross(p[1], p[2], p[3]), -_cross(p[0], p[2], p[3]), _cross(p[0], p[1], p[3]), -_cross(p[0], p[1], p[2])]
    plus, minus = [k for k in range(4) if n[k] > 0.0], [k for k in range(4) if n[k] < 0.0]
    if len(plus) != 2 or len(minus) != 2:
        return None
    a, b, c, d = (p[k] for k in (plus[0], minus[0], plus[1], minus[1]))  # in cyclic order
    c1 = _line_pair(a, b, c, d)
    dc = [v2 - v1 for v1, v2 in zip(c1, _line_pair(b, c, d, a))]
    # det C(t) = d0 + d1 t + d2 t^2 + d3 t^3 and det C(t)[:2, :2] = e0 + e1 t + e2 t^2
    d0, d1, d2, d3 = _det(c1), _dot(_adjugate(c1), dc), _dot(c1, _adjugate(dc)), _det(dc)
    e0 = c1[0] * c1[2] - c1[1] * c1[1]
    e1 = c1[0] * dc[2] + dc[0] * c1[2] - 2.0 * c1[1] * dc[1]
    e2 = dc[0] * dc[2] - dc[1] * dc[1]
    if not e2 < 0.0:  # no ellipse between the two parabolas: a quad degenerate to rounding
        return None
    peak, half = -0.5 * e1 / e2, math.sqrt(max(e1 * e1 - 4.0 * e0 * e2, 0.0)) / (-2.0 * e2)
    lo, hi = max(peak - half, 0.0), min(peak + half, 1.0)
    # d(area^2)/dt has the sign of det C times 2 det' e - 3 det e', a cubic
    t = 0.5 * (lo + hi)
    sign = math.copysign(1.0, d0 + t * (d1 + t * (d2 + t * d3)))
    g0 = sign * (2.0 * d1 * e0 - 3.0 * d0 * e1)
    g1 = sign * (4.0 * d2 * e0 - d1 * e1 - 6.0 * d0 * e2)
    g2 = sign * (d2 * e1 - 4.0 * d1 * e2 + 6.0 * d3 * e0)
    g3 = sign * (3.0 * d3 * e1 - 2.0 * d2 * e2)
    while lo < (t := 0.5 * (lo + hi)) < hi:
        if g0 + t * (g1 + t * (g2 + t * g3)) < 0.0:  # the area still falls
            lo = t
        else:
            hi = t
    return _ellipse_of([v1 + t * dv for v1, dv in zip(c1, dc)], (mx, my), size)  # None if the interval was empty to rounding


def _ellipse_of(conic, origin=(0.0, 0.0), size=1.0):
    """(center, covariance, its determinant) of the conic C in points scaled by ``size`` about ``origin``, or None
    if it is no ellipse: -C[:2, :2]^-1 C[:2, 2], and half the inverse shape, det C / (2 det2^2) times -adj(C[:2, :2])."""
    ca, cb, cc, cd, ce, _ = conic
    det2 = ca * cc - cb * cb
    half_inverse = size * size * _det(conic) / (2.0 * det2 * det2) if det2 > 0.0 else 0.0
    if not -half_inverse * cc > 0.0:  # a hyperbola, a parabola or an empty ellipse
        return None
    center = (origin[0] + size * (cb * ce - cc * cd) / det2, origin[1] + size * (cb * cd - ca * ce) / det2)
    return center, (-half_inverse * cc, half_inverse * cb, -half_inverse * ca), half_inverse * half_inverse * det2


def _cross(o, a, b) -> float:
    """(a - o) x (b - o), twice the signed area of the triangle o, a, b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# a symmetric 3x3 conic [[a, b, d], [b, c, e], [d, e, f]] as (a, b, c, d, e, f)

def _line_pair(a, b, c, d) -> list[float]:
    """The conic of the line through a and b times the line through c and d, scaled to unit norm."""
    l0, l1, l2 = a[1] - b[1], b[0] - a[0], a[0] * b[1] - a[1] * b[0]
    m0, m1, m2 = c[1] - d[1], d[0] - c[0], c[0] * d[1] - c[1] * d[0]
    conic = [l0 * m0, 0.5 * (l0 * m1 + l1 * m0), l1 * m1, 0.5 * (l0 * m2 + l2 * m0), 0.5 * (l1 * m2 + l2 * m1), l2 * m2]
    norm = math.sqrt(_dot(conic, conic)) or 1.0  # a line through two equal points is zero
    return [v / norm for v in conic]


def _det(m) -> float:
    a, b, c, d, e, f = m
    return a * (c * f - e * e) - b * (b * f - d * e) + d * (b * e - c * d)


def _adjugate(m) -> tuple[float, ...]:
    a, b, c, d, e, f = m
    return c * f - e * e, d * e - b * f, a * f - d * d, b * e - c * d, b * d - a * e, a * c - b * b


def _dot(m, n) -> float:
    """trace(M N) of two symmetric conics."""
    return m[0] * n[0] + m[2] * n[2] + m[5] * n[5] + 2.0 * (m[1] * n[1] + m[3] * n[3] + m[4] * n[4])
