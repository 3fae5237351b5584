import copy
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from oracles import grid_min_ellipse_area
import uavcell
from uavcell import clustering, geometry
from uavcell.clustering import ellipse_clustering
from uavcell.geometry import Ellipse, contains, edge_distance, mvee
from uavcell.scenario import PcpConfig, Region, generate_pcp


def test_four_symmetric_points_give_unit_circle():
    e = mvee([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    np.testing.assert_allclose(e.A, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(e.b, np.zeros(2), atol=1e-6)


def test_singleton_becomes_floor_circle():
    e = mvee([(5.0, 5.0)])
    assert e.semi_axes == (1.0, 1.0)
    np.testing.assert_allclose(e.center, [5.0, 5.0], atol=1e-12)
    assert contains(e, (5.0, 5.0))
    assert contains(e, (6.0, 5.0))  # boundary of the 1 m floor
    assert not contains(e, (6.01, 5.0))


def test_two_points_get_floored_minor_axis():
    e = mvee([(0.0, 0.0), (10.0, 0.0)])
    major, minor = e.semi_axes
    assert major == pytest.approx(5.0, abs=1e-9)
    assert minor == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(e.center, [5.0, 0.0], atol=1e-9)
    assert contains(e, (0.0, 0.0)) and contains(e, (10.0, 0.0))


def test_two_distinct_points_far_out_take_the_line_path():
    # the mean of 19 copies of two points 1e6 m out rounds off their line by
    # about 1e-10 m, which a one-pass centering took for width: the lifted
    # moment matrix of two distinct points is singular, and the dual solve raised
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1e-3, (2, 2))[rng.integers(0, 2, 19)] + [1e6, -5e5]
    e = mvee(pts)
    assert e.fit.ending == "closed-form" and e.semi_axes == pytest.approx((1.0, 1.0), abs=1e-6)
    assert contains(e, pts).all()


def test_collinear_points_lie_along_major_axis():
    pts = [(0.0, 0.0), (3.0, 3.0), (6.0, 6.0)]
    e = mvee(pts)
    assert e.orientation == pytest.approx(math.pi / 4, abs=1e-9)
    for p in pts:
        assert contains(e, p)


def test_contains_boundary_is_inclusive():
    e = Ellipse(A=np.eye(2), b=np.zeros(2))
    assert contains(e, (0.0, 0.0))
    assert contains(e, (1.0, 0.0))
    assert not contains(e, (1.01, 0.0))


def test_edge_distance_trivials_and_scan():
    circle = Ellipse(A=np.eye(2) / 10.0, b=np.zeros(2))
    assert edge_distance(circle, [(0.0, 0.0)]) == 0.0
    assert edge_distance(circle, [(0.0, 0.0), (3.0, 4.0)]) == pytest.approx(5.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-50.0, 50.0, (40, 2))
    e = mvee(pts)
    want = max(math.hypot(p[0] - e.center[0], p[1] - e.center[1]) for p in pts)
    assert edge_distance(e, pts) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        edge_distance(circle, [])


def test_every_input_point_is_covered():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        pts = rng.uniform(0.0, 1000.0, (n, 2))
        e = mvee(pts)
        for p in pts:
            assert contains(e, p)


def test_translation_equivariance():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 100.0, (12, 2))
    t = np.array([37.5, -12.25])
    e0, e1 = mvee(pts), mvee(pts + t)
    np.testing.assert_allclose(e1.center, e0.center + t, atol=1e-6)
    np.testing.assert_allclose(e1.semi_axes, e0.semi_axes, rtol=1e-6)


def test_rotation_equivariance():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.0, 100.0, (10, 2)) * [3.0, 1.0]  # elongated, so orientation is well defined
    phi = 0.7
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    e0, e1 = mvee(base), mvee(base @ rot.T)
    np.testing.assert_allclose(e1.semi_axes, e0.semi_axes, rtol=1e-6)
    diff = (e1.orientation - e0.orientation - phi) % math.pi
    assert min(diff, math.pi - diff) < 1e-4


def test_adding_a_point_never_shrinks_area():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 200.0, (15, 2))
    area = mvee(pts[:6]).area
    for n in range(7, 16):
        grown = mvee(pts[:n]).area
        assert grown >= area * (1.0 - 1e-7)
        area = grown


def test_five_point_area_matches_grid_oracle():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.0, 100.0, (5, 2))
    want = grid_min_ellipse_area(pts)
    assert mvee(pts).area == pytest.approx(want, rel=1e-2)


def test_small_set_optimality_sample():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        pts = rng.uniform(0.0, 100.0, (n, 2))
        want = grid_min_ellipse_area(pts)
        assert mvee(pts).area <= want * 1.01


def test_input_validation():
    with pytest.raises(ValueError, match="no points"):
        mvee([])
    with pytest.raises(ValueError, match="invalid point"):
        mvee([(0.0, float("nan"))])
    with pytest.raises(ValueError):
        mvee([(1.0, 2.0, 3.0)])


def test_ellipse_validation():
    with pytest.raises(ValueError):
        Ellipse(A=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2))  # not symmetric
    with pytest.raises(ValueError):
        Ellipse(A=np.array([[1.0, 0.0], [0.0, -1.0]]), b=np.zeros(2))  # not positive definite
    with pytest.raises(ValueError, match="positive definite"):
        Ellipse(A=np.array([[1.0, 1.0], [1.0, 1.0]]), b=np.zeros(2))  # semidefinite: det(A) = 0
    with pytest.raises(ValueError, match="positive definite"):
        Ellipse(A=-np.eye(2), b=np.zeros(2))  # negative definite: det(A) > 0, A[0, 0] < 0
    with pytest.raises(ValueError):
        Ellipse(A=np.eye(3), b=np.zeros(3))


def test_ellipse_derived_quantities_agree():
    # semi-axes from the eigenvalues must match the area determinant identity
    e = mvee(np.random.default_rng(2).uniform(0.0, 300.0, (25, 2)))
    major, minor = e.semi_axes
    assert major >= minor > 0.0
    assert e.area == pytest.approx(math.pi * major * minor, rel=1e-9)


def test_seed_two_user_set_is_certified():
    # all 244 users of acceptance seed 2, on which 10 000 first-order
    # (away-step) updates still leave a gap of 1.1e-5
    users = generate_pcp(Region(), PcpConfig(seed=2))
    assert len(users) == 244
    e = mvee(users)
    assert e.fit.gap <= 1e-12
    assert contains(e, users).all()


@pytest.mark.parametrize("sides", [48, 90, 360])
def test_cocircular_hulls_are_certified(sides):
    # uniform weights are optimal on a regular polygon, but every basis of
    # three to five of its vertices whose circle holds the rest certifies it
    t = 2.0 * math.pi * np.arange(sides) / sides
    pts = 1e3 + 100.0 * np.column_stack([np.cos(t), np.sin(t)])
    e = mvee(pts)
    assert e.fit.gap <= 1e-12
    assert contains(e, pts).all()


def test_a_stalled_walk_warns_with_size_and_gap(monkeypatch):
    # with no basis after the first, the walk ends on the start triangle's
    # Steiner ellipse, which the inflation stretches over every point
    monkeypatch.setattr(geometry, "_next_basis", lambda *args: None)
    pts = np.random.default_rng(4).uniform(0.0, 100.0, (40, 2))
    with pytest.warns(RuntimeWarning, match=r"on 40 points .* gap of"):
        e = mvee(pts)
    assert e.fit.ending == "stalled" and e.fit.gap > 1e-12 and e.fit.support is None
    assert contains(e, pts).all()


def test_a_fit_that_overflows_raises_and_does_not_inflate_forever():
    # in a subprocess, so that an inflation loop that never ends fails by its time limit
    code = (
        "import warnings\n"
        "import numpy as np\n"
        "from uavcell.clustering import ellipse_clustering\n"
        "from uavcell.geometry import mvee\n"
        "from uavcell.scenario import PcpConfig, Region, generate_pcp\n"
        "warnings.simplefilter('ignore')\n"
        "users = generate_pcp(Region(), PcpConfig(seed=0))\n"
        "cases = [np.random.default_rng(n).uniform(0.0, 1e156, (n, 2)) for n in (3, 4, 5, 40)]\n"
        "for run in [*(lambda pts=pts: mvee(pts) for pts in cases), lambda: ellipse_clustering(users * 1e155)]:\n"
        "    try:\n"
        "        run()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(uavcell.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"mvee: the fit of {n} points overflows; coordinates too large" for n in (3, 4, 5, 40, 121)
    ]


def test_fit_record_stays_out_of_equality_and_repr():
    e = mvee([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (4.0, 3.0)])
    assert e.fit.gap <= 1e-12 and e.fit.ending == "quad"
    assert "fit" not in repr(e)
    assert Ellipse(A=e.A, b=e.b).fit is None
    assert [f.name for f in fields(e) if f.compare] == ["A", "b"]


def test_equal_ellipses_compare_by_value():
    pts = np.random.default_rng(3).uniform(0.0, 100.0, (25, 2))
    e = mvee(pts)
    assert e == copy.deepcopy(mvee(pts))
    assert e == Ellipse(A=e.A, b=e.b)  # the fit record stays out of equality
    assert e != Ellipse(A=2.0 * e.A, b=e.b) and e != "ellipse"
    with pytest.raises(TypeError):
        hash(e)


@pytest.mark.parametrize("interior", [1, 2, 3, 7])
def test_triangle_with_interior_points_is_certified_on_the_triangle(interior):
    # the Steiner ellipse of the hull triangle holds every interior point, so
    # it is the optimum, with area 4 pi / (3 sqrt 3) times the triangle's
    tri = np.array([[100.0, 200.0], [400.0, 250.0], [180.0, 520.0]])
    weights = np.random.default_rng(interior).dirichlet(np.ones(3), interior)
    pts = np.vstack([tri, weights @ tri])
    e = mvee(pts)
    assert e.fit.ending == "triangle" and e.fit.gap <= 1e-12
    assert contains(e, pts).all()
    (ax, ay), (bx, by) = tri[1] - tri[0], tri[2] - tri[0]
    tri_area = 0.5 * abs(ax * by - ay * bx)
    assert e.area == pytest.approx(4.0 * math.pi / (3.0 * math.sqrt(3.0)) * tri_area, rel=1e-9)


@pytest.mark.parametrize("shape", ["rectangle", "pentagon"])
def test_supports_beyond_three_points_reach_the_quad_or_the_five(shape):
    # a rectangle's minimum ellipse passes through all four corners, so the
    # quad certifies it; a regular pentagon's needs all five, and the conic
    # through them, its circumcircle, certifies it without a walk
    if shape == "rectangle":
        pts = np.array([[0.0, 0.0], [40.0, 0.0], [40.0, 30.0], [0.0, 30.0]])
        want = ("quad", (0, 1, 2, 3))
    else:
        t = 2.0 * math.pi * np.arange(5) / 5
        pts = 50.0 * np.column_stack([np.cos(t), np.sin(t)])
        want = ("five", (0, 1, 2, 3, 4))
    e = mvee(pts)
    assert (e.fit.ending, e.fit.support) == want and e.fit.gap <= 1e-12
    assert contains(e, pts).all()
    # the minimum ellipse through a rectangle's corners is sqrt(2) times its inscribed one
    area = math.pi * 20.0 * 15.0 * 2.0 if shape == "rectangle" else math.pi * 50.0**2
    assert e.area == pytest.approx(area, rel=1e-11)


class _NoLinearAlgebra:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.linalg.{name} called")


def test_small_fits_take_no_linear_algebra(monkeypatch):
    # triangles, convex and non-convex quads, pentagons, 1 m x 1e6 m slivers
    # and sets 1e6 m out are fitted by cases in Python floats, without one call
    # into numpy.linalg, so what a small fit costs is counted in float operations
    rng = np.random.default_rng(16)
    sets = []
    for _ in range(200):
        corners = rng.uniform(-500.0, 500.0, (3, 2))
        inner = rng.dirichlet(np.ones(3)) @ corners  # the fourth point in the hull triangle
        sets += [corners, np.vstack([corners, inner]), rng.uniform(-500.0, 500.0, (4, 2))]
        turn = 2.0 * math.pi * np.arange(5) / 5 + rng.uniform(-0.1, 0.1, 5)
        sets.append(rng.uniform(10.0, 500.0) * np.column_stack([np.cos(turn), 0.5 * np.sin(turn)]))
    angle = rng.uniform(0.0, math.pi, 50)
    for a in angle:
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        sliver = np.column_stack([rng.uniform(0.0, 1e6, 4), rng.uniform(0.0, 1.0, 4)]) @ rot.T
        sets += [sliver, sliver[:3]]
    sets += [s + [1e6, -5e5] for s in list(sets)]
    endings = set()
    monkeypatch.setattr(geometry.np, "linalg", _NoLinearAlgebra())
    for pts in sets:
        e = mvee(pts)
        assert e.fit.gap <= 1e-12 and contains(e, pts).all()
        endings.add(e.fit.ending)
    assert endings == {"closed-form", "triangle", "quad", "five"}


def test_a_campaign_fit_makes_one_svd_to_whiten_and_no_least_squares(monkeypatch):
    # the walk's primitives, five-point conics and their weights included,
    # are Python floats: numpy.linalg serves a fit of more than five points
    # only the SVD that whitens them, and a smaller fit nothing
    calls, fits = Counter(), []

    def counted(name, solver):
        def call(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return call

    def fit(points):
        calls.clear()
        e = mvee(points)
        fits.append((len(points), dict(calls)))
        return e

    for name in ("svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(clustering, "mvee", fit)
    with patch.object(geometry, "_five_conic", wraps=geometry._five_conic) as five:
        for seed in range(3):
            ellipse_clustering(generate_pcp(Region(), PcpConfig(seed=seed)))
    assert fits and five.call_count > 0
    assert all(used == ({"svd": 1} if n > 5 else {}) for n, used in fits)


def test_small_fits_take_no_radius_arrays(monkeypatch):
    # points, segments, triangles, quads and fives, near the origin and 1e6 m
    # out, are checked and inflated on Python floats: the array path of the
    # radius formula is never called
    rng = np.random.default_rng(17)
    sets = [rng.uniform(-500.0, 500.0, (n, 2)) for n in (1, 2, 3, 4, 5) for _ in range(40)]
    sets += [np.repeat(s[:1], 2, axis=0) for s in sets[:40]]  # two equal points
    turn = 2.0 * math.pi * np.arange(5) / 5
    sets += [np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]), 50.0 * np.column_stack([np.cos(turn), np.sin(turn)])]
    sets += [s + [1e6, -5e5] for s in list(sets)]

    def no_arrays(*args):
        raise AssertionError("array radii called")

    monkeypatch.setattr(geometry, "_radii", no_arrays)
    for pts in sets:
        e = mvee(pts)
        radii = [geometry._radius(math, e.A.tolist(), e.b.tolist(), x, y) for x, y in pts.tolist()]
        assert max(radii) <= 1.0


@pytest.mark.parametrize("end", [(750.0, 750.0), (250.0, 250.0)])
def test_the_containment_inflation_ends_in_few_passes_far_out(monkeypatch, end):
    # counted, never timed: 1e7 m out, across a segment's 1 m floor width, the
    # rounding of A and b after a rescale by a relative 1e-12 left a point at
    # radius 1 + 8e-12 pass after pass, over a million passes; a margin that
    # doubles each pass ends in a few
    pts = np.array([[1e7, -1e7], [1e7 + end[0], -1e7 + end[1]]])
    passes = []
    radius = geometry._radius
    monkeypatch.setattr(geometry, "_radius", lambda xp, *args: passes.append(args) or radius(xp, *args))
    e = mvee(pts)
    assert contains(e, pts).all() and len(passes) <= 20 * len(pts)


def test_a_quad_degenerate_to_rounding_has_no_weights():
    # the first and last corners are one ulp apart, so the affine dependence
    # passes the sign test of convex position by rounding alone; no quad
    # weights certify it, and the fit ends on the triangle of the last three
    z = np.array([
        [98.67877981295356, 105.96373511208479], [-173.00431592865056, -115.21746743531041],
        [95.06075228220422, -162.76314736192134], [98.67877981295356, 105.96373511208482],
    ])
    e = mvee(z)
    assert (e.fit.ending, e.fit.support, e.fit.gap) == ("triangle", (1, 2, 3), 0.0)
    assert contains(e, z).all()


@pytest.mark.parametrize("m", [100, 200, 500])
def test_open_ellipse_arc_is_certified(m):
    # nearly every point of a near-closed arc sits within rounding of the
    # optimal ellipse, so only the right support of at most six certifies
    t = np.linspace(0.0, 6.28, m)
    pts = np.column_stack([150.0 * np.cos(t), 50.0 * np.sin(t)])
    e = mvee(pts)
    assert e.fit.gap <= 1e-12
    assert contains(e, pts).all()


def test_regular_polygons_are_certified():
    for sides in range(7, 1001):
        t = 2.0 * math.pi * np.arange(sides) / sides
        pts = 1e3 + 100.0 * np.column_stack([np.cos(t), np.sin(t)])
        e = mvee(pts)
        assert e.fit.gap <= 1e-12, sides
        assert contains(e, pts).all()


@pytest.mark.parametrize("sides, phase, radius", [
    (100, 1.0, 50.0), (300, 0.25, 10.0),
    (12, 0.0, 10.0), (14, 1.0, 10.0), (9, 0.25, 1.0), (10, 1.0, 1.0), (15, 0.25, 1.0), (38, 0.0, 1.0), (45, 1.0, 1.0),
])
def test_noisy_cocircular_points_are_certified(sides, phase, radius):
    # 1e6 m out, rounding moves the vertices off the circle by about 1e-11 of
    # the radius, and the determinants of bases near the circle round into
    # ties, or into the reverse of their exact order: on the 12-gon of radius
    # 10 m the quad (2, 3, 6, 10) rounds to 1.0000000000000004 and the five
    # (2, 3, 6, 9, 10) after it to 1.  A walk that asks each basis for a
    # larger determinant stalls on all but the 15-gon; this one only never
    # revisits a basis
    t = phase + 2.0 * math.pi * np.arange(sides) / sides
    pts = 1e6 + radius * np.column_stack([np.cos(t), np.sin(t)])
    e = mvee(pts)
    assert e.fit.gap <= 1e-12
    assert contains(e, pts).all()


def test_thin_kite_whose_extremes_are_its_two_tips_is_certified():
    # a rhombus with half-diagonals 100 m and 30 m, the long one at 22.5
    # degrees, plus 12 points near each end of the short one that make the
    # covariance isotropic; x stretched by 1.01 so whitening keeps the frame.
    # Its tips are the extremes along all eight directions, so the core
    # needs the point farthest from their line to span a triangle
    long_axis = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    short_axis = 30.0 * np.array([-long_axis[1], long_axis[0]])
    c = math.sqrt((100.0**2 - 30.0**2) / (12 * 30.0**2))
    inner = [s * c * short_axis for s in (1.0, -1.0) for _ in range(12)]
    pts = np.array([100.0 * long_axis, short_axis, -100.0 * long_axis, -short_axis, *inner]) * [1.01, 1.0]
    e = mvee(pts)
    assert e.fit.gap <= 1e-12
    assert contains(e, pts).all()


@pytest.mark.parametrize("seed, width", [(36, 1e-2), (88, 1e-3), (95, 1e-4)])
def test_noisy_annulus_needing_many_support_swaps_is_certified(seed, width, monkeypatch):
    # 200 random points in a thin annulus: the walk swaps basis points near
    # a common circle more than ten times; started from the triangle of the
    # first three points instead of the extreme points' largest, it takes
    # another path to the same five points
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * math.pi, 200)
    r = 100.0 * (1.0 + width * rng.uniform(-1.0, 1.0, 200))
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    with patch.object(geometry, "_next_basis", wraps=geometry._next_basis) as step:
        e = mvee(pts)
    assert e.fit.gap <= 1e-12 and e.fit.ending == "five" and step.call_count > 10
    assert contains(e, pts).all()
    monkeypatch.setattr(geometry, "_extreme_points", lambda z: np.arange(3))
    elsewhere = mvee(pts)
    assert elsewhere.fit.gap <= 1e-12
    assert contains(elsewhere, pts).all()
    # both end on the same five support points, so the fit is theirs alone
    assert elsewhere == e and elsewhere.fit.support == e.fit.support
