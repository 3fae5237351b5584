import copy
import math
from dataclasses import fields

import numpy as np
import pytest

from oracles import grid_min_ellipse_area
from uavcell import geometry
from uavcell.geometry import MVEE_TOLERANCE, Ellipse, contains, edge_distance, mvee
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
    with pytest.raises(ValueError):
        Ellipse(A=np.eye(3), b=np.zeros(3))


def test_ellipse_derived_quantities_agree():
    # semi-axes from the eigenvalues must match the area determinant identity
    e = mvee(np.random.default_rng(2).uniform(0.0, 300.0, (25, 2)))
    major, minor = e.semi_axes
    assert major >= minor > 0.0
    assert e.area == pytest.approx(math.pi * major * minor, rel=1e-9)


def test_seed_two_user_set_is_certified_without_fallback():
    # all 244 users of acceptance seed 2: the first-order loop alone stops at
    # its 10 000-iteration cap here, with a gap of 1.1e-5
    users = generate_pcp(Region(), PcpConfig(seed=2))
    assert len(users) == 244
    e = mvee(users)
    assert e.fit.gap <= 1e-12
    assert not e.fit.fallback
    assert contains(e, users).all()


@pytest.mark.parametrize("sides", [48, 90, 360])
def test_cocircular_hulls_are_certified_without_fallback(sides):
    # uniform weights are optimal on a regular polygon, out of reach of
    # Newton's support of at most six points
    t = 2.0 * math.pi * np.arange(sides) / sides
    pts = 1e3 + 100.0 * np.column_stack([np.cos(t), np.sin(t)])
    e = mvee(pts)
    assert not e.fit.fallback and e.fit.gap <= 1e-12
    assert contains(e, pts).all()


def test_capped_fallback_warns_with_size_and_gap(monkeypatch):
    monkeypatch.setattr(geometry, "_newton", lambda q, u: (None, 0, math.inf))
    monkeypatch.setattr(geometry, "MVEE_MAX_ITERATIONS", 5)
    pts = np.random.default_rng(4).uniform(0.0, 100.0, (40, 2))
    with pytest.warns(RuntimeWarning, match=r"on 40 points .* gap of"):
        e = mvee(pts)
    assert e.fit.fallback and e.fit.iterations == 5 and e.fit.gap > MVEE_TOLERANCE
    assert contains(e, pts).all()


def test_fit_record_stays_out_of_equality_and_repr():
    e = mvee([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (4.0, 3.0)])
    assert e.fit.gap <= 1e-12 and e.fit.newton_steps > 0 and not e.fit.fallback
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
