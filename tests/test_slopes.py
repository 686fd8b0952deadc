"""Tests for Newton polygons and slope decomposition."""

import random
from fractions import Fraction

import pytest

from tadic.errors import PrecisionError
from tadic.pipeline import doubling_check, run_slopes
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput
from tadic.xseries import Geometry
from tadic.slopes import (
    NewtonPolygon,
    PolygonPoint,
    hodge_bound_report,
    hodge_polygon,
    lower_convex_hull,
    newton_polygon,
    slope_decomposition,
)
from tadic.zp import ZpTSeries


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def series_with_vT(p, b, w, v):
    """A T-series with exact T-order v (or visibly zero if v >= b)."""
    if v >= b:
        return ZpTSeries.zero(p, b, w)
    return ZpTSeries.from_ints(p, b, [0] * v + [1], w)


def test_polygon_single_slope_zero():
    prof = profile()
    w = prof.work
    coeffs = [ZpTSeries.one(2, 8, w), ZpTSeries.from_ints(2, 8, [-2], w)]
    np_ = newton_polygon(coeffs)
    assert [(s.slope, s.multiplicity) for s in np_.slopes] == [(Fraction(0), 1)]
    assert not np_.slopes[0].provisional


def test_polygon_slope_one():
    prof = profile()
    w = prof.work
    coeffs = [ZpTSeries.one(2, 8, w), ZpTSeries.from_ints(2, 8, [0, 1], w)]
    np_ = newton_polygon(coeffs)
    assert np_.slopes[0].slope == 1


def test_polygon_hull_arithmetic():
    prof = profile()
    w = prof.work
    coeffs = [
        ZpTSeries.one(2, 8, w),
        series_with_vT(2, 8, w, 1),
        series_with_vT(2, 8, w, 3),
    ]
    np_ = newton_polygon(coeffs)
    assert [s.slope for s in np_.slopes] == [Fraction(1), Fraction(2)]
    assert np_.hull == ((0, 0), (1, 1), (2, 3))


def test_polygon_provisional_flagging():
    prof = profile()
    w = prof.work
    coeffs = [
        ZpTSeries.one(2, 8, w),
        series_with_vT(2, 8, w, 2),
        ZpTSeries.zero(2, 8, w),     # unknown beyond T^8
    ]
    np_ = newton_polygon(coeffs)
    assert np_.points[2].exact is False
    assert np_.slopes[0].provisional is False
    assert np_.slopes[1].provisional is True
    assert np_.slope_list() == [Fraction(2)]


def brute_force_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Quadratic reference hull: keep points not strictly above any chord."""
    keep = []
    for i, (x, y) in enumerate(pts):
        above = False
        for j in range(len(pts)):
            for k in range(j + 1, len(pts)):
                (xa, ya), (xb, yb) = pts[j], pts[k]
                if xa <= x <= xb and xa < xb:
                    chord = Fraction(ya) + Fraction(yb - ya, xb - xa) * (x - xa)
                    if Fraction(y) > chord:
                        above = True
                        break
            if above:
                break
        if not above:
            keep.append((x, y))
    # of the kept points, vertices are where the slope strictly increases
    return lower_convex_hull(keep)




def test_hull_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(50):
        pts = [(k, rng.randrange(0, 20)) for k in range(rng.randrange(2, 12))]
        assert lower_convex_hull(pts) == brute_force_hull(pts)


def test_hull_collinear_points_absorbed():
    pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert lower_convex_hull(pts) == [(0, 0), (3, 3)]


def test_slope_decomposition_unit_blocks():
    pts = [PolygonPoint(k, k * (k - 1) // 2, True) for k in range(7)]
    hull = lower_convex_hull([(p.index, p.valuation) for p in pts])
    np_ = NewtonPolygon(points=tuple(pts), hull=tuple(hull), slopes=newton_polygon_slopes(hull))
    rep = slope_decomposition(np_, 1)
    assert rep.increment_r == 1
    assert rep.residues == (Fraction(0),)
    assert all(q == "exact" for q in rep.all_qualities())


def newton_polygon_slopes(hull):
    from tadic.slopes import PolygonSlope
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out.append(PolygonSlope(Fraction(y1 - y0, x1 - x0), x1 - x0, False))
    return tuple(out)


def test_slope_decomposition_blocks_of_three():
    # slopes 0, 2, 4, 6, 8, 10, ... in blocks of 3: r = 6, beta = 0, 1/3, 2/3
    slopes = [Fraction(2 * k) for k in range(9)]
    np_ = _polygon_from_slopes(slopes)
    rep = slope_decomposition(np_, 3)
    assert rep.increment_r == 6
    assert rep.residues == (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    assert all(q == "exact" for q in rep.all_qualities())


def _polygon_from_slopes(slopes):
    from tadic.slopes import PolygonSlope
    y = Fraction(0)
    pts = [(0, 0)]
    for s in slopes:
        y += s
        pts.append((pts[-1][0] + 1, y))
    int_pts = [(x, int(v)) for x, v in pts]
    hull = lower_convex_hull(int_pts)
    points = tuple(PolygonPoint(x, v, True) for x, v in int_pts)
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out.append(PolygonSlope(Fraction(y1 - y0, x1 - x0), x1 - x0, False))
    return NewtonPolygon(points=points, hull=tuple(hull), slopes=tuple(out))


def test_slope_decomposition_flags_perturbed_entry():
    # one slope nudged off the progression must be classified, not absorbed
    slopes = [Fraction(k) for k in range(8)]
    slopes[5] = Fraction(11, 2)  # in block 5 window [5, 6) but off-model
    np_ = _polygon_from_slopes_rational(slopes)
    rep = slope_decomposition(np_, 1)
    assert rep.increment_r == 1
    qualities = rep.all_qualities()
    assert qualities[5] == "within-window"
    assert qualities.count("exact") == 7


def _polygon_from_slopes_rational(slopes):
    from tadic.slopes import PolygonSlope
    pts = [PolygonPoint(0, 0, True)]
    out = []
    for k, s in enumerate(slopes):
        out.append(PolygonSlope(s, 1, False))
    hull = [(0, Fraction(0))]
    y = Fraction(0)
    for k, s in enumerate(slopes):
        y += s
        hull.append((k + 1, y))
    return NewtonPolygon(points=tuple(pts), hull=tuple(hull), slopes=tuple(out))


def test_slope_decomposition_insufficient_slopes():
    np_ = _polygon_from_slopes([Fraction(0), Fraction(1)])
    with pytest.raises(PrecisionError):
        slope_decomposition(np_, 3)


def test_hodge_bound_report():
    # heights k(k-1) match the bound for p = 7, d = 3 exactly
    pts = [PolygonPoint(k, k * (k - 1), True) for k in range(6)]
    hull = lower_convex_hull([(p.index, p.valuation) for p in pts])
    np_ = NewtonPolygon(points=tuple(pts), hull=tuple(hull),
                        slopes=newton_polygon_slopes(hull))
    rep = hodge_bound_report(np_, 7, 3)
    assert rep["holds"]
    # a polygon strictly below the bound is flagged
    low = [PolygonPoint(0, 0, True), PolygonPoint(1, 0, True), PolygonPoint(2, 0, True)]
    hull = lower_convex_hull([(p.index, p.valuation) for p in low])
    np_low = NewtonPolygon(points=tuple(low), hull=tuple(hull),
                           slopes=newton_polygon_slopes(hull))
    rep = hodge_bound_report(np_low, 7, 3)
    assert not rep["holds"] and rep["violations"]


def test_hodge_bound_skips_precision_capped_segments():
    # p = 7, d = 3: exact heights k(k-1) up to k = 6 sit on the bound; the
    # apparent zeros after them only bound their valuation by b, so the
    # provisional segment to (9, b) lies below the bound without being a
    # violation
    p, b = 7, 64
    w = profile(p=p, b=b).work
    coeffs = [series_with_vT(p, b, w, k * (k - 1)) for k in range(7)]
    coeffs += [ZpTSeries.zero(p, b, w)] * 3
    np_ = newton_polygon(coeffs)
    assert np_.hull[-2:] == ((6, 30), (9, b))
    assert np_.slopes[-1].provisional
    assert np_.hull_value(7) < Fraction((p - 1) * 7 * 6, 2 * 3)
    rep = hodge_bound_report(np_, p, 3)
    assert rep["holds"], rep["violations"]
    assert rep["unchecked"] == [7, 8, 9]
    # an exact point below the bound is still reported
    coeffs[6] = series_with_vT(p, b, w, 29)
    rep = hodge_bound_report(newton_polygon(coeffs), p, 3)
    assert [v["index"] for v in rep["violations"]] == [6]


def test_hodge_polygon_of_delta():
    # affine Delta = [0, d]: the heights (p-1) k (k-1) / (2d)
    for p, d in ((2, 1), (3, 2), (7, 3), (11, 5)):
        assert hodge_polygon(p, d, 0, 9) == [Fraction((p - 1) * k * (k - 1), 2 * d)
                                             for k in range(10)]
    # torus weights u/d1 and |u|/d2: x^2 + 1/x at p = 7 has slopes
    # 0, 3, 6, 6, 9, 12, 12, and x + 1/x has slopes 0, 6, 6, 12, 12
    assert hodge_polygon(7, 2, 1, 7) == [0, 0, 3, 9, 15, 24, 36, 48]
    assert hodge_polygon(7, 1, 1, 5) == [0, 0, 6, 12, 24, 36]
    # a side f does not reach adds no basis element past x^0
    assert hodge_polygon(7, 0, 2, 4) == hodge_polygon(7, 2, 0, 4) == [0, 0, 3, 9, 18]
    with pytest.raises(ValueError):
        hodge_polygon(7, 0, 0, 3)


@pytest.mark.parametrize("p,f,b,smax,exact_heights", [
    # p = 1 mod lcm(2, 1): the polygon is HP(Delta), 15 at k = 4, where the
    # affine-style bound (p-1) k (k-1) / (2 max|u|) asked for 18
    (7, {2: 1, -1: 1}, 26, 5, [0, 0, 3, 9, 15, 24]),
    # d1 != d2 at p != 1 mod lcm(3, 2): strictly above HP(Delta) at k = 2,
    # 3 and on it at k = 4, where the affine-style bound asked for 8
    (5, {3: 1, -2: 1}, 16, 4, [0, 0, 2, 4, 6]),
])
def test_torus_polygon_holds_against_the_hodge_polygon(p, f, b, smax, exact_heights):
    tower = TowerInput(p, Geometry.TORUS, f)
    d = tower.degree
    prof = PrecisionProfile.create(p, 3, b, smax, 1, degree=d,
                                   D=max(-(-d * b // (p - 1)) + 2 * d, p))
    run = run_slopes(tower, prof)
    assert [(pt.valuation, pt.exact) for pt in run.polygon.points] == \
        [(v, True) for v in exact_heights]
    assert run.hodge["holds"] and run.hodge["unchecked"] == [], run.hodge
    assert doubling_check(tower, prof, base=run.trace) == (True, {})


def test_polygon_below_the_torus_hodge_polygon_is_flagged():
    # HP(Delta) of x^2 + 1/x at p = 7 is 0, 0, 3, 9, 15, 24; an exact
    # point at 14 over k = 4 lies below it, and pulls the hull at k = 3
    # below it too
    p, b = 7, 40
    w = profile(p=p, b=b).work
    heights = [0, 0, 3, 9, 14, 24]
    np_ = newton_polygon([series_with_vT(p, b, w, v) for v in heights])
    rep = hodge_bound_report(np_, p, 2, 1)
    assert not rep["holds"]
    assert rep["violations"] == [{"index": 3, "hull": "17/2", "bound": "9"},
                                 {"index": 4, "hull": "14", "bound": "15"}]
    # on HP(Delta) itself nothing is flagged
    heights[4] = 15
    np_ = newton_polygon([series_with_vT(p, b, w, v) for v in heights])
    assert hodge_bound_report(np_, p, 2, 1)["holds"]
    assert rep["bound"] == "HP(Delta) with p=7, Delta=[-1, 2]"
