"""Acceptance suite: one test per release criterion, each printing a
pass line (run with -s to see them).

The five reference towers are compared coefficientwise between the
trace-formula route and the enumeration oracle at a = 6, b = 8,
smax = 4, dmax = 4; the slope-structure criterion runs p = 7, f = x^3
deep enough in T (b = 80 >= 12) that three full blocks of slopes are
non-provisional.
"""

import random
import time
from fractions import Fraction

import pytest

from tadic.dwork import verify_theta_formulas
from tadic.fredholm import l_from_traces, power_traces
from tadic.pipeline import (
    compare_series,
    doubling_check,
    run_compare,
    run_trace_formula,
)
from tadic.profile import PrecisionProfile
from tadic.series import artin_hasse_fractions, artin_hasse_units, pi_from_T
from tadic.slopes import hodge_bound_report, newton_polygon, slope_decomposition
from tadic.splitting import (
    TowerInput,
    fiber_character_value,
    norm_of_ef_at_orbit,
)
from tadic.unramified import teichmuller_powers
from tadic.xseries import Geometry, XSeries
from tadic.zp import ZpTSeries

CASES = [
    ("p2-affine-x", 2, Geometry.AFFINE_LINE, {1: 1}),
    ("p2-affine-x3", 2, Geometry.AFFINE_LINE, {3: 1}),
    ("p3-affine-x2+x", 3, Geometry.AFFINE_LINE, {2: 1, 1: 1}),
    ("p2-torus-x+1/x", 2, Geometry.TORUS, {1: 1, -1: 1}),
    ("p5-affine-x4", 5, Geometry.AFFINE_LINE, {4: 1}),
]

A, B, SMAX, DMAX = 6, 8, 4, 4


def _ok(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


@pytest.fixture(scope="module")
def compare_runs():
    out = {}
    for name, p, geom, f in CASES:
        tower = TowerInput(p, geom, f)
        prof = PrecisionProfile.create(p, A, B, SMAX, DMAX,
                                       degree=max(tower.degree, 1))
        t0 = time.perf_counter()
        out[name] = (run_compare(tower, prof), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def slope_run():
    p, b, smax = 7, 80, 9
    tower = TowerInput(p, Geometry.AFFINE_LINE, {3: 1})
    d = tower.degree
    # decay-based degree bound: rows past d*b/(p-1) cannot touch T^b
    D = -(-d * b // (p - 1)) + 2 * d
    prof = PrecisionProfile.create(p, 6, b, smax, 1, degree=d, D=D)
    return run_trace_formula(tower, prof), tower, prof


def test_criterion_1_trace_formula_vs_oracle(compare_runs):
    for name, (res, elapsed) in compare_runs.items():
        assert res.verdict.agree, f"{name}: routes disagree at {res.verdict.first_mismatch}"
        assert res.verdict.effective_precision >= 4, name
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
    _ok("criterion 1 (trace formula vs oracle, 5 towers)")


def test_criterion_2_zeta_degeneration(compare_runs):
    for name, (res, _) in compare_runs.items():
        p = res.trace.prof.p
        w = res.trace.prof.work
        torus = res.trace.tower.geometry is Geometry.TORUS
        for k in range(SMAX + 1):
            got = res.trace.lfun.coeff(k).vals[0]
            if torus:
                expect = 1 if k == 0 else (1 - p)
            else:
                expect = {0: 1, 1: -p}.get(k, 0)
            assert got == expect % p ** w, (name, k)
            # oracle route at its own effective precision
            ocoeff = res.oracle.coeff(k)
            m = p ** ocoeff.prec[0]
            assert ocoeff.vals[0] % m == expect % m, (name, k)
    _ok("criterion 2 (zeta degeneration at T = 0)")


def test_criterion_3_fredholm_integrality(compare_runs, slope_run):
    series = []
    for name, (res, _) in compare_runs.items():
        series += [res.trace.c0, res.trace.c1]
    series.append(slope_run[0].c0)
    for c in series:
        c.assert_integral()
        w = c.coeffs[0].prec[0]
        for coeff in c.coeffs:
            assert coeff.prec == (w,) * coeff.b
            assert all(0 <= v < coeff.p ** w for v in coeff.vals)
    _ok("criterion 3 (Fredholm coefficients p-integral, zero tolerance)")


def test_criterion_4_truncation_stability(compare_runs):
    for name, (res, _) in compare_runs.items():
        ok, info = doubling_check(res.trace.tower, res.trace.prof, base=res.trace)
        assert ok, f"{name}: doubling the degree bound changed {info}"
    _ok("criterion 4 (doubling-D truncation stability)")


def test_criterion_5_route_consistency_random_towers():
    rng = random.Random(20240817)
    trials = 0
    while trials < 20:
        p = rng.choice([2, 3])
        geom = rng.choice([Geometry.AFFINE_LINE, Geometry.TORUS])
        deg = rng.randrange(1, 5)
        lo = 1 if geom is Geometry.AFFINE_LINE else -deg
        f = {}
        f[deg if geom is Geometry.AFFINE_LINE else rng.choice([deg, -deg])] = \
            rng.randrange(1, p)
        for _ in range(rng.randrange(0, 3)):
            u = rng.randrange(lo, deg + 1)
            if u != 0:
                f[u] = rng.randrange(0, p)
        tower = TowerInput(p, geom, f)
        if not tower.f_coeffs:
            continue
        trials += 1
        prof = PrecisionProfile.create(p, 5, 5, 3, 3,
                                       degree=max(tower.degree, 1))
        run = run_trace_formula(tower, prof)
        t0 = power_traces(run.m0, prof.smax)
        t1 = power_traces(run.m1, prof.smax)
        via = l_from_traces([a - b for a, b in zip(t0, t1)], prof.smax)
        cmp_ = compare_series(run.lfun, via)
        assert cmp_.agree, (p, geom, f, cmp_.first_mismatch)
    _ok("criterion 5 (20 random towers, determinant vs trace route)")


def test_criterion_6_fiber_identity(compare_runs):
    for name, (res, _) in compare_runs.items():
        tower, prof, ef = res.trace.tower, res.trace.prof, res.trace.ef
        torus = tower.geometry is Geometry.TORUS
        for d in (1, 2, 3):
            # the nonzero points are the powers g^k of one generator; the
            # affine line adds 0 (index None)
            points = list(teichmuller_powers(prof.p, d, prof))
            ks = ([] if torus else [None]) + list(range(len(points)))
            assert len(ks) == prof.p ** d - torus
            for k in ks:
                lhs = norm_of_ef_at_orbit(ef, points, k)
                rhs = fiber_character_value(tower, points, k, prof)
                digits = min(min(lhs.prec), min(rhs.prec))
                assert digits >= 4
                assert lhs.reduced(digits).agrees_with(rhs.reduced(digits)), (
                    name, d, k)
    _ok("criterion 6 (splitting fiber identity, points of degree <= 3)")


def test_criterion_7_operator_properties():
    from tadic.dwork import theta0_apply, theta1_apply

    for p in (2, 3, 5, 7):
        prof = PrecisionProfile.create(p, 5, 4, 2, 2)
        verify_theta_formulas(prof, Geometry.AFFINE_LINE)
        verify_theta_formulas(prof, Geometry.TORUS)
    rng = random.Random(7)
    for geom in (Geometry.AFFINE_LINE, Geometry.TORUS):
        prof = PrecisionProfile.create(2, 5, 5, 3, 3, D=16)
        p, b, w = 2, 5, prof.work
        lo = 0 if geom is Geometry.AFFINE_LINE else -3
        for _ in range(100):
            g = XSeries(prof, geom, 16, {
                rng.randrange(lo, 4):
                ZpTSeries.from_ints(p, b, [rng.randrange(p ** w) for _ in range(b)], w)})
            h_exp = rng.randrange(lo, 4)
            hc = ZpTSeries.from_ints(p, b, [rng.randrange(p ** w) for _ in range(b)], w)
            h0 = XSeries(prof, geom, 16, {h_exp: hc})
            h1 = XSeries(prof, geom, 16, {h_exp: hc}, differential=True)
            lhs = theta0_apply(g.frobenius_pullback() * h0)
            rhs = g * theta0_apply(h0)
            for u in set(lhs.coeffs) | set(rhs.coeffs):
                assert lhs.coeff(u).vals == rhs.coeff(u).vals
            lhs = theta1_apply(g.frobenius_pullback() * h1)
            rhs = g * theta1_apply(h1)
            for u in set(lhs.coeffs) | set(rhs.coeffs):
                assert lhs.coeff(u).vals == rhs.coeff(u).vals
    _ok("criterion 7 (semilinearity x100 per geometry; theta trace oracle)")


def test_criterion_8_slope_structure(slope_run):
    run, tower, prof = slope_run
    d = tower.degree
    npoly = newton_polygon(run.c0)
    rep = slope_decomposition(npoly, d)
    assert rep.block_degree == d == 3
    # every analyzed non-provisional slope on model or within its window
    assert all(q in ("exact", "within-window") for q in rep.all_qualities())
    # increment consistency across blocks: every cross-block difference
    # equals r as an exact rational
    slopes = npoly.slope_list()
    nblocks = len(slopes) // d
    assert nblocks >= 2
    for n in range(nblocks - 1):
        for j in range(d):
            assert slopes[(n + 1) * d + j] - slopes[n * d + j] == rep.increment_r
    hodge = hodge_bound_report(npoly, prof.p, d)
    assert hodge["holds"], hodge["violations"]
    # empirical structure: increment p - 1 and residues j/d
    assert rep.increment_r == prof.p - 1
    assert rep.residues == tuple(Fraction(j, d) for j in range(d))
    # the degree cutoff is certified by extending the run to 2D
    ok, info = doubling_check(tower, prof, base=run)
    assert ok, info
    _ok("criterion 8 (slope blocks for p=7, f=x^3: r=6, beta=(0,1/3,2/3))")


def test_criterion_9_artin_hasse(compare_runs, slope_run):
    for p in (2, 3, 5, 7):
        coeffs = artin_hasse_fractions(p, 32)
        assert all(c.denominator % p != 0 for c in coeffs)
        assert coeffs[0] == 1 and coeffs[1] == 1
    profiles = [res.trace.prof for res, _ in compare_runs.values()]
    profiles.append(slope_run[2])
    for prof in profiles:
        pi = pi_from_T(prof)
        units = artin_hasse_units(prof, prof.b - 1)
        acc = ZpTSeries.from_ints(prof.p, prof.b, [units[-1]], prof.work)
        for c in reversed(units[:-1]):
            acc = acc * pi + ZpTSeries.from_ints(prof.p, prof.b, [c], prof.work)
        expect = ZpTSeries.from_ints(prof.p, prof.b, [1, 1], prof.work)
        assert acc.vals == expect.vals
    _ok("criterion 9 (Artin-Hasse integrality to order 32; E(pi) = 1+T)")
