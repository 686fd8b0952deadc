"""Tests for tower inputs and splitting functions."""

import warnings

import pytest

from tadic.errors import UsageError
from tadic.profile import PrecisionProfile
from tadic.series import pi_from_T
from tadic.splitting import (
    TowerInput,
    build_Ef,
    fiber_character_value,
    norm_of_ef_at_orbit,
    splitting_factor,
)
from tadic.unramified import teichmuller_powers
from tadic.xseries import Geometry


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def test_tower_input_normalization():
    t = TowerInput(2, Geometry.AFFINE_LINE, {1: 1, 2: 0, 3: 5})
    assert t.f_coeffs == {1: 1, 3: 1}
    assert t.degree == 3
    with pytest.raises(UsageError):
        TowerInput(2, Geometry.AFFINE_LINE, {-1: 1})
    # a constant term is refused with the substitution that accounts for it;
    # one that vanishes mod p is a zero coefficient like any other
    with pytest.raises(UsageError, match=r"L\(f \+ c, s\) = L\(f, \(1\+T\)\^\[c\] s\)"):
        TowerInput(2, Geometry.AFFINE_LINE, {0: 1, 1: 1})
    assert TowerInput(3, Geometry.TORUS, {0: 3, 1: 1}).f_coeffs == {1: 1}
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        TowerInput(2, Geometry.AFFINE_LINE, {2: 1})
        assert any("divisible by p" in str(w.message) for w in rec)


def test_splitting_factor_zero_coefficient():
    # a coefficient 0 mod p gives the factor 1: the tower drops the monomial
    prof = profile()
    ef = build_Ef(TowerInput(2, Geometry.AFFINE_LINE, {1: 2, 3: 0}), prof)
    assert list(ef.series.coeffs) == [0]
    assert ef.ef(0).vals == (1,) + (0,) * (prof.b - 1)


def test_splitting_factor_single_monomial():
    # E(pi x) = 1 + pi x + E_2 pi^2 x^2 + ...; mod T^2 only 1 + Tx survives
    prof = profile(p=2, a=3, b=8)
    pi = pi_from_T(prof)
    f = splitting_factor(1, 1, prof, Geometry.AFFINE_LINE, 8, pi)
    assert f.coeff(0).vals[0] == 1
    assert f.coeff(1).vals == pi.vals
    # at T = 0 every factor collapses to 1
    for u in f.exponents():
        if u != 0:
            assert f.coeff(u).vals[0] == 0


def test_build_Ef_zero_tower():
    prof = profile()
    t = TowerInput(2, Geometry.AFFINE_LINE, {})
    ef = build_Ef(t, prof)
    assert list(ef.series.coeffs) == [0]
    assert ef.ef(0).vals[0] == 1


def test_build_Ef_single_factor_matches_splitting_factor():
    prof = profile(p=2, a=6, b=6)
    t = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    ef = build_Ef(t, prof)
    pi = pi_from_T(prof)
    factor = splitting_factor(1, 1, prof, Geometry.AFFINE_LINE,
                              ef.series.bound, pi)
    for u in factor.exponents():
        assert ef.ef(u).vals == factor.coeff(u).vals


def test_build_Ef_growth_certificate():
    prof = profile(p=3, a=5, b=6)
    t = TowerInput(3, Geometry.AFFINE_LINE, {1: 1, 2: 2})
    ef = build_Ef(t, prof)
    d = t.degree
    for k in ef.series.exponents():
        v = ef.ef(k).vT()
        assert v.value >= -(-abs(k) // d)
    # specialization at T = 0 is the constant function 1
    assert ef.ef(0).vals[0] == 1
    for k in ef.series.exponents():
        if k != 0:
            assert ef.ef(k).vals[0] == 0


def test_homomorphism_on_disjoint_supports():
    prof = profile(p=2, a=5, b=5)
    t1 = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    t2 = TowerInput(2, Geometry.AFFINE_LINE, {3: 1})
    t12 = TowerInput(2, Geometry.AFFINE_LINE, {1: 1, 3: 1})
    bound = 3 * (prof.b - 1)
    e1 = build_Ef(t1, prof, bound)
    e2 = build_Ef(t2, prof, bound)
    e12 = build_Ef(t12, prof, bound)
    prod = e1.series * e2.series
    for u in e12.series.exponents():
        assert e12.ef(u).agrees_with(prod.coeff(u))


def fiber_points(p, d, geometry, prof):
    """The powers g^0..g^(q-2) of the degree-d Teichmuller generator, and
    the indices of every point of the geometry (None for 0)."""
    points = list(teichmuller_powers(p, d, prof))
    zero = [] if geometry is Geometry.TORUS else [None]
    return points, zero + list(range(len(points)))


def test_fiber_identity_rational_point():
    # E_f at the point 1 = g^0 for f = x equals 1 + T
    prof = profile(p=2, a=6, b=8)
    t = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    ef = build_Ef(t, prof)
    points = list(teichmuller_powers(2, 1, prof))
    lhs = norm_of_ef_at_orbit(ef, points, 0)
    rhs = fiber_character_value(t, points, 0, prof)
    assert lhs.residues(prof.a) == tuple(x % 2 ** prof.a for x in [1, 1] + [0] * 6)
    assert lhs.reduced(prof.a).agrees_with(rhs.reduced(prof.a))


@pytest.mark.parametrize("p,geom,f", [
    (2, Geometry.AFFINE_LINE, {1: 1}),
    (2, Geometry.AFFINE_LINE, {3: 1}),
    (3, Geometry.AFFINE_LINE, {2: 1, 1: 1}),
    (2, Geometry.TORUS, {1: 1, -1: 1}),
    (7, Geometry.TORUS, {3: 1, -2: 2}),
])
def test_fiber_identity_low_degree_points(p, geom, f):
    # the last case has an exponent <= -2 at p >= 5: x^-2 at g^k is
    # g^(-2 k mod (q-1))
    prof = profile(p=p, a=5, b=6)
    tower = TowerInput(p, geom, f)
    ef = build_Ef(tower, prof)
    for d in (1, 2):
        points, ks = fiber_points(p, d, geom, prof)
        for k in ks:
            lhs = norm_of_ef_at_orbit(ef, points, k)
            rhs = fiber_character_value(tower, points, k, prof)
            assert lhs.reduced(prof.a).agrees_with(rhs.reduced(prof.a)), (
                p, geom, d, k)
