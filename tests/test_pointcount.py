"""Tests for the enumeration oracle."""

import ast
import inspect
import random
from collections import Counter

import pytest

from tadic import dwork, pointcount, unramified
from tadic.errors import BudgetError
from tadic.fredholm import char_series
from tadic.pointcount import exp_sum, oracle_lfun
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput, build_Ef
from tadic.unramified import (
    UnramifiedApprox,
    default_modulus,
    field_elements,
    teichmuller_lift,
    unramified_trace,
)
from tadic.xseries import Geometry
from tadic.zp import ZpTSeries, one_plus_T_pow, teichmuller_int


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def test_exp_sum_zero_tower():
    prof = profile()
    t = TowerInput(2, Geometry.AFFINE_LINE, {})
    for d in (1, 2, 3):
        s = exp_sum(t, d, prof)
        assert s.vals[0] == 2 ** d
        assert all(v == 0 for v in s.vals[1:])


def test_exp_sum_two_points_by_hand():
    # f = x over F_2: points 0, 1 have traces 0, 1, so S = 2 + T
    prof = profile()
    t = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    s = exp_sum(t, 1, prof)
    assert s.residues(prof.a) == (2, 1, 0, 0, 0, 0, 0, 0)


def test_exp_sum_degree_two_by_hand():
    # over F_4 the traces of the four points are 0, 2, -1, -1
    prof = profile()
    t = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    s = exp_sum(t, 2, prof)
    assert s.residues(3)[:3] == (4 % 8, 0, 3)


def test_exp_sum_point_counts_mod_T():
    prof = profile(p=3, a=5, b=6, smax=3, dmax=3)
    t = TowerInput(3, Geometry.TORUS, {1: 1, -1: 2})
    _, rep = oracle_lfun(t, prof)
    for d in range(1, 4):
        assert rep.sums[d - 1].vals[0] % 3 ** prof.a == (3 ** d - 1) % 3 ** prof.a
        assert rep.point_counts[d - 1] == 3 ** d - 1


def test_degree_one_direct_cross_check():
    # d = 1: the trace is the identity, so the sum can be recomputed with
    # plain Z_p arithmetic on Teichmuller lifts
    prof = profile(p=5, a=5, b=6)
    tower = TowerInput(5, Geometry.AFFINE_LINE, {2: 3, 1: 1})
    got = exp_sum(tower, 1, prof)
    acc = None
    for c in range(5):
        lift = teichmuller_int(c, 5, prof.work)
        value = sum(teichmuller_int(cu, 5, prof.work) * lift ** u
                    for u, cu in tower.f_coeffs.items())
        term = one_plus_T_pow(value % 5 ** prof.work, prof)
        acc = term if acc is None else acc + term
    assert got.agrees_with(acc)


def power(t, e):
    """t^e in the unramified ring by square and multiply, e >= 0."""
    acc = UnramifiedApprox.one(t.p, t.modulus, t.known)
    while e:
        if e & 1:
            acc = acc * t
        t, e = t * t, e >> 1
    return acc


def f_at(tower, xhat):
    """f at a lifted point, each monomial by its own power: a nonzero
    Teichmuller point has xhat^(q-1) = 1, so x^u for u < 0 is x^(u mod (q-1))."""
    order = xhat.p ** xhat.degree - 1
    acc = xhat * 0
    for u, c in tower.f_coeffs.items():
        xu = power(xhat, u if u >= 0 else u % order)
        acc = acc + xu * teichmuller_int(c, tower.p, xhat.known)
    return acc


def test_galois_pairing_random_points():
    # Frobenius-conjugate points contribute identical summands
    prof = profile(p=3, a=5, b=6, dmax=3)
    tower = TowerInput(3, Geometry.AFFINE_LINE, {2: 1, 1: 2})
    d = 3
    m = default_modulus(3, d)
    rng = random.Random(4)
    for _ in range(5):
        coords = tuple(rng.randrange(3) for _ in range(d))
        x0 = UnramifiedApprox(3, m, coords, prof.work)
        conj = power(x0, 3)
        vals = []
        for pt in (x0, conj):
            xhat = teichmuller_lift(pt, prof)
            tr = unramified_trace(f_at(tower, xhat))
            vals.append(one_plus_T_pow(tr, prof))
        assert vals[0].agrees_with(vals[1])


def test_oracle_lfun_zero_towers():
    prof = profile(p=2, a=6, b=6)
    lf, _ = oracle_lfun(TowerInput(2, Geometry.AFFINE_LINE, {}), prof)
    assert lf.coeff(0).vals[0] == 1
    assert lf.coeff(1).reduced(4).residues(4)[0] == (-2) % 16
    for k in range(2, 5):
        assert lf.coeff(k).reduced(4).is_zero()
    prof3 = profile(p=3, a=5, b=6)
    lf, _ = oracle_lfun(TowerInput(3, Geometry.TORUS, {}), prof3)
    # (1 - 3s)/(1 - s): every coefficient past 0 is -2 as a constant
    for k in range(1, 5):
        assert lf.coeff(k).reduced(3).residues(3)[0] == (-2) % 27
        assert all(v == 0 for v in lf.coeff(k).reduced(3).residues(3)[1:])


def test_oracle_first_coefficient_is_minus_s1():
    prof = profile(p=2, a=6, b=8)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    lf, rep = oracle_lfun(tower, prof)
    minus_s1 = -rep.sums[0]
    assert lf.coeff(1).agrees_with(minus_s1)


def test_budget_guard():
    prof = PrecisionProfile.create(2, 4, 4, 2, 30)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    with pytest.raises(BudgetError):
        exp_sum(tower, 30, prof)


def test_budget_refuses_before_building_a_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trace table was built over budget")
    monkeypatch.setattr(pointcount, "_generator_traces", refuse)
    monkeypatch.setattr(pointcount, "frobenius_orbits", refuse)
    d = 1
    while 2 ** d <= pointcount.POINT_BUDGET:
        d += 1
    prof = PrecisionProfile.create(2, 4, 4, 2, d)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    with pytest.raises(BudgetError):
        exp_sum(tower, d, prof)
    with pytest.raises(BudgetError):
        oracle_lfun(tower, prof)


def exp_sum_per_point(tower, d, prof):
    """Reference: lift every point, evaluate f there, take the trace and
    expand (1+T)^trace, one point at a time."""
    p = tower.p
    modulus = default_modulus(p, d)
    acc = ZpTSeries.zero(p, prof.b, prof.work)
    for coords in field_elements(p, d):
        if tower.geometry is Geometry.TORUS and not any(coords):
            continue
        xhat = teichmuller_lift(UnramifiedApprox(p, modulus, coords, prof.work), prof)
        tr = unramified_trace(f_at(tower, xhat))
        acc = acc + one_plus_T_pow(tr, prof)
    return acc


def random_tower(p, geometry, seed):
    """Sparse Laurent f with one to three monomials of |degree| <= 5."""
    rng = random.Random(seed)
    lo = 1 if geometry is Geometry.AFFINE_LINE else -5
    exps = [u for u in range(lo, 6) if u != 0]
    return TowerInput(p, geometry, {u: rng.randrange(1, p)
                                    for u in rng.sample(exps, rng.randint(1, 3))})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("geometry", [Geometry.AFFINE_LINE, Geometry.TORUS])
def test_exp_sum_matches_per_point_enumeration(p, geometry):
    prof = profile(p=p, a=4, b=5, smax=3, dmax=3)
    for seed in range(2):
        tower = random_tower(p, geometry, seed)
        for d in range(1, 4):
            got = exp_sum(tower, d, prof)
            want = exp_sum_per_point(tower, d, prof)
            assert (got.vals, got.prec) == (want.vals, want.prec), (tower.f_coeffs, d)


def test_order_test_runs_once_per_modulus(monkeypatch):
    calls = Counter()
    order_test = unramified.is_primitive_mod_p

    def spy(modulus, p):
        calls[p, tuple(modulus)] += 1
        return order_test(modulus, p)

    monkeypatch.setattr(unramified, "is_primitive_mod_p", spy)
    unramified._primitive.cache_clear()
    default_modulus.cache_clear()
    prof = profile(p=3, a=4, b=5, smax=3, dmax=4)
    oracle_lfun(TowerInput(3, Geometry.TORUS, {2: 1, -1: 2}), prof)
    assert calls and max(calls.values()) == 1


def test_oracle_imports_nothing_of_the_trace_route():
    banned = {"dwork", "char_series", "build_Ef"}
    for node in ast.walk(ast.parse(inspect.getsource(pointcount))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {a.name.split(".")[-1] for a in node.names}
            module = getattr(node, "module", None) or ""
            assert not banned & (names | set(module.split("."))), ast.dump(node)
    for value in vars(pointcount).values():
        assert value is not dwork and value is not char_series and value is not build_Ef
        assert getattr(value, "__module__", "") != "tadic.dwork"
