"""Tests for the canonical Dwork operators and nuclear matrices."""

import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from tadic import dwork
from tadic.dwork import (
    assemble_matrix,
    basis_exponents,
    theta0_apply,
    theta0_trace_oracle,
    theta1_apply,
    theta1_trace_oracle,
    verify_theta_formulas,
)
from tadic.errors import CertificateError
from tadic.pipeline import run_compare
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput, build_Ef
from tadic.xseries import Geometry, XSeries
from tadic.zp import ZpTSeries


def profile(p=2, a=6, b=8, smax=4, dmax=4, D=None, degree=1):
    return PrecisionProfile.create(p, a, b, smax, dmax, D=D, degree=degree)


def test_theta0_monomials():
    prof = profile()
    g = XSeries.monomial(prof, Geometry.AFFINE_LINE, 8, 4)
    out = theta0_apply(g)
    assert list(out.coeffs) == [2]
    assert out.coeff(2).vals[0] == 2
    assert not theta0_apply(XSeries.monomial(prof, Geometry.AFFINE_LINE, 8, 3)).coeffs
    one = theta0_apply(XSeries.one(prof, Geometry.AFFINE_LINE, 8))
    assert one.coeff(0).vals[0] == 2


def test_theta1_monomials():
    # x^2 dx/x = x dx goes to x dx/x = dx, and x dx/x = dx to 0
    prof = profile()
    g = XSeries.monomial(prof, Geometry.AFFINE_LINE, 8, 2, differential=True)
    out = theta1_apply(g)
    assert list(out.coeffs) == [1]
    assert out.coeff(1).vals[0] == 1
    assert not theta1_apply(
        XSeries.monomial(prof, Geometry.AFFINE_LINE, 8, 1, differential=True)
    ).coeffs
    t = theta1_apply(XSeries.monomial(prof, Geometry.TORUS, 8, 0, differential=True))
    assert list(t.coeffs) == [0] and t.coeff(0).vals[0] == 1


def test_theta_against_trace_oracle():
    # the closed index formulas must match the multiplication-matrix trace
    for p in (2, 3, 5):
        prof = profile(p=p, a=5, b=4)
        for geometry in (Geometry.AFFINE_LINE, Geometry.TORUS):
            verify_theta_formulas(prof, geometry)
    assert theta0_trace_oracle(2, 4) == {2: 2}
    assert theta0_trace_oracle(2, 3) == {}
    assert theta0_trace_oracle(3, 0) == {0: 3}
    assert theta1_trace_oracle(2, 2) == {1: 1}
    assert theta1_trace_oracle(2, 1) == {}
    assert theta1_trace_oracle(2, 0) == {0: 1}
    assert theta1_trace_oracle(2, -2) == {-1: 1}


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("geometry", [Geometry.AFFINE_LINE, Geometry.TORUS])
def test_theta_gate_checks_the_rule_the_matrices_use(monkeypatch, i, geometry):
    # plant an off-by-one in the exponents of psi_i's entry rule: the gate,
    # and so every assembly of psi_i, must refuse it
    rule = dwork.psi_entries

    def shifted(coeffs, j, prof, exps):
        return rule(coeffs, j, prof, [u + (j == i) for u in exps])

    monkeypatch.setattr(dwork, "psi_entries", shifted)
    prof = profile(p=3, a=5, b=4)
    with pytest.raises(CertificateError, match=f"theta{i} disagrees"):
        verify_theta_formulas(prof, geometry)
    ef = build_Ef(TowerInput(3, geometry, {1: 1}), prof)
    with pytest.raises(CertificateError):
        assemble_matrix(ef, i, prof)


def test_theta0_semilinearity():
    # theta0(sigma(g) h) = g theta0(h)
    prof = profile(p=2, a=5, b=5, D=12)
    rng = random.Random(13)
    w = prof.work
    for _ in range(20):
        g = XSeries(prof, Geometry.AFFINE_LINE, 12, {
            u: ZpTSeries.from_ints(2, 5, [rng.randrange(2 ** w) for _ in range(5)], w)
            for u in rng.sample(range(0, 4), 2)
        })
        h = XSeries(prof, Geometry.AFFINE_LINE, 12, {
            u: ZpTSeries.from_ints(2, 5, [rng.randrange(2 ** w) for _ in range(5)], w)
            for u in rng.sample(range(0, 4), 2)
        })
        lhs = theta0_apply(g.frobenius_pullback() * h)
        rhs = g * theta0_apply(h)
        for u in set(lhs.coeffs) | set(rhs.coeffs):
            assert lhs.coeff(u).agrees_with(rhs.coeff(u))


def test_theta0_commutes_with_pth_power_multiplication():
    prof = profile(p=3, a=5, b=5, D=15)
    h = XSeries(prof, Geometry.AFFINE_LINE, 15, {
        u: ZpTSeries.from_ints(3, 5, [u + 1, 1], prof.work) for u in range(5)
    })
    xp = XSeries.monomial(prof, Geometry.AFFINE_LINE, 15, 3)
    x1 = XSeries.monomial(prof, Geometry.AFFINE_LINE, 15, 1)
    lhs = theta0_apply(xp * h)
    rhs = x1 * theta0_apply(h)
    for u in set(lhs.coeffs) | set(rhs.coeffs):
        assert lhs.coeff(u).agrees_with(rhs.coeff(u))


def test_assemble_matrix_zero_tower_affine():
    prof = profile(p=2, a=6, b=8, D=2)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {})
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    assert m0.size == 3
    for v in range(3):
        for u in range(3):
            val = m0.entries[v][u]
            if (v, u) in ((0, 0), (1, 2)):
                assert val.vals[0] == 2 and all(x == 0 for x in val.vals[1:])
            else:
                assert val.is_zero()
    m1 = assemble_matrix(ef, 1, prof)
    assert m1.size == 2
    for v in range(2):
        for u in range(2):
            expect = 1 if 2 * (v + 1) == u + 1 else 0
            assert m1.entries[v][u].vals[0] == expect


def test_assemble_matrix_zero_tower_torus():
    prof = profile(p=2, a=6, b=6, D=3)
    tower = TowerInput(2, Geometry.TORUS, {})
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    assert m0.size == 7
    # only entries with 2v = u survive, scaled by p
    for v in range(7):
        for u in range(7):
            ev, eu = m0.exponent(v), m0.exponent(u)
            expect = 2 if 2 * ev == eu else 0
            assert m0.entries[v][u].vals[0] == expect
    m1 = assemble_matrix(ef, 1, prof)
    for v in range(7):
        for u in range(7):
            ev, eu = m1.exponent(v), m1.exponent(u)
            expect = 1 if 2 * ev == eu else 0
            assert m1.entries[v][u].vals[0] == expect


def test_assemble_matrix_mod_T_matches_theta(subtests=None):
    prof = profile(p=2, a=5, b=6, D=9, degree=3)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {3: 1})
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    zero_tower_ef = build_Ef(TowerInput(2, Geometry.AFFINE_LINE, {}), prof)
    z0 = assemble_matrix(zero_tower_ef, 0, prof)
    for v in range(m0.size):
        for u in range(m0.size):
            assert m0.entries[v][u].vals[0] == z0.entries[v][u].vals[0]


def test_matrix_entries_are_splitting_coefficients():
    # entry(v, u) = p * ef(p v - u) on functions
    prof = profile(p=3, a=5, b=6, D=8, degree=2)
    tower = TowerInput(3, Geometry.AFFINE_LINE, {2: 1, 1: 2})
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    for v in range(m0.size):
        for u in range(m0.size):
            j = 3 * v - u
            expect = ef.ef(j).scale(3) if j >= 0 else None
            got = m0.entries[v][u]
            if expect is None:
                assert got.is_zero()
            else:
                assert got.vals == expect.vals
    m1 = assemble_matrix(ef, 1, prof)
    for v in range(m1.size):
        for u in range(m1.size):
            j = 3 * (v + 1) - (u + 1)
            if j >= 0:
                assert m1.entries[v][u].vals == ef.ef(j).vals
            else:
                assert m1.entries[v][u].is_zero()


def test_nuclear_decay_bound():
    prof = profile(p=2, a=5, b=6, D=9, degree=3)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {3: 1})
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    d = tower.degree
    for v in range(m0.size):
        for u in range(m0.size):
            j = 2 * v - u
            if j > 0:
                assert m0.entries[v][u].vT().value >= -(-j // d)


def test_basis_sizes():
    assert basis_exponents(Geometry.AFFINE_LINE, 0, 5) == (0, 6)
    assert basis_exponents(Geometry.AFFINE_LINE, 1, 5) == (1, 5)
    assert basis_exponents(Geometry.TORUS, 0, 5) == (-5, 11)
    assert basis_exponents(Geometry.TORUS, 1, 5) == (-5, 11)


@pytest.mark.parametrize("p,geometry,f,D", [
    (2, Geometry.AFFINE_LINE, {3: 1, 1: 1}, 4),
    (3, Geometry.AFFINE_LINE, {2: 1, 1: 2}, 5),
    (5, Geometry.AFFINE_LINE, {4: 1}, 5),
    (2, Geometry.TORUS, {1: 1, -1: 1}, 3),
    (3, Geometry.TORUS, {2: 2, -1: 1}, 3),
    (7, Geometry.TORUS, {2: 1, -1: 4}, 7),
])
def test_psi0_is_p_times_psi1_on_the_exponents_of_psi1(p, geometry, f, D):
    # in the bases x^u and x^u dx/x the two entry rules differ by the
    # factor p only; on the affine line psi_0 has the extra row and
    # column x^0, whose row is (p E_f[0], 0, ..., 0)
    tower = TowerInput(p, geometry, f)
    prof = profile(p=p, a=4, b=6, D=D, degree=tower.degree)
    ef = build_Ef(tower, prof)
    m0, m1 = assemble_matrix(ef, 0, prof), assemble_matrix(ef, 1, prof)
    at0 = {m0.exponent(k): k for k in range(m0.size)}
    for v in range(m1.size):
        for u in range(m1.size):
            e0 = m0.entries[at0[m1.exponent(v)]][at0[m1.exponent(u)]]
            e1 = m1.entries[v][u].scale(p)
            assert (e0.vals, e0.prec) == (e1.vals, e1.prec), (v, u)
    extra = sorted(set(at0) - {m1.exponent(k) for k in range(m1.size)})
    if geometry is Geometry.TORUS:
        assert extra == []
    else:
        assert extra == [0]
        row = m0.entries[at0[0]]
        assert (row[0].vals, row[0].prec) == (ef.ef(0).scale(p).vals, ef.ef(0).prec)
        assert all(e.is_zero() for e in row[1:])


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("geometry", [Geometry.AFFINE_LINE, Geometry.TORUS])
def test_matrix_certificates_catch_planted_entries(i, geometry):
    # on basis exponents (v, u) the entry sits at E_f[3 v - u], d = 2:
    # (2, 1) must decay to T^3, (1, 3) is x^0 of E_f, and on the affine
    # line (1, 4) is E_f[-1] = 0
    p = 3
    prof = profile(p=p, a=4, b=6, D=6, degree=2)
    ef = build_Ef(TowerInput(p, geometry, {2: 1}), prof)
    mat = assemble_matrix(ef, i, prof)
    at = {mat.exponent(k): k for k in range(mat.size)}
    w = prof.work
    plants = [((2, 1), ZpTSeries.from_ints(p, prof.b, [0, 1], w), "decay bound"),
              ((1, 3), mat.entries[at[1]][at[3]] + ZpTSeries.one(p, prof.b, w), "mod T is")]
    if geometry is Geometry.AFFINE_LINE:
        plants.append(((1, 4), ZpTSeries.from_ints(p, prof.b, [0, 0, 0, 0, 0, 1], w),
                       "should vanish"))
    dwork._check_matrix_certificates(mat)
    for (v, u), e, message in plants:
        entries = [row[:] for row in mat.entries]
        entries[at[v]][at[u]] = e
        with pytest.raises(CertificateError, match=message):
            dwork._check_matrix_certificates(replace(mat, entries=entries))


def column_path_matrix(ef, i, prof):
    """Reference assembly: column u is theta_i(E_f x^u), computed as an
    XSeries product followed by theta, over a window wide enough for
    theta to pull back from exponents up to p * D."""
    geometry = ef.series.geometry
    offset, size = basis_exponents(geometry, i, prof.D)
    window = max(prof.p * prof.D, ef.series.bound, prof.D) + 1
    ef_wide = XSeries(prof, geometry, window, dict(ef.series.coeffs))
    theta = theta0_apply if i == 0 else theta1_apply
    zero = ZpTSeries.zero(prof.p, prof.b, prof.work)
    cols = []
    for u in range(offset, offset + size):
        mono = XSeries.monomial(prof, geometry, window, u, differential=(i == 1))
        image = theta(ef_wide * mono)
        cols.append([image.coeffs.get(v, zero) for v in range(offset, offset + size)])
    return [[cols[u][v] for u in range(size)] for v in range(size)]


@pytest.mark.parametrize("p,geometry,f,b,D", [
    (2, Geometry.AFFINE_LINE, {3: 1, 1: 1}, 8, 4),     # p D = 8 < E_f bound 21
    (2, Geometry.TORUS, {1: 1, -1: 1}, 6, 6),          # p D = 12 > E_f bound 5
    (3, Geometry.AFFINE_LINE, {2: 1, 1: 2}, 6, 5),     # p D = 15 > E_f bound 10
    (3, Geometry.TORUS, {2: 2, -1: 1}, 5, 3),
    (5, Geometry.AFFINE_LINE, {4: 1}, 8, 5),           # p D = 25 < E_f bound 28
    (5, Geometry.TORUS, {1: 3, -2: 1}, 5, 6),
    (7, Geometry.AFFINE_LINE, {3: 1}, 10, 8),
    (7, Geometry.TORUS, {2: 1, -1: 4}, 4, 7),
])
def test_assemble_matrix_matches_column_path(p, geometry, f, b, D):
    # the lookup must reproduce theta_i(E_f x^u) in vals and in prec
    tower = TowerInput(p, geometry, f)
    prof = profile(p=p, a=4, b=b, D=D, degree=tower.degree)
    ef = build_Ef(tower, prof)
    for i in (0, 1):
        got = assemble_matrix(ef, i, prof).entries
        want = column_path_matrix(ef, i, prof)
        assert [[(e.vals, e.prec) for e in row] for row in got] == \
            [[(e.vals, e.prec) for e in row] for row in want], (p, geometry, i)


def test_theta_gate_independent_of_precision_and_history():
    # at a = 1 theta0's factor p vanishes mod p^a on both sides of the
    # gate; the verdict must not depend on what ran earlier in the process
    code = ("from tadic.pipeline import run_trace_formula\n"
            "from tadic.profile import PrecisionProfile\n"
            "from tadic.splitting import TowerInput\n"
            "from tadic.xseries import Geometry\n"
            "run_trace_formula(TowerInput(2, Geometry.AFFINE_LINE, {1: 1}),\n"
            "                  PrecisionProfile.create(2, 1, 4, 2, 2))\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    fresh = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    for geometry in (Geometry.AFFINE_LINE, Geometry.TORUS):
        for a in (1, 6, 1):
            for p in (2, 3):
                verify_theta_formulas(profile(p=p, a=a, b=4, smax=2, dmax=2), geometry)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    for a in (1, 6, 1):
        assert run_compare(tower, profile(p=2, a=a, b=4, smax=2, dmax=2)).verdict.agree
