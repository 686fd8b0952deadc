"""Tests for the exponential of an s-series (the recurrence inside
`l_from_traces`, which assembles exp(-sum S_d s^d / d)), the Artin-Hasse
exponential, pi, and XSeries."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadic import series
from tadic.errors import CertificateError
from tadic.fredholm import l_from_traces
from tadic.profile import PrecisionProfile
from tadic.series import artin_hasse_fractions, artin_hasse_units, pi_from_T
from tadic.xseries import Geometry, XSeries
from tadic.zp import ZpTSeries


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def exp_of(p, b, w, rows):
    """exp(sum_{d >= 1} g_d s^d) for g_d given as rows of T-coefficients,
    through l_from_traces with power sums S_d = -d g_d."""
    sums = [ZpTSeries.from_ints(p, b, [-d * x for x in row], w)
            for d, row in enumerate(rows, start=1)]
    return l_from_traces(sums, len(rows)).coeffs


def test_series_exp_trivial_and_plain():
    p, b, w = 5, 4, 10
    e = exp_of(p, b, w, [[0]] * 3)
    assert e[0].vals[0] == 1 and all(c.is_zero() for c in e[1:])
    # exp(s) = 1 + s + s^2/2 + s^3/6 for p >= 5
    e = exp_of(p, b, w, [[1], [0], [0]])
    inv2 = pow(2, -1, 5 ** w)
    inv6 = pow(6, -1, 5 ** w)
    assert e[0].vals[0] == 1
    assert e[1].vals[0] == 1
    assert e[2].vals[0] == inv2
    assert e[3].vals[0] == inv6


def test_exp_of_minus_geometric_is_linear():
    # exp(-sum (ps)^d / d) = 1 - ps, i.e. power sums S_d = p^d
    p, b, w = 2, 4, 12
    order = 6
    sums = [ZpTSeries.from_ints(p, b, [pow(p, d)], w) for d in range(1, order + 1)]
    e = l_from_traces(sums, order).coeffs
    assert e[0].agrees_with(ZpTSeries.from_ints(p, b, [1], w))
    assert e[1].agrees_with(ZpTSeries.from_ints(p, b, [-p], w))
    for k in range(2, order + 1):
        assert e[k].reduced(4).is_zero()


def test_exp_homomorphism_random():
    # exp(g1 + g2) = exp(g1) exp(g2); coefficients in pZ keep exp integral
    p, b, w = 3, 4, 12
    rng = random.Random(23)
    for _ in range(8):
        r1 = [[3 * rng.randrange(3 ** 6) for _ in range(b)] for _ in range(4)]
        r2 = [[3 * rng.randrange(3 ** 6) for _ in range(b)] for _ in range(4)]
        r12 = [[x + y for x, y in zip(u, v)] for u, v in zip(r1, r2)]
        lhs = exp_of(p, b, w, r12)
        e1, e2 = exp_of(p, b, w, r1), exp_of(p, b, w, r2)
        for k in range(5):
            rhs = e1[0] * e2[k]
            for j in range(1, k + 1):
                rhs = rhs + e1[j] * e2[k - j]
            assert lhs[k].agrees_with(rhs)


def test_derivative_recurrence_identity():
    # D(exp g) - (exp g) D(g) = 0 termwise
    p, b, w = 2, 4, 12
    rng = random.Random(41)
    rows = [[4 * rng.randrange(2 ** 6) for _ in range(b)] for _ in range(5)]
    g = [ZpTSeries.zero(p, b, w)] + [ZpTSeries.from_ints(p, b, r, w) for r in rows]
    h = exp_of(p, b, w, rows)
    for k in range(len(rows)):
        lhs = h[k + 1].scale(k + 1)
        rhs = ZpTSeries.zero(p, b, w)
        for j in range(1, k + 2):
            rhs = rhs + g[j].scale(j) * h[k + 1 - j]
        assert lhs.agrees_with(rhs)


def test_artin_hasse_fractions_known_values():
    # E(t) = 1 + t + t^2 + 2t^3/3 + ... for p = 2
    h = artin_hasse_fractions(2, 4)
    assert h[0] == 1 and h[1] == 1 and h[2] == 1
    assert h[3] == Fraction(2, 3)
    assert h[4] == Fraction(2, 3)


def test_artin_hasse_reduced_example():
    prof = profile(p=2, a=3, b=4)
    e = artin_hasse_units(prof, 4)
    assert [c % 8 for c in e] == [1, 1, 1, 6, 6]


def test_artin_hasse_integrality_to_32():
    for p in (2, 3, 5, 7):
        h = artin_hasse_fractions(p, 32)
        assert all(c.denominator % p != 0 for c in h)
        assert h[0] == 1 and h[1] == 1


def test_pi_examples():
    for p in (2, 3, 5):
        prof = profile(p=p, a=6, b=6)
        pi = pi_from_T(prof)
        assert pi.vals[0] == 0
        assert pi.vals[1] == 1
    prof = profile(p=2, a=6, b=6)
    pi = pi_from_T(prof)
    # reversion of E(t) = 1 + t + t^2 + ... gives pi = T - T^2 + O(T^3)
    assert pi.vals[2] == (-1) % 2 ** prof.work


def test_pi_round_trip_profiles():
    for (p, a, b) in [(2, 6, 8), (3, 6, 8), (5, 6, 8), (7, 6, 12), (2, 4, 5)]:
        prof = PrecisionProfile.create(p, a, b, 4, 4)
        pi = pi_from_T(prof)
        units = artin_hasse_units(prof, b - 1)
        acc = ZpTSeries.from_ints(p, b, [units[-1]], prof.work)
        for c in reversed(units[:-1]):
            acc = acc * pi + ZpTSeries.from_ints(p, b, [c], prof.work)
        expect = ZpTSeries.from_ints(p, b, [1, 1], prof.work)
        assert acc.vals == expect.vals


PI_ORDER = 16


@lru_cache(maxsize=None)
def lagrange_pi(p):
    """Reference pi over Q by Lagrange inversion of E(t) - 1:
    [T^n] pi = (1/n) [t^(n-1)] (t / (E(t) - 1))^n, for n < PI_ORDER.
    It shares no code with `pi_from_T` beyond the Artin-Hasse fractions."""
    e = artin_hasse_fractions(p, PI_ORDER)
    # q = t / (E(t) - 1) = 1 / (1 + e_2 t + e_3 t^2 + ...)
    q = [Fraction(1)]
    for n in range(1, PI_ORDER):
        q.append(-sum(e[j + 1] * q[n - j] for j in range(1, n + 1)))
    out = [Fraction(0)] * PI_ORDER
    qn = [Fraction(1)] + [Fraction(0)] * (PI_ORDER - 1)
    for n in range(1, PI_ORDER):
        qn = [sum(qn[i] * q[k - i] for i in range(k + 1)) for k in range(PI_ORDER)]
        out[n] = qn[n - 1] / n
    assert all(c.denominator % p for c in out)
    return out


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, PI_ORDER), st.integers(1, 6))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_pi_matches_lagrange_inversion(p, b, a):
    prof = PrecisionProfile.create(p, a, b, 4, 4)
    m = p ** prof.work
    want = tuple(c.numerator * pow(c.denominator, -1, m) % m for c in lagrange_pi(p)[:b])
    pi = pi_from_T(prof)
    assert (pi.vals, pi.prec) == (want, (prof.work,) * b)


def test_pi_certificate_runs_once_and_can_fail(monkeypatch):
    real = series._eval_poly_at_series
    calls = []

    def counted(units, x, w):
        calls.append(w)
        return real(units, x, w)

    monkeypatch.setattr(series, "_eval_poly_at_series", counted)
    prof = profile(p=3, a=6, b=8)
    pi_from_T(prof)
    assert calls == [prof.work]

    def perturbed(units, x, w):
        # E(pi) off by p^(w-1) T^(b-1): a fault in the last digit of the last coefficient
        return real(units, x, w) + ZpTSeries.from_ints(
            x.p, x.b, [0] * (x.b - 1) + [x.p ** (w - 1)], w)

    monkeypatch.setattr(series, "_eval_poly_at_series", perturbed)
    with pytest.raises(CertificateError, match=r"E\(pi\)"):
        pi_from_T(prof)


def test_xseries_mul():
    prof = profile()
    one = XSeries.one(prof, Geometry.AFFINE_LINE, 4)
    x = XSeries.monomial(prof, Geometry.AFFINE_LINE, 4, 1)
    h = XSeries(prof, Geometry.AFFINE_LINE, 4,
                {0: ZpTSeries.from_ints(2, 8, [1, 1], prof.work),
                 2: ZpTSeries.one(2, 8, prof.work)})
    assert (one * h).coeffs.keys() == h.coeffs.keys()
    xx = x * x
    assert list(xx.coeffs) == [2]
    # torus: x^-1 * x = 1
    t = XSeries.monomial(prof, Geometry.TORUS, 4, -1) * XSeries.monomial(prof, Geometry.TORUS, 4, 1)
    assert list(t.coeffs) == [0]
    # truncation discards out-of-range exponents
    top = XSeries.monomial(prof, Geometry.AFFINE_LINE, 4, 4)
    assert not (top * x).coeffs


def test_xseries_geometry_mismatch():
    prof = profile()
    a = XSeries.one(prof, Geometry.AFFINE_LINE, 4)
    t = XSeries.one(prof, Geometry.TORUS, 4)
    with pytest.raises(ValueError):
        a * t
    with pytest.raises(ValueError):
        XSeries.monomial(prof, Geometry.AFFINE_LINE, 4, -1)
