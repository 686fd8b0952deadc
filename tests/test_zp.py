"""Tests for truncated Z_p and Z_p[[T]] arithmetic."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadic.errors import PrecisionError, UsageError
from tadic.profile import PrecisionProfile, default_guard, vp_factorial
from tadic.zp import ZpTSeries, divexact, one_plus_T_pow, teichmuller_int


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def test_profile_validation():
    with pytest.raises(UsageError):
        PrecisionProfile.create(4, 6, 8, 4, 4)
    prof = profile()
    assert prof.work == 6 + default_guard(2, 8, 4, 4)
    assert prof.with_D(30).guard == prof.guard
    assert vp_factorial(8, 2) == 7


def test_zp_precision_min_rule():
    p, b = 2, 3
    x = ZpTSeries(p, b, [5, 1, 2], [6, 6, 6])
    y = ZpTSeries(p, b, [3, 1, 1], [4, 6, 6])
    assert (x + y).prec == (4, 6, 6)
    assert (x - y).prec == (4, 6, 6)
    assert (x * y).prec == (4, 4, 4)


def test_zp_divexact():
    # 12 = 4 * 3 mod 2^6: dividing by 4 spends two digits, by 3 none
    assert divexact(2, 12, 6, 4) == (3, 4)
    assert divexact(2, 12, 6, 3) == (4, 6)
    assert divexact(3, -6, 4, 6) == (-1 % 27, 3)
    with pytest.raises(ZeroDivisionError):
        divexact(2, 12, 6, 0)


def test_zp_divexact_refuses_lost_digits():
    # not divisible at the known precision
    with pytest.raises(PrecisionError, match="not divisible"):
        divexact(2, 1, 6, 2)
    with pytest.raises(PrecisionError, match="not divisible"):
        divexact(3, 3, 5, 9)
    # dividing by p^v leaves no digit of a residue known to v digits
    with pytest.raises(PrecisionError, match="exhausts"):
        divexact(2, 0, 4, 16)
    with pytest.raises(PrecisionError, match="exhausts"):
        divexact(5, 25, 2, 50)


@given(st.data(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 8), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_tseries_divexact_matches_fractions(data, p, b, v):
    # the coefficients are p^v times anything, so they divide by n = p^v u
    unit = data.draw(st.integers(1, 50).filter(lambda u: u % p))
    n = data.draw(st.sampled_from([1, -1])) * p ** v * unit
    prec = data.draw(st.lists(st.integers(v + 1, 12), min_size=b, max_size=b))
    vals = [data.draw(st.integers(0, p ** k)) * p ** v for k in prec]
    got = ZpTSeries(p, b, vals, prec).divexact(n)
    for j, (x, k) in enumerate(zip(vals, prec)):
        q, m = Fraction(x % p ** k, n), p ** (k - v)
        assert got.prec[j] == k - v
        assert got.vals[j] == q.numerator * pow(q.denominator, -1, m) % m


def test_teichmuller_int_examples():
    # fixed point of x -> x^3 above 2 is -1
    assert teichmuller_int(2, 3, 3) == 26
    assert teichmuller_int(0, 2, 10) == 0
    t = teichmuller_int(3, 5, 8)
    assert pow(t, 5, 5 ** 8) == t
    assert t % 5 == 3


def test_tseries_ring_ops():
    p, b = 2, 6
    prof = profile()
    w = prof.work
    x = ZpTSeries.from_ints(p, b, [1, 2, 3], w)
    y = ZpTSeries.from_ints(p, b, [0, 1], w)
    assert (x + y).vals[:3] == (1, 3, 3)
    prod = x * y
    assert prod.vals[:4] == (0, 1, 2, 3)
    assert prod.prec == (w,) * b


def schoolbook(x, y):
    """Reference product: the double loop over coefficient pairs, each
    pair known to the lesser precision of its two factors."""
    p, b = x.p, x.b
    vals, prec = [0] * b, [None] * b
    for i in range(b):
        for j in range(b - i):
            vals[i + j] += x.vals[i] * y.vals[j]
            k = min(x.prec[i], y.prec[j])
            prec[i + j] = k if prec[i + j] is None else min(prec[i + j], k)
    return ZpTSeries(p, b, vals, prec)


@st.composite
def tseries(draw, p, b):
    """A series with an arbitrary, non-monotone precision vector."""
    prec = draw(st.lists(st.integers(1, 12), min_size=b, max_size=b))
    vals = [draw(st.integers(0, p ** k - 1)) for k in prec]
    return ZpTSeries(p, b, vals, prec)


@given(st.data(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_tseries_mul_matches_schoolbook(data, p, b):
    x, y = data.draw(tseries(p, b)), data.draw(tseries(p, b))
    got, want = x * y, schoolbook(x, y)
    assert (got.vals, got.prec) == (want.vals, want.prec)


def test_tseries_vT():
    p, b, w = 2, 8, 10
    s = ZpTSeries.from_ints(p, b, [0, 0, 0, 1, 0, 2], w)
    assert s.vT() == (3, True)
    z = ZpTSeries.zero(p, b, w)
    v = z.vT()
    assert v.value == b and not v.exact


@given(st.integers(0, 2 ** 15 - 1), st.integers(0, 2 ** 15 - 1), st.integers(0, 2 ** 15 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    p, b, w = 2, 5, 15
    sx = ZpTSeries.from_ints(p, b, [x, y, z, x, y], w)
    sy = ZpTSeries.from_ints(p, b, [z, x, 1 + y, z, x], w)
    sz = ZpTSeries.from_ints(p, b, [y, 1, z, x, 1], w)
    assert ((sx + sy) + sz).vals == (sx + (sy + sz)).vals
    assert (sx * sy).vals == (sy * sx).vals
    assert ((sx * sy) * sz).vals == (sx * (sy * sz)).vals
    assert (sx * (sy + sz)).vals == (sx * sy + sx * sz).vals


def test_one_plus_T_pow_trivial():
    prof = profile(p=2, a=6, b=4)
    w = prof.work
    assert one_plus_T_pow(0, prof).vals == (1, 0, 0, 0)
    s = one_plus_T_pow(2, prof)
    assert s.residues(4) == (1, 2, 1, 0)
    s = one_plus_T_pow(-1 % 2 ** w, prof)
    assert s.residues(4) == tuple(x % 2 ** 4 for x in (1, -1, 1, -1))


def test_one_plus_T_pow_exponent_one():
    # (1+T)^1 is 1 + T on the nose
    for p in (2, 3, 5):
        prof = profile(p=p, a=6, b=6)
        s = one_plus_T_pow(1, prof)
        assert s.vals == (1, 1, 0, 0, 0, 0)


def test_one_plus_T_pow_precision_report():
    prof = profile(p=2, a=6, b=8)
    w = prof.work
    s = one_plus_T_pow(5, prof)
    for k in range(8):
        assert s.prec[k] == w - vp_factorial(k, 2)


@given(st.data(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200, deadline=None)
def test_one_plus_T_pow_matches_comb(data, p):
    # C(t, k) for an integer 0 <= t < p^w, known to w - v_p(k!) digits
    prof = profile(p=p, a=data.draw(st.integers(1, 6)), b=data.draw(st.integers(1, 12)))
    w = prof.work
    t = data.draw(st.integers(0, p ** w - 1))
    s = one_plus_T_pow(t, prof)
    for k in range(prof.b):
        assert s.prec[k] == w - vp_factorial(k, p)
        assert s.vals[k] == math.comb(t, k) % p ** s.prec[k]


def test_one_plus_T_pow_character_property():
    prof = profile(p=3, a=5, b=6)
    w = prof.work
    rng = random.Random(11)
    for _ in range(10):
        c1 = rng.randrange(3 ** w)
        c2 = rng.randrange(3 ** w)
        lhs = one_plus_T_pow((c1 + c2) % 3 ** w, prof)
        rhs = one_plus_T_pow(c1, prof) * one_plus_T_pow(c2, prof)
        assert lhs.agrees_with(rhs)


def test_one_plus_T_pow_exhaustion():
    # v_2(7!) = 4 digits of loss cannot fit in 4 known digits; a profile
    # always has a guard that covers it, so the working precision is set by hand
    prof = SimpleNamespace(p=2, b=8, work=4)
    with pytest.raises(PrecisionError):
        one_plus_T_pow(5, prof)
