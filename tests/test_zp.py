"""Tests for truncated Z_p and Z_p[[T]] arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadic.errors import PrecisionError, UsageError
from tadic.profile import PrecisionProfile, default_guard, vp_factorial
from tadic.zp import ZpApprox, ZpTSeries, one_plus_T_pow, teichmuller_int


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def test_profile_validation():
    with pytest.raises(UsageError):
        PrecisionProfile.create(4, 6, 8, 4, 4)
    with pytest.raises(UsageError):
        PrecisionProfile(p=2, a=6, b=8, D=12, smax=4, dmax=4, guard=0)
    prof = profile()
    assert prof.work == 6 + default_guard(2, 8, 4, 4)
    assert vp_factorial(8, 2) == 7


def test_zp_basic_arithmetic():
    p = 3
    x = ZpApprox(p, 7, 5)
    y = ZpApprox(p, 11, 5)
    assert (x + y).residue == 18
    assert (x * y).residue == 77 % 3 ** 5
    assert (x - y).residue == (7 - 11) % 3 ** 5
    assert (x + 2).residue == 9
    assert (-x).residue == (-7) % 3 ** 5


def test_zp_precision_min_rule():
    p = 2
    x = ZpApprox(p, 5, 6)
    y = ZpApprox(p, 3, 4)
    assert (x + y).known == 4
    assert (x * y).known == 4


def test_zp_divexact():
    p = 2
    x = ZpApprox(p, 12, 6)
    q = x.divexact(4)
    assert q.residue == 3 and q.known == 4
    q = x.divexact(3)
    assert q.residue == 4 % 2 ** 6 and q.known == 6
    with pytest.raises(PrecisionError):
        ZpApprox(p, 1, 6).divexact(2)


def test_teichmuller_int_examples():
    # fixed point of x -> x^3 above 2 is -1
    t = teichmuller_int(2, 3, 3)
    assert t.residue == 26
    assert teichmuller_int(0, 2, 10).residue == 0
    t = teichmuller_int(3, 5, 8)
    assert pow(t.residue, 5, 5 ** 8) == t.residue
    assert t.residue % 5 == 3


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


def recurrence_inverse(x):
    """Reference inverse: y_k = -y_0 sum_{j=1..k} x_j y_(k-j) in ZpApprox."""
    i0 = x.coeff(0).unit_inverse()
    inv = [i0]
    for k in range(1, x.b):
        acc = ZpApprox(x.p, 0, i0.known)
        for j in range(1, k + 1):
            acc = acc - x.coeff(j) * inv[k - j]
        inv.append(acc * i0)
    return ZpTSeries(x.p, x.b, [c.residue for c in inv], [c.known for c in inv])


@st.composite
def tseries(draw, p, b, unit=False):
    """A series with an arbitrary, non-monotone precision vector."""
    prec = draw(st.lists(st.integers(1, 12), min_size=b, max_size=b))
    vals = [draw(st.integers(0, p ** k - 1)) for k in prec]
    if unit:
        vals[0] = p * draw(st.integers(0, p ** (prec[0] - 1) - 1)) + draw(st.integers(1, p - 1))
    return ZpTSeries(p, b, vals, prec)


@given(st.data(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_tseries_mul_matches_schoolbook(data, p, b):
    x, y = data.draw(tseries(p, b)), data.draw(tseries(p, b))
    got, want = x * y, schoolbook(x, y)
    assert (got.vals, got.prec) == (want.vals, want.prec)


@given(st.data(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_tseries_inverse_matches_recurrence(data, p, b):
    x = data.draw(tseries(p, b, unit=True))
    got, want = x.inverse(), recurrence_inverse(x)
    assert (got.vals, got.prec) == (want.vals, want.prec)


def test_tseries_vT():
    p, b, w = 2, 8, 10
    s = ZpTSeries.from_ints(p, b, [0, 0, 0, 1, 0, 2], w)
    assert s.vT() == (3, True)
    z = ZpTSeries.zero(p, b, w)
    v = z.vT()
    assert v.value == b and not v.exact


def test_tseries_inverse():
    p, b, w = 2, 8, 12
    rng = random.Random(3)
    for _ in range(10):
        vals = [1 + 2 * rng.randrange(2 ** 10)] + [rng.randrange(2 ** 12) for _ in range(b - 1)]
        s = ZpTSeries.from_ints(p, b, vals, w)
        inv = s.inverse()
        assert (s * inv).vals == ZpTSeries.one(p, b, w).vals


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
    zero = ZpApprox(2, 0, w)
    assert one_plus_T_pow(zero, prof).vals == (1, 0, 0, 0)
    two = ZpApprox(2, 2, w)
    s = one_plus_T_pow(two, prof)
    assert s.residues(4) == (1, 2, 1, 0)
    minus_one = ZpApprox(2, -1, w)
    s = one_plus_T_pow(minus_one, prof)
    assert s.residues(4) == tuple(x % 2 ** 4 for x in (1, -1, 1, -1))


def test_one_plus_T_pow_exponent_one():
    # (1+T)^1 is 1 + T on the nose
    for p in (2, 3, 5):
        prof = profile(p=p, a=6, b=6)
        s = one_plus_T_pow(ZpApprox(p, 1, prof.work), prof)
        assert s.vals == (1, 1, 0, 0, 0, 0)


def test_one_plus_T_pow_precision_report():
    prof = profile(p=2, a=6, b=8)
    w = prof.work
    s = one_plus_T_pow(ZpApprox(2, 5, w), prof)
    for k in range(8):
        assert s.prec[k] == w - vp_factorial(k, 2)


def test_one_plus_T_pow_character_property():
    prof = profile(p=3, a=5, b=6)
    w = prof.work
    rng = random.Random(11)
    for _ in range(10):
        c1 = ZpApprox(3, rng.randrange(3 ** w), w)
        c2 = ZpApprox(3, rng.randrange(3 ** w), w)
        lhs = one_plus_T_pow(c1 + c2, prof)
        rhs = one_plus_T_pow(c1, prof) * one_plus_T_pow(c2, prof)
        assert lhs.agrees_with(rhs)


def test_one_plus_T_pow_exhaustion():
    # v_2(7!) = 4 digits of loss cannot fit in 4 known digits
    prof = profile(p=2, a=6, b=8)
    c = ZpApprox(2, 5, 4)
    with pytest.raises(PrecisionError):
        one_plus_T_pow(c, prof)
