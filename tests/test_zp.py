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


def test_tseries_mul_matches_tracked_path():
    # packed fast path must agree with the naive convolution
    p, b, w = 3, 7, 9
    rng = random.Random(7)
    for _ in range(25):
        xs = ZpTSeries.from_ints(p, b, [rng.randrange(3 ** 9) for _ in range(b)], w)
        ys = ZpTSeries.from_ints(p, b, [rng.randrange(3 ** 9) for _ in range(b)], w)
        fast = xs * ys
        # force the tracked path by perturbing one precision entry
        ys2 = ZpTSeries(p, b, ys.vals, (w,) * (b - 1) + (w - 1,))
        slow = xs * ys2
        assert fast.vals[: b - 1] == slow.vals[: b - 1]
        assert fast.agrees_with(slow)


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
