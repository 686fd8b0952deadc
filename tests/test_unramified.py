"""Tests for unramified extensions, Teichmuller lifts, and traces."""

import random

import pytest

from tadic.errors import UsageError
from tadic.profile import PrecisionProfile
from tadic.unramified import (
    UnramifiedApprox,
    default_modulus,
    field_elements,
    is_irreducible_mod_p,
    multiplicative_generator,
    teichmuller_lift,
    unramified_trace,
)


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def test_irreducibility():
    assert is_irreducible_mod_p((1, 1, 1), 2)        # x^2+x+1
    assert not is_irreducible_mod_p((1, 0, 1), 2)    # x^2+1 = (x+1)^2
    assert is_irreducible_mod_p((1, 2, 0, 1), 3)     # x^3+2x+1 over F_3
    assert not is_irreducible_mod_p((0, 1, 1), 2)    # x^2+x = x(x+1)


def test_default_modulus_properties():
    for p in (2, 3, 5, 7):
        for d in range(1, 6):
            m = default_modulus(p, d)
            assert len(m) == d + 1 and m[-1] == 1
            assert is_irreducible_mod_p(m, p)


def test_construction_rejects_reducible():
    with pytest.raises(UsageError):
        UnramifiedApprox(2, (1, 0, 1), (0, 1), 5)


def test_arithmetic_in_f4_lift():
    p = 2
    m = (1, 1, 1)  # x^2 + x + 1
    w = 8
    omega = UnramifiedApprox(p, m, (0, 1), w)
    sq = omega * omega
    # x^2 = -x - 1 = x + 1 mod 2 lift
    assert sq.coords == ((-1) % 2 ** w, (-1) % 2 ** w)
    cube = sq * omega
    assert cube.coords == (1, 0)


def test_teichmuller_fixed_point_degree_one():
    prof = profile(p=3, a=6)
    m = default_modulus(3, 1)
    x = UnramifiedApprox(3, m, (2,), prof.work)
    t = teichmuller_lift(x, prof)
    q = 3 ** prof.work
    assert pow(t.coords[0], 3, q) == t.coords[0]
    assert t.coords[0] % 3 == 2


def test_teichmuller_cube_root_of_unity():
    prof = profile(p=2, a=6)
    m = (1, 1, 1)
    omega = UnramifiedApprox(2, m, (0, 1), prof.work)
    t = teichmuller_lift(omega, prof)
    assert (t ** 3).coords == UnramifiedApprox.one(2, m, prof.work).coords
    assert t.residue_coords() == (0, 1)
    assert (t ** 4).coords == t.coords


def test_trace_examples():
    prof = profile(p=2, a=6)
    w = prof.work
    # degree 1: trace is the identity
    m1 = default_modulus(2, 1)
    e = UnramifiedApprox(2, m1, (5,), w)
    assert unramified_trace(e).residue == 5
    # trace of 1 is the degree
    m3 = default_modulus(2, 3)
    one = UnramifiedApprox.one(2, m3, w)
    assert unramified_trace(one).residue == 3
    # cube roots of unity sum to zero, so the trace of omega-hat is -1
    m = (1, 1, 1)
    omega = teichmuller_lift(UnramifiedApprox(2, m, (0, 1), prof.work), prof)
    tr = unramified_trace(omega)
    assert tr.residue == (-1) % 2 ** w
    # independent check: trace = sum of the two Frobenius conjugates
    conj = omega * omega  # Frobenius is squaring on Teichmuller points
    s = omega + conj
    assert s.coords == ((-1) % 2 ** w, 0)


def test_trace_matches_multiplication_matrix():
    # reference: the trace of multiplication by e in the basis 1, x, ...,
    # x^(d-1) is the sum of the x^j coordinates of e x^j
    rng = random.Random(3)
    for p, d in ((2, 1), (2, 4), (3, 3), (5, 2), (7, 3)):
        m = default_modulus(p, d)
        w = 6
        x = UnramifiedApprox(p, m, [0, 1] + [0] * (d - 2), w) if d > 1 else None
        for _ in range(5):
            e = UnramifiedApprox(p, m, [rng.randrange(p ** w) for _ in range(d)], w)
            want, cur = 0, e
            for j in range(d):
                want += cur.coords[j]
                if x is not None:
                    cur = cur * x
            assert unramified_trace(e).residue == want % p ** w


def test_multiplicative_generator_has_full_order():
    for p, dmax in ((2, 4), (3, 3), (5, 2), (7, 2)):
        for d in range(1, dmax + 1):
            m = default_modulus(p, d)
            g = UnramifiedApprox(p, m, multiplicative_generator(p, m), 1)
            one = UnramifiedApprox.one(p, m, 1).coords
            power, order = g, 1
            while power.coords != one:
                power, order = power * g, order + 1
            assert order == p ** d - 1


def test_trace_additivity_random():
    prof = profile(p=3, a=5)
    w = prof.work
    m = default_modulus(3, 3)
    rng = random.Random(5)
    for _ in range(20):
        e1 = UnramifiedApprox(3, m, [rng.randrange(3 ** w) for _ in range(3)], w)
        e2 = UnramifiedApprox(3, m, [rng.randrange(3 ** w) for _ in range(3)], w)
        lhs = unramified_trace(e1 + e2)
        rhs = unramified_trace(e1) + unramified_trace(e2)
        assert lhs.agrees_with(rhs)


def test_teichmuller_power_identity():
    # t^(p^d) - t = 0 mod p^a for random residues
    prof = profile(p=3, a=6)
    m = default_modulus(3, 2)
    rng = random.Random(9)
    for _ in range(10):
        coords = (rng.randrange(3), rng.randrange(3))
        t = teichmuller_lift(UnramifiedApprox(3, m, coords, prof.work), prof)
        diff = t ** 9 - t
        assert all(c % 3 ** prof.a == 0 for c in diff.coords)


def test_negative_powers_only_of_roots_of_unity():
    # every nonzero Teichmuller point is a (q-1)-th root of unity, so its
    # negative powers are its powers mod q-1; nothing else has them
    for p in (2, 3, 5):
        prof = profile(p=p, a=4)
        w = prof.work
        for d in (1, 2, 3):
            m = default_modulus(p, d)
            q = p ** d
            one = UnramifiedApprox.one(p, m, w).coords
            for coords in field_elements(p, d):
                x = UnramifiedApprox(p, m, coords, w)
                t = teichmuller_lift(x, prof)
                if not any(coords):
                    with pytest.raises(ValueError):
                        t ** -1
                    continue
                tk = t
                for k in range(1, q + 1):
                    assert (t ** -k * tk).coords == one
                    tk = tk * t
            # a unit that is not a root of unity: 1 + p x (1 + p for d = 1)
            unit = UnramifiedApprox(p, m, (1, p) + (0,) * (d - 2) if d > 1 else (1 + p,), w)
            with pytest.raises(ValueError):
                unit ** -1


def test_field_elements_enumeration():
    elems = list(field_elements(2, 3))
    assert len(elems) == 8
    assert len(set(elems)) == 8
    assert elems[0] == (0, 0, 0)
