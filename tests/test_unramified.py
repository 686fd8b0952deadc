"""Tests for unramified extensions, Teichmuller lifts, and traces."""

import random

import pytest

from tadic import unramified
from tadic.errors import CertificateError, UsageError
from tadic.profile import PrecisionProfile
from tadic.unramified import (
    UnramifiedApprox,
    default_modulus,
    field_elements,
    frobenius_orbits,
    is_primitive_mod_p,
    teichmuller_lift,
    teichmuller_powers,
    unramified_trace,
)


def profile(p=2, a=6, b=8, smax=4, dmax=4):
    return PrecisionProfile.create(p, a, b, smax, dmax)


def test_primitivity_examples():
    assert is_primitive_mod_p((1, 1, 1), 2)          # x^2+x+1: x^3 = 1
    assert not is_primitive_mod_p((1, 0, 1), 2)      # x^2+1 = (x+1)^2
    assert is_primitive_mod_p((1, 2, 0, 1), 3)       # x^3+2x+1 over F_3
    assert not is_primitive_mod_p((0, 1, 1), 2)      # x^2+x = x(x+1)


def test_default_modulus_properties():
    # brute-force reference: x is primitive iff its q - 1 powers are distinct
    for p in (2, 3, 5, 7):
        for d in range(1, 6):
            m = default_modulus(p, d)
            assert len(m) == d + 1 and m[-1] == 1
            x = UnramifiedApprox.root(p, m, 1)
            power, seen = x, set()
            for _ in range(p ** d - 1):
                seen.add(power.coords)
                power = power * x
            assert len(seen) == p ** d - 1 and power.coords == x.coords


def test_construction_rejects_reducible():
    with pytest.raises(UsageError):
        UnramifiedApprox(2, (1, 0, 1), (0, 1), 5)


def test_construction_rejects_irreducible_not_primitive():
    # x^2+1 over F_3 is irreducible, but x^4 = 1, so x does not generate F_9^x
    with pytest.raises(UsageError, match="not primitive"):
        UnramifiedApprox(3, (1, 0, 1), (0, 1), 5)


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
    assert (t * t * t).coords == UnramifiedApprox.one(2, m, prof.work).coords
    assert tuple(c % 2 for c in t.coords) == (0, 1)
    assert (t * t * t * t).coords == t.coords


def test_trace_examples():
    prof = profile(p=2, a=6)
    w = prof.work
    # degree 1: trace is the identity
    m1 = default_modulus(2, 1)
    e = UnramifiedApprox(2, m1, (5,), w)
    assert unramified_trace(e) == 5
    # trace of 1 is the degree
    m3 = default_modulus(2, 3)
    one = UnramifiedApprox.one(2, m3, w)
    assert unramified_trace(one) == 3
    # cube roots of unity sum to zero, so the trace of omega-hat is -1
    m = (1, 1, 1)
    omega = teichmuller_lift(UnramifiedApprox(2, m, (0, 1), prof.work), prof)
    tr = unramified_trace(omega)
    assert tr == (-1) % 2 ** w
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
            assert unramified_trace(e) == want % p ** w


def test_root_of_default_modulus_has_full_order():
    for p, dmax in ((2, 4), (3, 3), (5, 2), (7, 2)):
        for d in range(1, dmax + 1):
            m = default_modulus(p, d)
            g = UnramifiedApprox.root(p, m, 1)
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
        assert lhs == rhs % 3 ** w


def test_teichmuller_power_identity():
    # t^(p^d) - t = 0 mod p^a for random residues
    prof = profile(p=3, a=6)
    m = default_modulus(3, 2)
    rng = random.Random(9)
    for _ in range(10):
        coords = (rng.randrange(3), rng.randrange(3))
        t = teichmuller_lift(UnramifiedApprox(3, m, coords, prof.work), prof)
        t3 = t * t * t
        diff = t3 * t3 * t3 - t
        assert all(c % 3 ** prof.a == 0 for c in diff.coords)


def test_teichmuller_powers_are_the_lifts_of_their_residues():
    # the powers g^k of the lifted generator are the Teichmuller lifts of
    # their own residues, and those residues are the q - 1 nonzero elements
    for p in (2, 3, 5, 7):
        prof = profile(p=p, a=4)
        w = prof.work
        for d in (1, 2):
            m = default_modulus(p, d)
            points = list(teichmuller_powers(p, d, prof))
            residues = [tuple(c % p for c in g.coords) for g in points]
            assert sorted(residues) == sorted(c for c in field_elements(p, d) if any(c))
            for g, res in zip(points, residues):
                lift = teichmuller_lift(UnramifiedApprox(p, m, res, w), prof)
                assert (g.coords, g.known) == (lift.coords, lift.known)


def test_teichmuller_powers_certify_the_order(monkeypatch):
    # a generator wrong in its last digit is no root of unity, so the
    # check g^(q-1) = 1 after the last power fails
    prof = profile(p=3, a=4)
    real_lift = unramified.teichmuller_lift

    def wrong_lift(x0, prof):
        t = real_lift(x0, prof)
        last = (3 ** (t.known - 1),) + (0,) * (t.degree - 1)
        return t + UnramifiedApprox(t.p, t.modulus, last, t.known)

    monkeypatch.setattr(unramified, "teichmuller_lift", wrong_lift)
    with pytest.raises(CertificateError, match="g\\^8 != 1"):
        list(teichmuller_powers(3, 2, prof))


def test_field_elements_enumeration():
    elems = list(field_elements(2, 3))
    assert len(elems) == 8
    assert len(set(elems)) == 8
    assert elems[0] == (0, 0, 0)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_frobenius_orbits_partition_the_indices(p, d):
    # each orbit {k, p k, p^2 k, ...} of Z/(q - 1) is given by its least
    # element and its size, which divides d since p^d = 1 mod q - 1,
    # in increasing order of least element
    order = p ** d - 1
    orbits = frobenius_orbits(p, order)
    assert [leader for leader, _ in orbits] == sorted(leader for leader, _ in orbits)
    covered = []
    for leader, size in orbits:
        orbit = [leader * p ** i % order for i in range(size)]
        assert len(set(orbit)) == size and d % size == 0
        assert leader * p ** size % order == leader
        assert min(orbit) == leader
        covered += orbit
    assert sorted(covered) == list(range(order))
