"""Unramified extensions Z_{p^d} mod p^a: Teichmuller lifts and ring traces.

Elements are residues of Z_p[x]/(m(x)) where m is a monic degree-d lift of
a primitive polynomial over F_p: x has order q - 1 in F_p[x]/(m), q = p^d.
Then 1, x, ..., x^(q-2) are q - 1 distinct units, so the ring is the field
F_q and x generates F_q^x: one order test certifies the field and gives
the oracle its generator.  The theory is basis independent, so any
primitive lift is accepted, but an irreducible one that is not primitive
is refused; `default_modulus` supplies a deterministic one.

A ring is validated once: the order test runs at most once per
(p, modulus) in a process, with q - 1 factored once per (p, d), and
arithmetic results are built without it.  One product, `_mulmod` and
`_powmod`, serves the ring mod p^known and the order test mod p.  Traces
are linear in the coordinates, against the power sums Tr(x^i) of the
modulus.

The nonzero Teichmuller points of F_q form the cyclic group mu_(q-1), so
`teichmuller_powers` gives all of them as the powers g^0, ..., g^(q-2) of
one lifted generator g, the lift of the root of the default modulus.  A
point is then an index k, and x^u at g^k is g^(k u mod (q-1)), negative u
included; its Frobenius conjugates are g^(k p^i).  `frobenius_orbits`
walks the orbits of the indices, one (least element, size) per orbit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import CertificateError, UsageError
from .zp import ppow


# the ring product, and the order test over F_p ------------------------------

def _mulmod(f, g, modulus, m: int) -> tuple[int, ...]:
    """Product of two length-d coordinate tuples in Z[x]/(modulus), for a
    monic degree-d modulus, reduced mod m once at the end."""
    d = len(modulus) - 1
    out = [0] * (2 * d - 1)
    for i, a in enumerate(f):
        if a:
            for j, c in enumerate(g):
                out[i + j] += a * c
    for k in range(2 * d - 2, d - 1, -1):
        c = out[k]
        if c:
            for j in range(d):
                out[k - d + j] -= c * modulus[j]
    return tuple(c % m for c in out[:d])


def _powmod(f, e: int, modulus, m: int) -> tuple[int, ...]:
    """f^e in Z[x]/(modulus) mod m, for e >= 0, by repeated squaring."""
    result = (1 % m,) + (0,) * (len(modulus) - 2)
    base = f
    while e:
        if e & 1:
            result = _mulmod(result, base, modulus, m)
        base = _mulmod(base, base, modulus, m)
        e >>= 1
    return result


def _root(modulus) -> tuple[int, ...]:
    """Coordinates of x, the root of the monic modulus (-m_0 when d = 1)."""
    d = len(modulus) - 1
    return (-modulus[0],) if d == 1 else (0, 1) + (0,) * (d - 2)


@lru_cache(maxsize=None)
def _order_primes(p: int, d: int) -> tuple[int, ...]:
    """The primes dividing q - 1, q = p^d, by trial division, once per (p, d)."""
    n = ppow(p, d) - 1
    primes = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def is_primitive_mod_p(modulus: tuple[int, ...], p: int) -> bool:
    """Order test: x^(q-1) = 1 and x^((q-1)/r) != 1 mod (m, p) for every
    prime r dividing q - 1, so x has order exactly q - 1."""
    m = [c % p for c in modulus]
    d = len(m) - 1
    if d < 1 or m[-1] != 1:
        return False
    x = _root(m)
    one = (1,) + (0,) * (d - 1)
    n = ppow(p, d) - 1
    return (_powmod(x, n, m, p) == one
            and all(_powmod(x, n // r, m, p) != one for r in _order_primes(p, d)))


@lru_cache(maxsize=None)
def _primitive(p: int, modulus: tuple[int, ...]) -> bool:
    """The order test, run once per (p, modulus) in a process."""
    return is_primitive_mod_p(modulus, p)


@lru_cache(maxsize=None)
def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Deterministic monic primitive of degree d over F_p: the first in
    lexicographic order of the low coefficient vector."""
    for lo in field_elements(p, d):
        cand = lo + (1,)
        if _primitive(p, cand):
            return cand
    raise CertificateError(f"no monic primitive of degree {d} over F_{p}")


class UnramifiedApprox:
    """An element of Z_p[x]/(m(x)) with all coordinates known mod p^known."""

    __slots__ = ("p", "modulus", "coords", "known")

    def __init__(self, p: int, modulus: tuple[int, ...], coords, known: int):
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise UsageError("modulus must be monic of degree >= 1")
        if not _primitive(p, modulus):
            raise UsageError(f"modulus {modulus} is not primitive mod {p}: x must "
                             "generate F_q^x, an irreducible modulus is not enough")
        coords = tuple(coords)
        if len(coords) != len(modulus) - 1:
            raise UsageError("coordinate vector length must equal the degree")
        m = ppow(p, known)
        self.p = p
        self.modulus = modulus
        self.coords = tuple(c % m for c in coords)
        self.known = known

    def _new(self, coords, known: int) -> "UnramifiedApprox":
        """An element of this (already validated) ring: no checks."""
        e = object.__new__(UnramifiedApprox)
        m = ppow(self.p, known)
        e.p = self.p
        e.modulus = self.modulus
        e.coords = tuple(c % m for c in coords)
        e.known = known
        return e

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def __repr__(self) -> str:
        return f"UnramifiedApprox({list(self.coords)} mod {self.p}^{self.known})"

    def _check(self, other: "UnramifiedApprox") -> None:
        if self.p != other.p or self.modulus != other.modulus:
            raise ValueError("mismatched extensions")

    def __add__(self, other: "UnramifiedApprox") -> "UnramifiedApprox":
        self._check(other)
        return self._new([a + b for a, b in zip(self.coords, other.coords)],
                         min(self.known, other.known))

    def __sub__(self, other: "UnramifiedApprox") -> "UnramifiedApprox":
        self._check(other)
        return self._new([a - b for a, b in zip(self.coords, other.coords)],
                         min(self.known, other.known))

    def __mul__(self, other) -> "UnramifiedApprox":
        if isinstance(other, int):
            return self._new([a * other for a in self.coords], self.known)
        self._check(other)
        known = min(self.known, other.known)
        return self._new(_mulmod(self.coords, other.coords, self.modulus,
                                 ppow(self.p, known)), known)

    __rmul__ = __mul__

    @classmethod
    def one(cls, p, modulus, known) -> "UnramifiedApprox":
        return cls(p, modulus, [1] + [0] * (len(modulus) - 2), known)

    @classmethod
    def root(cls, p, modulus, known) -> "UnramifiedApprox":
        """x, which generates F_q^x mod p."""
        return cls(p, modulus, _root(modulus), known)


def teichmuller_lift(x0: UnramifiedApprox, prof) -> UnramifiedApprox:
    """The Teichmuller representative above the residue of x0: the unique
    lift t with t^(p^d) = t and t = x0 mod p, found by iterating the
    q-power map (q = p^d), which gains at least one digit per step."""
    w = prof.work
    m = ppow(x0.p, w)
    q = ppow(x0.p, x0.degree)
    t = tuple(c % m for c in x0.coords)
    for _ in range(w + 2):
        t2 = _powmod(t, q, x0.modulus, m)
        if t2 == t:
            break
        t = t2
    else:
        raise CertificateError("Teichmuller iteration failed to stabilize")
    return x0._new(t, w)


def teichmuller_powers(p: int, d: int, prof):
    """Yield g^0, g^1, ..., g^(q-2), q = p^d, known to prof.work digits:
    g is the Teichmuller lift of the root of `default_modulus(p, d)`, which
    generates F_q^x, so these are the q - 1 nonzero Teichmuller points.
    One lift per call.  After the last power, g^(q-1) = 1 is certified
    exactly, so a caller that takes every power has the certificate."""
    modulus = default_modulus(p, d)
    w = prof.work
    g = teichmuller_lift(UnramifiedApprox.root(p, modulus, w), prof)
    one = UnramifiedApprox.one(p, modulus, w)
    order = ppow(p, d) - 1
    power = one
    for _ in range(order):
        yield power
        power = power * g
    if power.coords != one.coords:
        raise CertificateError(f"Teichmuller generator: g^{order} != 1 mod {p}^{w}")


def frobenius_orbits(p: int, order: int) -> list[tuple[int, int]]:
    """(least element, size) of each orbit {k, p k, p^2 k, ...} mod order,
    in increasing order of least element, certified to partition Z/order."""
    seen = bytearray(order)
    orbits = []
    for k in range(order):
        if seen[k]:
            continue
        size, j = 0, k
        while not seen[j]:
            seen[j] = 1
            size += 1
            j = j * p % order
        orbits.append((k, size))
    if sum(size for _, size in orbits) != order:
        raise CertificateError(f"Frobenius orbits do not partition Z/{order}")
    return orbits


@lru_cache(maxsize=None)
def _power_sums(modulus: tuple[int, ...]) -> tuple[int, ...]:
    """Tr(x^i) for i < d: the power sums of the roots of the monic modulus
    x^d + a_1 x^(d-1) + ... + a_d, over Z by Newton's identities
    s_k = -(k a_k + a_1 s_(k-1) + ... + a_(k-1) s_1)."""
    d = len(modulus) - 1
    a = modulus[::-1]
    s = [d]
    for k in range(1, d):
        s.append(-(k * a[k] + sum(a[i] * s[k - i] for i in range(1, k))))
    return tuple(s)


def unramified_trace(e: UnramifiedApprox) -> int:
    """Trace of multiplication by e, mod p^known: linear in the
    coordinates, with the power sums of the modulus as the trace of the
    power basis."""
    tr = sum(c * s for c, s in zip(e.coords, _power_sums(e.modulus)))
    return tr % ppow(e.p, e.known)


def field_elements(p: int, d: int):
    """All coordinate vectors of F_{p^d} in lexicographic order, the last
    coordinate most significant."""
    return (c[::-1] for c in product(range(p), repeat=d))
