"""Unramified extensions Z_{p^d} mod p^a: Teichmuller lifts and ring traces.

Elements are residues of Z_p[x]/(m(x)) where m is a monic degree-d lift of
an irreducible polynomial over F_p.  The theory is basis independent, so
any such lift is accepted; `default_modulus` supplies a deterministic one.

A ring is validated once: the Rabin irreducibility test runs at most once
per (p, modulus) in a process, when an element is first built from
outside data, and every arithmetic result is built without it.  One
product, `_mulmod`/`_powmod`, serves the ring mod p^known and the Rabin
test and generator search mod p.  Traces are linear in the coordinates,
against the power sums Tr(x^i) of the modulus.  `multiplicative_generator`
finds a residue generating F_{p^d}^x, so a single Teichmuller lift yields
every nonzero Teichmuller point as one of its powers.  Those points are
(q-1)-th roots of unity, so only elements with t^(q-1) = 1 exactly have
negative powers; for anything else `**` raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CertificateError, UsageError
from .zp import ZpApprox, ppow


# the ring product, and polynomial helpers over F_p -------------------------

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


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


def _poly_gcd_fp(f, g, p):
    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    while g:
        inv = pow(g[-1], -1, p)
        gm = [(c * inv) % p for c in g]
        # f mod gm
        f = list(f)
        while len(f) >= len(gm) and f:
            c = f[-1]
            if c:
                shift = len(f) - len(gm)
                for j, x in enumerate(gm):
                    f[shift + j] = (f[shift + j] - c * x) % p
            _poly_trim(f)
            if not f:
                break
            if len(f) >= len(gm) and f[-1] == 0:
                _poly_trim(f)
        f, g = g, f
    return f


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
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
    return primes


def is_irreducible_mod_p(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin test: x^(p^d) = x mod (m, p) and gcd(x^(p^(d/r)) - x, m) = 1
    for every prime r dividing d."""
    m = [c % p for c in modulus]
    d = len(m) - 1
    if d < 1 or m[-1] != 1:
        return False
    if d == 1:
        return True
    x = (0, 1) + (0,) * (d - 2)
    if _powmod(x, ppow(p, d), m, p) != x:
        return False
    for r in _prime_factors(d):
        power = _powmod(x, ppow(p, d // r), m, p)
        g = _poly_gcd_fp([(a - b) % p for a, b in zip(power, x)], m, p)
        if len(g) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _irreducible(p: int, modulus: tuple[int, ...]) -> bool:
    """The Rabin test, run once per (p, modulus) in a process."""
    return is_irreducible_mod_p(modulus, p)


@lru_cache(maxsize=None)
def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree d over F_p: the first in
    lexicographic order of the low coefficient vector."""
    if d == 1:
        return (0, 1)
    for lo in field_elements(p, d):
        cand = lo + (1,)
        if _irreducible(p, cand):
            return cand
    raise CertificateError(f"no monic irreducible of degree {d} over F_{p}")


def multiplicative_generator(p: int, modulus: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of the first residue, in `field_elements` order, that
    generates F_q^x (q = p^d): g^((q-1)/r) != 1 for every prime r | q-1."""
    m = [c % p for c in modulus]
    d = len(m) - 1
    n = ppow(p, d) - 1
    primes = _prime_factors(n)
    one = (1,) + (0,) * (d - 1)
    for coords in field_elements(p, d):
        if any(coords) and all(_powmod(coords, n // r, m, p) != one for r in primes):
            return coords
    raise CertificateError(f"F_{p}[x]/{modulus} has no generator of order {n}")


class UnramifiedApprox:
    """An element of Z_p[x]/(m(x)) with all coordinates known mod p^known."""

    __slots__ = ("p", "modulus", "coords", "known")

    def __init__(self, p: int, modulus: tuple[int, ...], coords, known: int):
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise UsageError("modulus must be monic of degree >= 1")
        if not _irreducible(p, modulus):
            raise UsageError(f"modulus {modulus} is not irreducible mod {p}")
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

    def __neg__(self) -> "UnramifiedApprox":
        return self._new([-a for a in self.coords], self.known)

    def __mul__(self, other) -> "UnramifiedApprox":
        if isinstance(other, ZpApprox):
            return self._new([a * other.residue for a in self.coords],
                             min(self.known, other.known))
        if isinstance(other, int):
            return self._new([a * other for a in self.coords], self.known)
        self._check(other)
        known = min(self.known, other.known)
        return self._new(_mulmod(self.coords, other.coords, self.modulus,
                                 ppow(self.p, known)), known)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UnramifiedApprox":
        """self^e; for e < 0 only if self^(q-1) = 1 exactly at the known
        digits (q = p^d), as for a nonzero Teichmuller point, and then
        self^e = self^(e mod (q-1))."""
        m = ppow(self.p, self.known)
        if e < 0:
            order = ppow(self.p, self.degree) - 1
            one = (1 % m,) + (0,) * (self.degree - 1)
            if _powmod(self.coords, order, self.modulus, m) != one:
                raise ValueError(f"negative power of {self!r}, which is not "
                                 f"a root of unity of order dividing {order}")
            e %= order
        return self._new(_powmod(self.coords, e, self.modulus, m), self.known)

    @classmethod
    def zero(cls, p, modulus, known) -> "UnramifiedApprox":
        return cls(p, modulus, [0] * (len(modulus) - 1), known)

    @classmethod
    def one(cls, p, modulus, known) -> "UnramifiedApprox":
        return cls(p, modulus, [1] + [0] * (len(modulus) - 2), known)

    def residue_coords(self) -> tuple[int, ...]:
        return tuple(c % self.p for c in self.coords)


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


def unramified_trace(e: UnramifiedApprox) -> ZpApprox:
    """Trace of multiplication by e: linear in the coordinates, with the
    power sums of the modulus as the trace of the power basis."""
    tr = sum(c * s for c, s in zip(e.coords, _power_sums(e.modulus)))
    return ZpApprox(e.p, tr, e.known)


def field_elements(p: int, d: int):
    """All coordinate vectors of F_{p^d} in lexicographic order."""
    coords = [0] * d
    total = ppow(p, d)
    for code in range(total):
        n = code
        for i in range(d):
            coords[i] = n % p
            n //= p
        yield tuple(coords)
