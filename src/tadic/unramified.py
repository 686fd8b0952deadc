"""Unramified extensions Z_{p^d} mod p^a: Teichmuller lifts and ring traces.

Elements are residues of Z_p[x]/(m(x)) where m is a monic degree-d lift of
an irreducible polynomial over F_p.  The theory is basis independent, so
any such lift is accepted; `default_modulus` supplies a deterministic one.

A ring is validated once: the Rabin irreducibility test runs at most once
per (p, modulus) in a process, when an element is first built from
outside data, and every arithmetic result is built without it.  Traces
are linear in the coordinates, against the power sums Tr(x^i) of the
modulus.  `multiplicative_generator` finds a residue generating F_{p^d}^x,
so a single Teichmuller lift yields every nonzero Teichmuller point as one
of its powers.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CertificateError, UsageError
from .zp import ZpApprox, ppow


# polynomial helpers over F_p ------------------------------------------------

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod_fp(f, g, m, p):
    d = len(m) - 1
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, c in enumerate(g):
                out[i + j] = (out[i + j] + a * c) % p
    # reduce monic m
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(d):
                out[k - d + j] = (out[k - d + j] - c * m[j]) % p
    return _poly_trim(out[:d])


def _poly_powmod_fp(f, e, m, p):
    result = [1]
    base = _poly_mulmod_fp(f, [1], m, p)
    while e:
        if e & 1:
            result = _poly_mulmod_fp(result, base, m, p)
        base = _poly_mulmod_fp(base, base, m, p)
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


def _poly_sub_fp(f, g, p):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return _poly_trim([(a - b) % p for a, b in zip(f, g)])


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
    x = [0, 1]
    if d == 1:
        return True
    if _poly_sub_fp(_poly_powmod_fp(x, ppow(p, d), m, p), x, p):
        return False
    for r in _prime_factors(d):
        diff = _poly_sub_fp(_poly_powmod_fp(x, ppow(p, d // r), m, p), x, p)
        g = _poly_gcd_fp(diff, m, p)
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
    for code in range(ppow(p, d)):
        lo = []
        n = code
        for _ in range(d):
            lo.append(n % p)
            n //= p
        cand = tuple(lo) + (1,)
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
    for coords in field_elements(p, d):
        g = _poly_trim(list(coords))
        if g and all(_poly_powmod_fp(g, n // r, m, p) != [1] for r in primes):
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

    def _reduce_poly(self, out: list[int]) -> list[int]:
        """Reduce a product over Z by the monic modulus; `_new` then
        reduces the coordinates mod p^known once."""
        d = self.degree
        modulus = self.modulus
        for i in range(len(out) - 1, d - 1, -1):
            c = out[i]
            if c:
                for j in range(d):
                    out[i - d + j] -= c * modulus[j]
        return out[:d]

    def __mul__(self, other) -> "UnramifiedApprox":
        if isinstance(other, ZpApprox):
            return self._new([a * other.residue for a in self.coords],
                             min(self.known, other.known))
        if isinstance(other, int):
            return self._new([a * other for a in self.coords], self.known)
        self._check(other)
        d = self.degree
        out = [0] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    out[i + j] += a * b
        return self._new(self._reduce_poly(out), min(self.known, other.known))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UnramifiedApprox":
        if e < 0:
            return self.inverse() ** (-e)
        result = self._new([1] + [0] * (self.degree - 1), self.known)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @classmethod
    def zero(cls, p, modulus, known) -> "UnramifiedApprox":
        return cls(p, modulus, [0] * (len(modulus) - 1), known)

    @classmethod
    def one(cls, p, modulus, known) -> "UnramifiedApprox":
        return cls(p, modulus, [1] + [0] * (len(modulus) - 2), known)

    def residue_coords(self) -> tuple[int, ...]:
        return tuple(c % self.p for c in self.coords)

    def is_zero_mod_p(self) -> bool:
        return all(c % self.p == 0 for c in self.coords)

    def inverse(self) -> "UnramifiedApprox":
        """Inverse of a unit, by Hensel lifting the mod-p inverse."""
        if self.is_zero_mod_p():
            raise ZeroDivisionError("not a unit: zero residue")
        p = self.p
        # inverse mod p via extended gcd against the modulus
        y = _poly_inverse_fp(list(self.residue_coords()), [c % p for c in self.modulus], p)
        cur = self._new(y + [0] * (self.degree - len(y)), 1)
        two = [2] + [0] * (self.degree - 1)
        digits = 1
        while digits < self.known:
            digits = min(2 * digits, self.known)
            cur = self._new(cur.coords, digits)
            here = self._new(self.coords, digits)
            # y <- y (2 - x y)
            cur = cur * (self._new(two, digits) - here * cur)
        return self._new(cur.coords, self.known)


def _poly_inverse_fp(f, m, p):
    """Inverse of f mod (m, p) by the extended Euclidean algorithm."""
    r0, r1 = list(m), _poly_trim([c % p for c in f])
    s0, s1 = [], [1]
    while r1:
        # divide r0 by r1
        q = [0] * (max(len(r0) - len(r1), 0) + 1)
        r = list(r0)
        inv = pow(r1[-1], -1, p)
        while len(r) >= len(r1) and r:
            c = (r[-1] * inv) % p
            shift = len(r) - len(r1)
            q[shift] = c
            for j, x in enumerate(r1):
                r[shift + j] = (r[shift + j] - c * x) % p
            _poly_trim(r)
        # s = s0 - q*s1
        qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, a in enumerate(q):
            if a:
                for j, c in enumerate(s1):
                    qs1[i + j] = (qs1[i + j] + a * c) % p
        s = [(a - c) % p for a, c in
             zip(s0 + [0] * max(0, len(qs1) - len(s0)),
                 qs1 + [0] * max(0, len(s0) - len(qs1)))]
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(s)
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible mod p")
    c = pow(r0[0], -1, p)
    return [(c * a) % p for a in s0]


def teichmuller_lift(x0: UnramifiedApprox, prof) -> UnramifiedApprox:
    """The Teichmuller representative above the residue of x0: the unique
    lift t with t^(p^d) = t and t = x0 mod p, found by iterating the
    q-power map (q = p^d), which gains at least one digit per step."""
    w = prof.work
    t = x0._new(x0.coords, w)
    q = ppow(x0.p, x0.degree)
    for _ in range(w + 2):
        t2 = t ** q
        if t2.coords == t.coords:
            break
        t = t2
    else:
        raise CertificateError("Teichmuller iteration failed to stabilize")
    return t


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
