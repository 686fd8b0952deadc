"""Exact truncated arithmetic in Z_p and Z_p[[T]].

Elements carry their own precision.  A ZpApprox holds a residue mod
p^known together with the number of known digits; arithmetic never
reports more digits than its inputs justify (min rule for sums and
products, explicit digit loss for exact divisions).  A ZpTSeries is a
vector of b such coefficients, one per power of T.

The precision rule of a T-series product: coefficient n of x*y sums
x_i y_j over i + j = n, so it is known to the least precision among the
first n+1 coefficients of either factor.  These prefix minima never
increase, so reduction mod p^P[n] at each n is a ring quotient, where
products and Newton inverses are exact.  Every product is Kronecker-packed
at the larger top precision of its factors.

Apparent zeros are never certified: a residue of 0 at k known digits
means only v_p >= k, and valuations of such elements are returned as
tagged lower bounds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import CertificateError, PrecisionError


@lru_cache(maxsize=None)
def ppow(p: int, k: int) -> int:
    return p ** k


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("vp_int of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class Valuation(NamedTuple):
    """A valuation together with its certainty.  When `exact` is False the
    value is only a lower bound (the element is indistinguishable from 0
    at the known precision)."""

    value: int
    exact: bool


class ZpApprox:
    """A p-adic integer known mod p^known."""

    __slots__ = ("p", "residue", "known")

    def __init__(self, p: int, residue: int, known: int):
        if known <= 0:
            raise PrecisionError("no p-adic digits left")
        self.p = p
        self.known = known
        self.residue = residue % ppow(p, known)

    def __repr__(self) -> str:
        return f"ZpApprox({self.residue} mod {self.p}^{self.known})"

    def _coerce(self, other) -> "ZpApprox":
        if isinstance(other, ZpApprox):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, int):
            # exact integers enter at our own precision
            return ZpApprox(self.p, other, self.known)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        k = min(self.known, o.known)
        return ZpApprox(self.p, self.residue + o.residue, k)

    __radd__ = __add__

    def __neg__(self) -> "ZpApprox":
        return ZpApprox(self.p, -self.residue, self.known)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        k = min(self.known, o.known)
        return ZpApprox(self.p, self.residue - o.residue, k)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        k = min(self.known, o.known)
        return ZpApprox(self.p, self.residue * o.residue, k)

    __rmul__ = __mul__

    def divexact(self, n: int) -> "ZpApprox":
        """Divide by a nonzero integer, removing v_p(n) known digits.

        The unit part is inverted exactly; the p-power part must divide the
        residue, otherwise the value is (at this precision) not divisible
        and the division cannot be represented."""
        if n == 0:
            raise ZeroDivisionError("division by zero")
        v = vp_int(n, self.p)
        unit = n // ppow(self.p, v) if v else n
        if v:
            if self.known - v <= 0:
                raise PrecisionError(f"dividing by p^{v} exhausts {self.known} digits")
            if self.residue % ppow(self.p, v) != 0:
                raise PrecisionError(
                    f"residue {self.residue} not divisible by p^{v} at known precision"
                )
            k = self.known - v
            r = self.residue // ppow(self.p, v)
        else:
            k = self.known
            r = self.residue
        return ZpApprox(self.p, r * pow(unit, -1, ppow(self.p, k)), k)

    def unit_inverse(self) -> "ZpApprox":
        if self.residue % self.p == 0:
            raise ZeroDivisionError("not a unit at known precision")
        return ZpApprox(self.p, pow(self.residue, -1, ppow(self.p, self.known)), self.known)

    def agrees_with(self, other: "ZpApprox") -> bool:
        """Equality of residues at the joint known precision."""
        k = min(self.known, other.known)
        m = ppow(self.p, k)
        return self.residue % m == other.residue % m


def teichmuller_int(c: int, p: int, digits: int) -> ZpApprox:
    """The Teichmuller lift of c mod p in Z_p: the unique root of
    x^p = x congruent to c, found by iterating the p-power map."""
    m = ppow(p, digits)
    t = c % m
    for _ in range(digits + 2):
        t2 = pow(t, p, m)
        if t2 == t:
            break
        t = t2
    else:
        raise CertificateError("Teichmuller iteration failed to stabilize")
    return ZpApprox(p, t, digits)


# T-series layer ------------------------------------------------------------

class Packer:
    """Kronecker substitution for series mod (p^w, T^b): a coefficient
    vector becomes one big integer with `beta`-bit limbs, T^j in limb j.
    Limbs have headroom for a sum of `nacc` products, so a series product,
    or a row-times-column accumulation of length nacc, needs a single limb
    reduction at the end."""

    __slots__ = ("p", "b", "w", "m", "beta", "mask")

    def __init__(self, p: int, b: int, w: int, nacc: int = 1):
        self.p, self.b, self.w = p, b, w
        self.m = ppow(p, w)
        top = b * max(nacc, 1) * (self.m - 1) ** 2
        self.beta = top.bit_length() + 1
        self.mask = (1 << self.beta) - 1

    def pack(self, s: "ZpTSeries") -> int:
        acc = 0
        for j in range(self.b - 1, -1, -1):
            acc = (acc << self.beta) | (s.vals[j] % self.m)
        return acc

    def reduce(self, acc: int) -> int:
        """Repack an accumulator with every limb reduced mod p^w."""
        beta, mask, m = self.beta, self.mask, self.m
        out = 0
        for j in range(self.b - 1, -1, -1):
            out = (out << beta) | (((acc >> (beta * j)) & mask) % m)
        return out

    def dot(self, xs, ys) -> int:
        """Reduced packed sum of x * y over the pairs of xs and ys."""
        acc = 0
        for x, y in zip(xs, ys):
            if x:
                acc += x * y
        return self.reduce(acc)

    def unpack(self, acc: int, prec=None) -> "ZpTSeries":
        """The series in the limbs of acc, known to prec (default: w)."""
        beta, mask = self.beta, self.mask
        limbs = [(acc >> (beta * j)) & mask for j in range(self.b)]
        return ZpTSeries(self.p, self.b, limbs, prec or (self.w,) * self.b)


@lru_cache(maxsize=None)
def packer(p: int, b: int, w: int, nacc: int = 1) -> Packer:
    return Packer(p, b, w, nacc)


@lru_cache(maxsize=256)
def _product_layout(p: int, b: int, xprec: tuple, yprec: tuple) -> tuple[Packer, tuple]:
    """The packer at the larger top precision of two factors, and the
    precision of their product: the prefix minima of both vectors."""
    return (packer(p, b, max(max(xprec), max(yprec))),
            tuple(accumulate(map(min, xprec, yprec), min)))


class ZpTSeries:
    """An element of Z_p[[T]] mod T^b with per-coefficient p-adic precision.

    vals[j] is the residue of the T^j coefficient mod p^prec[j].
    """

    __slots__ = ("p", "b", "vals", "prec")

    def __init__(self, p: int, b: int, vals, prec):
        self.p = p
        self.b = b
        vals = tuple(vals)
        prec = tuple(prec)
        if len(vals) != b or len(prec) != b:
            raise ValueError("coefficient vector must have length b")
        norm = []
        for v, k in zip(vals, prec):
            if k <= 0:
                raise PrecisionError("no p-adic digits left in series coefficient")
            norm.append(v % ppow(p, k))
        self.vals = tuple(norm)
        self.prec = prec

    # construction helpers

    @classmethod
    def zero(cls, p: int, b: int, known: int) -> "ZpTSeries":
        return cls(p, b, (0,) * b, (known,) * b)

    @classmethod
    def one(cls, p: int, b: int, known: int) -> "ZpTSeries":
        return cls(p, b, (1,) + (0,) * (b - 1), (known,) * b)

    @classmethod
    def from_ints(cls, p: int, b: int, ints, known: int) -> "ZpTSeries":
        ints = list(ints)[:b]
        ints += [0] * (b - len(ints))
        return cls(p, b, ints, (known,) * b)

    @classmethod
    def from_scalar(cls, c: ZpApprox, b: int) -> "ZpTSeries":
        return cls(c.p, b, (c.residue,) + (0,) * (b - 1), (c.known,) * b)

    def coeff(self, j: int) -> ZpApprox:
        return ZpApprox(self.p, self.vals[j], self.prec[j])

    def __repr__(self) -> str:
        return f"ZpTSeries(p={self.p}, {list(self.vals)})"

    def _check(self, other: "ZpTSeries") -> None:
        if self.p != other.p or self.b != other.b:
            raise ValueError("mismatched series rings")

    # ring operations

    def __add__(self, other: "ZpTSeries") -> "ZpTSeries":
        self._check(other)
        p = self.p
        vals = [a + c for a, c in zip(self.vals, other.vals)]
        prec = [min(x, y) for x, y in zip(self.prec, other.prec)]
        return ZpTSeries(p, self.b, vals, prec)

    def __sub__(self, other: "ZpTSeries") -> "ZpTSeries":
        self._check(other)
        vals = [a - c for a, c in zip(self.vals, other.vals)]
        prec = [min(x, y) for x, y in zip(self.prec, other.prec)]
        return ZpTSeries(self.p, self.b, vals, prec)

    def __neg__(self) -> "ZpTSeries":
        return ZpTSeries(self.p, self.b, [-v for v in self.vals], self.prec)

    def __mul__(self, other: "ZpTSeries") -> "ZpTSeries":
        self._check(other)
        pk, prec = _product_layout(self.p, self.b, self.prec, other.prec)
        return pk.unpack(pk.pack(self) * pk.pack(other), prec)

    def scale(self, c) -> "ZpTSeries":
        """Multiply every coefficient by an integer or a ZpApprox."""
        if isinstance(c, ZpApprox):
            if c.p != self.p:
                raise ValueError("mixed primes")
            vals = [v * c.residue for v in self.vals]
            prec = [min(k, c.known) for k in self.prec]
            return ZpTSeries(self.p, self.b, vals, prec)
        return ZpTSeries(self.p, self.b, [v * c for v in self.vals], self.prec)

    def divexact(self, n: int) -> "ZpTSeries":
        out = [self.coeff(j).divexact(n) for j in range(self.b)]
        return ZpTSeries(self.p, self.b, [c.residue for c in out], [c.known for c in out])

    def inverse(self) -> "ZpTSeries":
        """Inverse of a series whose constant term is a p-adic unit, by
        Newton's iteration y <- y (2 - x y) from the inverse of that term;
        each step doubles the T-adic order to which y is right."""
        i0 = self.coeff(0).unit_inverse()
        y = ZpTSeries.from_scalar(i0, self.b)
        two = ZpTSeries.from_scalar(ZpApprox(self.p, 2, i0.known), self.b)
        right = 1
        while right < self.b:
            y = y * (two - self * y)
            right *= 2
        return y

    # queries

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.vals)

    def vT(self) -> Valuation:
        """T-adic order: least index with a coefficient visibly nonzero.
        If every coefficient vanishes at its known precision the order is
        only bounded below by b."""
        for j, v in enumerate(self.vals):
            if v != 0:
                return Valuation(j, True)
        return Valuation(self.b, False)

    def agrees_with(self, other: "ZpTSeries") -> bool:
        self._check(other)
        for j in range(self.b):
            if not self.coeff(j).agrees_with(other.coeff(j)):
                return False
        return True

    def reduced(self, digits: int) -> "ZpTSeries":
        return ZpTSeries(
            self.p, self.b, self.vals, [min(k, digits) for k in self.prec]
        )

    def residues(self, digits: int) -> tuple[int, ...]:
        m = ppow(self.p, digits)
        if any(k < digits for k in self.prec):
            raise PrecisionError("requested more digits than known")
        return tuple(v % m for v in self.vals)


def one_plus_T_pow(c: ZpApprox, prof) -> ZpTSeries:
    """The binomial series (1+T)^c for a p-adic integer exponent c.

    Coefficient k is C(c, k) = c(c-1)...(c-k+1) / k!; the division by k!
    costs v_p(k!) digits, so coefficient k is known to c.known - v_p(k!)
    digits."""
    p, b = c.p, prof.b
    vals = [1]
    prec = [c.known]
    num = ZpApprox(p, 1, c.known)
    for k in range(1, b):
        num = num * (c - (k - 1))
        binom = num.divexact(math.factorial(k))
        vals.append(binom.residue)
        prec.append(binom.known)
    return ZpTSeries(p, b, vals, prec)
