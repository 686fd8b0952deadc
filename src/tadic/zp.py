"""Exact truncated arithmetic in Z_p and Z_p[[T]].

A scalar is a plain int, a residue mod p^w at the working precision w;
sums and products of scalars lose nothing.  Digits are lost only by
exact division (`divexact`: by k! in the binomial series, by k in the
exp recurrence), and only T-series record them: a ZpTSeries is a vector
of b residues, one per power of T, each with its own known precision.

The precision rule of a T-series product: coefficient n of x*y sums
x_i y_j over i + j = n, so it is known to the least precision among the
first n+1 coefficients of either factor.  These prefix minima never
increase, so reduction mod p^P[n] at each n is a ring quotient, where
products are exact.  Every product is Kronecker-packed at the larger top
precision of its factors.

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


def divexact(p: int, residue: int, known: int, n: int) -> tuple[int, int]:
    """Divide a residue known mod p^known by a nonzero integer n, removing
    v_p(n) known digits; returns the quotient and the digits left.

    The unit part is inverted exactly; the p-power part must divide the
    residue, otherwise the value is (at this precision) not divisible
    and the division cannot be represented."""
    if n == 0:
        raise ZeroDivisionError("division by zero")
    v = vp_int(n, p)
    residue %= ppow(p, known)
    if v:
        if known - v <= 0:
            raise PrecisionError(f"dividing by p^{v} exhausts {known} digits")
        if residue % ppow(p, v) != 0:
            raise PrecisionError(
                f"residue {residue} not divisible by p^{v} at known precision"
            )
        known -= v
        residue //= ppow(p, v)
        n //= ppow(p, v)
    m = ppow(p, known)
    return residue * pow(n, -1, m) % m, known


def teichmuller_int(c: int, p: int, digits: int) -> int:
    """The Teichmuller lift of c mod p in Z_p, mod p^digits: the unique
    root of x^p = x congruent to c, found by iterating the p-power map."""
    m = ppow(p, digits)
    t = c % m
    for _ in range(digits + 2):
        t2 = pow(t, p, m)
        if t2 == t:
            break
        t = t2
    else:
        raise CertificateError("Teichmuller iteration failed to stabilize")
    return t


# T-series layer ------------------------------------------------------------

class Packer:
    """Kronecker substitution for series mod (p^w, T^b): a coefficient
    vector becomes one big integer with `beta`-bit limbs, T^j in limb j.
    Limbs have headroom for a sum of `nacc` products, so a series product,
    or a row-times-column accumulation of length nacc, needs a single limb
    reduction at the end.

    `reduce` takes all limbs mod m = p^w at once (Barrett 1986).  The even
    limbs, and apart from them the odd ones, each sit alone in a 2 beta-bit
    slot.  A limb x < 2^beta times r = floor(2^beta / m) stays below
    2^(2 beta), so one product x r of the whole half carries no bit from
    slot to slot, and q = floor(x r / 2^beta) is the Barrett quotient of
    every slot: x r / 2^beta lies in (x/m - 1, x/m], so q is floor(x/m) or
    floor(x/m) - 1, and x - q m lies in [0, 2m).  One conditional
    subtraction of m per slot finishes the reduction: adding 2^s - m, with
    2^s > m, sets bit s of the slot exactly when x - q m >= m.

    A row divisible by T^v is kept shifted down by T^v (`t_order`): its
    products with a vector are needed mod T^(b - v) only, so `dot` reads
    b - v limbs of them, or the fewer its caller asks for, and shifts the
    sum back up."""

    __slots__ = ("p", "b", "w", "m", "beta", "mask", "slots", "barrett")

    def __init__(self, p: int, b: int, w: int, nacc: int = 1):
        self.p, self.b, self.w = p, b, w
        self.m = ppow(p, w)
        top = b * max(nacc, 1) * (self.m - 1) ** 2
        self.beta = top.bit_length() + 1
        self.mask = (1 << self.beta) - 1
        # for `reduce`: the b limbs, the even limbs, bit 0 and 2^s - m in
        # each even slot
        ones = sum(1 << (2 * self.beta * i) for i in range((b + 1) // 2))
        self.slots = (self.low(b), ones * self.mask, ones,
                      ones * ((1 << self.m.bit_length()) - self.m))
        self.barrett = (1 << self.beta) // self.m

    def pack(self, s: "ZpTSeries") -> int:
        acc = 0
        for j in range(self.b - 1, -1, -1):
            acc = (acc << self.beta) | (s.vals[j] % self.m)
        return acc

    def t_order(self, x: int) -> int:
        """T-index of the lowest nonzero limb of x, b for x = 0."""
        return ((x & -x).bit_length() - 1) // self.beta if x else self.b

    def low(self, n: int) -> int:
        """The mask of limbs 0..n-1: x & low(n) is x mod T^n."""
        return (1 << self.beta * n) - 1

    def reduce(self, acc: int, n: int | None = None) -> int:
        """Repack the low n limbs (default: b) of an accumulator, each
        reduced mod p^w; the limbs above are dropped."""
        beta, m, r, s = self.beta, self.m, self.barrett, self.m.bit_length()
        low, slots, ones, lift = self.slots
        if n is not None and n < self.b:
            low = self.low(n)
            slots, ones, lift = slots & low, ones & low, lift & low
        acc &= low
        even, odd = acc & slots, (acc >> beta) & slots
        even -= ((even * r >> beta) & slots) * m
        even -= ((even + lift) >> s & ones) * m
        odd -= ((odd * r >> beta) & slots) * m
        odd -= ((odd + lift) >> s & ones) * m
        return even | odd << beta

    def dot(self, xs, ys, v: int = 0, n: int | None = None) -> int:
        """Reduced packed sum of x * y over the pairs of xs and ys, where xs
        is a row shifted down by T^v: only the sum mod T^n is read (default
        n = b - v, all that can reach T^b), so xs and ys may be cut to
        low(n), and it is shifted back up by T^v."""
        acc = 0
        for x, y in zip(xs, ys):
            if x:
                acc += x * y
        return self.reduce(acc, self.b - v if n is None else n) << (self.beta * v)

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

    def scale(self, c: int) -> "ZpTSeries":
        """Multiply every coefficient by an integer."""
        return ZpTSeries(self.p, self.b, [v * c for v in self.vals], self.prec)

    def divexact(self, n: int) -> "ZpTSeries":
        """Divide every coefficient by n (`divexact` per coefficient)."""
        out = [divexact(self.p, v, k, n) for v, k in zip(self.vals, self.prec)]
        return ZpTSeries(self.p, self.b, [r for r, _ in out], [k for _, k in out])

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
        """Equality of each coefficient at the joint known precision."""
        self._check(other)
        return all((x - y) % ppow(self.p, min(k, l)) == 0 for x, y, k, l
                   in zip(self.vals, other.vals, self.prec, other.prec))

    def reduced(self, digits: int) -> "ZpTSeries":
        return ZpTSeries(
            self.p, self.b, self.vals, [min(k, digits) for k in self.prec]
        )

    def residues(self, digits: int) -> tuple[int, ...]:
        m = ppow(self.p, digits)
        if any(k < digits for k in self.prec):
            raise PrecisionError("requested more digits than known")
        return tuple(v % m for v in self.vals)


def one_plus_T_pow(t: int, prof) -> ZpTSeries:
    """The binomial series (1+T)^t for a p-adic integer t known mod
    p^work.

    Coefficient k is C(t, k) = t(t-1)...(t-k+1) / k!; the division by k!
    costs v_p(k!) digits, so coefficient k is known to work - v_p(k!)
    digits."""
    p, b, w = prof.p, prof.b, prof.work
    m = ppow(p, w)
    vals = [1]
    prec = [w]
    num = 1
    for k in range(1, b):
        num = num * (t - (k - 1)) % m
        binom, known = divexact(p, num, w, math.factorial(k))
        vals.append(binom)
        prec.append(known)
    return ZpTSeries(p, b, vals, prec)
