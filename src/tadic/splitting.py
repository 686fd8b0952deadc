"""Splitting functions of Z_p-towers.

A tower is given by a polynomial (or Laurent polynomial) f with
coefficients in F_p.  Lifting each coefficient c to its Teichmuller
representative [c], the splitting function is the product of Artin-Hasse
factors E(pi [c] x^u) over the monomials of f.  Its coefficients decay
T-adically at rate ceil(|k| / deg f), which is what later makes the Dwork
operator matrices nuclear; that decay is checked here as a certificate.

Dwork's splitting lemma ties E_f to the exponential sums: at a Teichmuller
point x_hat of F_q, the product of E_f over the Frobenius orbit of x_hat is
(1+T)^(Tr f(x_hat)).  `norm_of_ef_at_orbit` and `fiber_character_value`
compute the two sides.  Their points are those of
`unramified.teichmuller_powers`: the point g^k is given by its index k
(None for 0), so no point is lifted on its own.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import CertificateError, UsageError
from .profile import PrecisionProfile
from .series import artin_hasse_units, pi_from_T
from .unramified import UnramifiedApprox, unramified_trace
from .xseries import Geometry, XSeries
from .zp import ZpTSeries, one_plus_T_pow, ppow, teichmuller_int


@dataclass(frozen=True)
class TowerInput:
    """A tower datum: prime, geometry, and the monomials of f.

    Coefficients are residues mod p, and zero coefficients are dropped.
    A nonzero constant term is a usage error: it only shifts L(f, s) to
    L(f, (1+T)^[c] s), a substitution the caller makes."""

    p: int
    geometry: Geometry
    f_coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for u, c in self.f_coeffs.items():
            c = c % self.p
            if c == 0:
                continue
            if u == 0:
                raise UsageError(f"constant term {c}: with Teichmuller lifts S_d(f + c) = "
                                 "(1+T)^(d [c]) S_d(f), so L(f + c, s) = L(f, (1+T)^[c] s); "
                                 "drop it and substitute s")
            if self.geometry is Geometry.AFFINE_LINE and u < 0:
                raise UsageError("negative exponents need the torus geometry")
            cleaned[u] = c
        object.__setattr__(self, "f_coeffs", cleaned)
        d = self.degree
        if d and math.gcd(d, self.p) != 1:
            warnings.warn(
                f"deg f = {d} is divisible by p = {self.p}; "
                "polygon analyses lose their clean block structure"
            )

    @property
    def degree(self) -> int:
        """max |u| over the support of f (0 for the zero tower)."""
        return max((abs(u) for u in self.f_coeffs), default=0)

    def evaluate_teichmuller(self, points: Sequence[UnramifiedApprox],
                             k: int | None) -> UnramifiedApprox:
        """f at the Teichmuller point g^k (see `_monomial_at`), all
        arithmetic in the unramified ring."""
        acc = points[0] * 0
        for u, c in self.f_coeffs.items():
            acc = acc + _monomial_at(points, k, u) * teichmuller_int(c, self.p, acc.known)
        return acc


def _monomial_at(points: Sequence[UnramifiedApprox], k: int | None,
                u: int) -> UnramifiedApprox:
    """x^u at the point g^k, where `points` are the powers g^0..g^(q-2) of
    `unramified.teichmuller_powers`: g^(k u mod (q-1)), negative u included,
    since g^(q-1) = 1.  k = None is the point 0 of the affine line, where
    x^u = 0 for u > 0."""
    if k is None:
        return points[0] if u == 0 else points[0] * 0
    return points[k * u % len(points)]


@dataclass(frozen=True)
class SplittingFunction:
    """The function trivializing the rank-one Frobenius structure of a
    tower, expanded to the x-degree the Dwork matrices will consume."""

    series: XSeries
    source: TowerInput
    profile: PrecisionProfile

    def ef(self, j: int) -> ZpTSeries:
        return self.series.coeff(j)


def default_ef_bound(tower: TowerInput, prof: PrecisionProfile) -> int:
    """Coefficients beyond d*(b-1) have T-valuation >= b and vanish
    mod T^b, so this cutoff is exact rather than approximate."""
    return max(tower.degree, 1) * (prof.b - 1)


def splitting_factor(c: int, u: int, prof: PrecisionProfile,
                     geometry: Geometry, bound: int, pi: ZpTSeries) -> XSeries:
    """The factor E(pi [c] x^u) for a monomial of a tower (c != 0 mod p,
    u != 0): a finite sum, since pi^k dies mod T^b and x^{ku} leaves the
    retained window."""
    kmax = min(prof.b - 1, bound // abs(u))
    units = artin_hasse_units(prof, max(kmax, 1))
    lift = teichmuller_int(c, prof.p, prof.work)
    out: dict[int, ZpTSeries] = {}
    m = ppow(prof.p, prof.work)
    pik = ZpTSeries.one(prof.p, prof.b, prof.work)
    liftk = 1
    for k in range(kmax + 1):
        out[k * u] = pik.scale(units[k] * liftk)
        pik = pik * pi
        liftk = liftk * lift % m
    return XSeries(prof, geometry, bound, out)


def build_Ef(tower: TowerInput, prof: PrecisionProfile,
             bound: int | None = None) -> SplittingFunction:
    """Product of the Artin-Hasse factors over the monomials of f, with
    the decay certificate v_T(coeff of x^k) >= ceil(|k|/d) verified."""
    if bound is None:
        bound = default_ef_bound(tower, prof)
    pi = pi_from_T(prof)
    acc = XSeries.one(prof, tower.geometry, bound)
    for u in sorted(tower.f_coeffs):
        acc = acc * splitting_factor(tower.f_coeffs[u], u, prof,
                                     tower.geometry, bound, pi)
    d = max(tower.degree, 1)
    for k, c in acc.coeffs.items():
        v = c.vT()
        need = -(-abs(k) // d)
        if v.value < need:
            raise CertificateError(
                f"splitting function coefficient x^{k} has v_T = {v.value} < {need}"
            )
    c0 = acc.coeff(0)
    if c0.vals[0] % prof.p ** 1 != 1 % prof.p:
        raise CertificateError("splitting function must be 1 mod (p,T) at x^0")
    return SplittingFunction(series=acc, source=tower, profile=prof)


# fiber identities -----------------------------------------------------------

def evaluate_ef_at_point(ef: SplittingFunction, points: Sequence[UnramifiedApprox],
                         k: int | None) -> list[UnramifiedApprox]:
    """E_f at the Teichmuller point g^k: a T-expansion with coefficients in
    the unramified ring.  Entry j is the T^j coefficient.  The points and
    every coefficient of E_f must be known to the same precision."""
    b = ef.profile.b
    known = points[0].known
    out = [points[0] * 0] * b
    for u, c in ef.series.coeffs.items():
        if any(n != known for n in c.prec):
            raise CertificateError(f"E_f coefficient x^{u} is not known to "
                                   f"the {known} digits of the point")
        xu = _monomial_at(points, k, u)
        for j in range(b):
            if c.vals[j]:
                out[j] = out[j] + xu * c.vals[j]
    return out


def _mul_unram_tseries(a, b_, width):
    zero = a[0] - a[0]
    out = [zero for _ in range(width)]
    for i in range(width):
        for j in range(width - i):
            out[i + j] = out[i + j] + a[i] * b_[j]
    return out


def norm_of_ef_at_orbit(ef: SplittingFunction, points: Sequence[UnramifiedApprox],
                        k: int | None) -> ZpTSeries:
    """Product of E_f over the Frobenius orbit of the point g^k: E_f at the
    conjugates g^(k p^i), i < d, whose product lands in Z_p[[T]]."""
    prof = ef.profile
    p, b = prof.p, prof.b
    order = len(points)
    prod = None
    for i in range(points[0].degree):
        conj = None if k is None else k * ppow(p, i) % order
        val = evaluate_ef_at_point(ef, points, conj)
        prod = val if prod is None else _mul_unram_tseries(prod, val, b)
    # the orbit product is Galois stable; higher coordinates must vanish
    vals = []
    for j in range(b):
        coords = prod[j].coords
        for extra in coords[1:]:
            if extra % p ** prof.a != 0:
                raise CertificateError("orbit norm left the base ring")
        vals.append(coords[0])
    return ZpTSeries(p, b, vals, (prod[0].known,) * b)


def fiber_character_value(tower: TowerInput, points: Sequence[UnramifiedApprox],
                          k: int | None, prof: PrecisionProfile) -> ZpTSeries:
    """(1+T)^(Tr f(g^k)) at the Teichmuller point g^k."""
    val = tower.evaluate_teichmuller(points, k)
    if val.known != prof.work:
        raise CertificateError(f"f at a Teichmuller point is known to "
                               f"{val.known} digits, not {prof.work}")
    return one_plus_T_pow(unramified_trace(val), prof)
