"""Splitting functions of Z_p-towers.

A tower is given by a polynomial (or Laurent polynomial) f with
coefficients in F_p.  Lifting each coefficient c to its Teichmuller
representative [c], the splitting function is the product of Artin-Hasse
factors E(pi [c] x^u) over the monomials of f.  Its coefficients decay
T-adically at rate ceil(|k| / deg f), which is what later makes the Dwork
operator matrices nuclear; that decay is checked here as a certificate.
"""

from __future__ import annotations

import math
import warnings
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

    Coefficients are residues mod p; zero coefficients and the constant
    term are dropped (the constant only shifts the exponential sums by a
    global unit and is normalized away)."""

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
                warnings.warn("constant term of f discarded (normalized to 0)")
                continue
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

    def evaluate_teichmuller(self, point: UnramifiedApprox) -> UnramifiedApprox:
        """f at a Teichmuller point, all arithmetic in the unramified ring."""
        acc = UnramifiedApprox.zero(point.p, point.modulus, point.known)
        for u, c in self.f_coeffs.items():
            lift = teichmuller_int(c, self.p, point.known)
            acc = acc + (point ** u) * lift
        return acc


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

def evaluate_ef_at_point(ef: SplittingFunction,
                         point: UnramifiedApprox) -> list[UnramifiedApprox]:
    """E_f at a Teichmuller point: a T-expansion with coefficients in the
    unramified ring.  Entry j is the T^j coefficient.  The point and every
    coefficient of E_f must be known to the same precision."""
    b = ef.profile.b
    out = [UnramifiedApprox.zero(point.p, point.modulus, point.known) for _ in range(b)]
    for u, c in ef.series.coeffs.items():
        if any(k != point.known for k in c.prec):
            raise CertificateError(f"E_f coefficient x^{u} is not known to "
                                   f"the {point.known} digits of the point")
        xu = point ** u
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


def norm_of_ef_at_orbit(ef: SplittingFunction, residue_coords,
                        modulus) -> ZpTSeries:
    """Product of E_f over the Frobenius orbit of a residue: the conjugate
    values are E_f at the Teichmuller lifts of the p-power residues, and
    their product lands in Z_p[[T]]."""
    from .unramified import teichmuller_lift

    prof = ef.profile
    p, b, w = prof.p, prof.b, prof.work
    d = len(modulus) - 1
    x0 = UnramifiedApprox(p, modulus, residue_coords, w)
    prod = None
    cur = x0
    for _ in range(d):
        t = teichmuller_lift(cur, prof)
        val = evaluate_ef_at_point(ef, t)
        prod = val if prod is None else _mul_unram_tseries(prod, val, b)
        cur = cur ** p
    # the orbit product is Galois stable; higher coordinates must vanish
    vals = []
    for j in range(b):
        coords = prod[j].coords
        for extra in coords[1:]:
            if extra % p ** prof.a != 0:
                raise CertificateError("orbit norm left the base ring")
        vals.append(coords[0])
    return ZpTSeries(p, b, vals, (prod[0].known,) * b)


def fiber_character_value(tower: TowerInput, residue_coords, modulus,
                          prof: PrecisionProfile) -> ZpTSeries:
    """(1+T)^(Tr f(x_hat)) at the Teichmuller point above the residue."""
    from .unramified import teichmuller_lift

    p, w = prof.p, prof.work
    x0 = UnramifiedApprox(p, modulus, residue_coords, w)
    t = teichmuller_lift(x0, prof)
    val = tower.evaluate_teichmuller(t)
    if val.known != prof.work:
        raise CertificateError(f"f at a Teichmuller point is known to "
                               f"{val.known} digits, not {prof.work}")
    return one_plus_T_pow(unramified_trace(val), prof)
