"""Ground truth by enumeration: T-adic exponential sums of a tower.

The degree-d sum adds (1+T)^(Tr f(x_hat)) over the points x of the affine
line or torus over F_q, q = p^d, where x_hat is the Teichmuller lift and
Tr the ring trace down to Z_p.  Each piece of work is done once:

* the default modulus is primitive, so its root x generates F_q^x; x is
  lifted to g_hat, and the powers of g_hat give every nonzero Teichmuller
  point; the table tr[k] = Tr(g_hat^k) costs one ring product per k and is
  certified (g_hat^(q-1) = 1 exactly, and tr[k] = tr[p k] since the trace
  is Galois invariant);
* the trace is linear, so Tr f(g_hat^k) = sum_u [c_u] tr[k u mod (q-1)],
  negative exponents of the torus included;
* one k per Frobenius orbit {k, p k, p^2 k, ...} is visited, weighted by
  the orbit size;
* the weights are collected in a histogram of trace residues, and
  (1+T)^t is expanded once per distinct t.

This touches none of the operator machinery, so agreement with the trace
formula checks the whole other pipeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import BudgetError, CertificateError, UsageError
from .fredholm import LFunctionSeries, l_from_traces
from .profile import PrecisionProfile
from .splitting import TowerInput
from .unramified import (
    UnramifiedApprox,
    default_modulus,
    teichmuller_lift,
    unramified_trace,
)
from .xseries import Geometry
from .zp import ZpApprox, ZpTSeries, one_plus_T_pow, ppow, teichmuller_int

# Points of one degree.  A degree holds q - 1 trace residues, a q - 1 byte
# orbit mask and the orbit list at once: tracemalloc measured a peak of
# 49-68 bytes and 38-95 us of CPU per point (q = 6e4 to 1.2e5, p = 2..7,
# work precision 8-19 digits; Python 3.11 on a 2-core Xeon VM).  3e6
# points stay near 200 MB and under five minutes of CPU per degree.
POINT_BUDGET = 3 * 10 ** 6


@dataclass(frozen=True)
class ExpSumReport:
    """Exponential sums S(T, d) for d = 1..dmax and the raw point counts."""

    sums: tuple[ZpTSeries, ...]
    point_counts: tuple[int, ...]


def _generator_traces(p: int, d: int, prof: PrecisionProfile) -> list[int]:
    """tr[k] = Tr(g_hat^k) mod p^work for 0 <= k < q - 1, where g_hat is the
    Teichmuller lift of x, the root of the primitive default modulus, which
    generates F_q^x; with both certificates."""
    modulus = default_modulus(p, d)
    w = prof.work
    order = ppow(p, d) - 1
    ghat = teichmuller_lift(UnramifiedApprox.root(p, modulus, w), prof)
    one = UnramifiedApprox.one(p, modulus, w)
    power = one
    tr = []
    for _ in range(order):
        tr.append(unramified_trace(power).residue)
        power = power * ghat
    if power.coords != one.coords:
        raise CertificateError(f"Teichmuller generator: g^{order} != 1 mod {p}^{w}")
    for k in range(order):
        if tr[k] != tr[p * k % order]:
            raise CertificateError(f"trace table is not Galois invariant at k = {k}")
    return tr


def _frobenius_orbits(p: int, order: int) -> list[tuple[int, int]]:
    """(least element, size) of each orbit {k, p k, p^2 k, ...} mod order."""
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


def exp_sum(tower: TowerInput, d: int, prof: PrecisionProfile) -> ZpTSeries:
    """The degree-d exponential sum: sum over points x in F_{p^d} (without
    0 on the torus) of (1+T)^(Tr f(x_hat))."""
    p = tower.p
    if p ** d > POINT_BUDGET:
        raise BudgetError(f"p^d = {p ** d} exceeds the enumeration budget {POINT_BUDGET}")
    if d > prof.dmax:
        raise UsageError(f"d = {d} exceeds dmax = {prof.dmax}")
    w = prof.work
    order = ppow(p, d) - 1
    torus = tower.geometry is Geometry.TORUS
    tr = _generator_traces(p, d, prof)
    terms = [(u % order, teichmuller_int(c, p, w).residue)
             for u, c in tower.f_coeffs.items()]
    m = ppow(p, w)
    # x = 0 lies on the affine line only, and f(0) = 0 there
    weights = Counter() if torus else Counter({0: 1})
    for k, size in _frobenius_orbits(p, order):
        weights[sum(c * tr[k * u % order] for u, c in terms) % m] += size
    acc = ZpTSeries.zero(p, prof.b, w)
    for t, n in weights.items():
        acc = acc + one_plus_T_pow(ZpApprox(p, t, w), prof).scale(n)
    # at T = 0 every summand is 1, so the sum counts the points
    count = order + (0 if torus else 1)
    if acc.vals[0] % p ** prof.a != count % p ** prof.a:
        raise CertificateError("exponential sum does not count points at T = 0")
    return acc


def oracle_lfun(tower: TowerInput, prof: PrecisionProfile) -> tuple[LFunctionSeries, ExpSumReport]:
    """L-series of the tower assembled from the enumerated exponential sums
    of degrees 1..dmax."""
    p, dmax = tower.p, prof.dmax
    if p != prof.p:
        raise UsageError(f"tower over F_{p} with a profile for p = {prof.p}")
    if dmax < prof.smax:
        raise UsageError("need dmax >= smax to assemble the oracle L-series")
    if p ** dmax > POINT_BUDGET:
        raise BudgetError(f"p^dmax = {p ** dmax} exceeds the enumeration budget {POINT_BUDGET}")
    sums = tuple(exp_sum(tower, d, prof) for d in range(1, dmax + 1))
    torus = tower.geometry is Geometry.TORUS
    counts = tuple(p ** d - (1 if torus else 0) for d in range(1, dmax + 1))
    return l_from_traces(list(sums), prof.smax), ExpSumReport(sums=sums, point_counts=counts)
