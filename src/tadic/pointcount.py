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
# bench/spans.py wraps teichmuller_lift under this module's name too
from .unramified import frobenius_orbits, teichmuller_lift, teichmuller_powers, unramified_trace  # noqa: F401
from .xseries import Geometry
from .zp import ZpTSeries, one_plus_T_pow, ppow, teichmuller_int

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


def check_oracle_inputs(tower: TowerInput, prof: PrecisionProfile) -> None:
    """The oracle's one rule: refuse a profile for another prime, dmax <
    smax, or a top degree past POINT_BUDGET.  It reads only the inputs, so
    `oracle_lfun`, `exp_sum` and compare refuse before any work."""
    if tower.p != prof.p:
        raise UsageError(f"tower over F_{tower.p} with a profile for p = {prof.p}")
    if prof.dmax < prof.smax:
        raise UsageError("need dmax >= smax to assemble the oracle L-series")
    if (n := prof.p ** prof.dmax) > POINT_BUDGET:
        raise BudgetError(f"{prof.p}^{prof.dmax} = {n} points exceed the enumeration budget {POINT_BUDGET}")


def _generator_traces(p: int, d: int, prof: PrecisionProfile) -> list[int]:
    """tr[k] = Tr(g_hat^k) mod p^work for 0 <= k < q - 1, over the powers
    of the Teichmuller generator as they are made (only the traces are
    kept); certified Galois invariant, tr[k] = tr[p k mod (q - 1)]."""
    tr = [unramified_trace(power) for power in teichmuller_powers(p, d, prof)]
    order = len(tr)
    for k in range(order):
        if tr[k] != tr[p * k % order]:
            raise CertificateError(f"trace table is not Galois invariant at k = {k}")
    return tr


def exp_sum(tower: TowerInput, d: int, prof: PrecisionProfile) -> ZpTSeries:
    """The degree-d exponential sum: sum over points x in F_{p^d} (without
    0 on the torus) of (1+T)^(Tr f(x_hat))."""
    check_oracle_inputs(tower, prof)
    p = tower.p
    if d > prof.dmax:
        raise UsageError(f"d = {d} exceeds dmax = {prof.dmax}")
    w = prof.work
    order = ppow(p, d) - 1
    torus = tower.geometry is Geometry.TORUS
    tr = _generator_traces(p, d, prof)
    terms = [(u % order, teichmuller_int(c, p, w))
             for u, c in tower.f_coeffs.items()]
    m = ppow(p, w)
    # x = 0 lies on the affine line only, and f(0) = 0 there
    weights = Counter() if torus else Counter({0: 1})
    for k, size in frobenius_orbits(p, order):
        weights[sum(c * tr[k * u % order] for u, c in terms) % m] += size
    acc = ZpTSeries.zero(p, prof.b, w)
    for t, n in weights.items():
        acc = acc + one_plus_T_pow(t, prof).scale(n)
    # at T = 0 every summand is 1, so the sum counts the points
    count = order + (0 if torus else 1)
    if acc.vals[0] % p ** prof.a != count % p ** prof.a:
        raise CertificateError("exponential sum does not count points at T = 0")
    return acc


def oracle_lfun(tower: TowerInput, prof: PrecisionProfile) -> tuple[LFunctionSeries, ExpSumReport]:
    """L-series of the tower assembled from the enumerated exponential sums
    of degrees 1..dmax."""
    check_oracle_inputs(tower, prof)
    p, dmax = tower.p, prof.dmax
    sums = tuple(exp_sum(tower, d, prof) for d in range(1, dmax + 1))
    torus = tower.geometry is Geometry.TORUS
    counts = tuple(p ** d - (1 if torus else 0) for d in range(1, dmax + 1))
    return l_from_traces(list(sums), prof.smax), ExpSumReport(sums=sums, point_counts=counts)
