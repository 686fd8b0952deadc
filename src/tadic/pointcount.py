"""Ground truth by enumeration: T-adic exponential sums of a tower.

For each point x of the affine line or torus over F_{p^d}, lift it to its
Teichmuller representative, evaluate f there, take the ring trace down to
Z_p, and add (1+T) raised to that trace.  This touches none of the
operator machinery, so agreement with the trace formula checks the whole
other pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, CertificateError, UsageError
from .fredholm import LFunctionSeries, l_from_traces
from .profile import PrecisionProfile
from .splitting import TowerInput
from .unramified import (
    UnramifiedApprox,
    default_modulus,
    field_elements,
    teichmuller_lift,
    unramified_trace,
)
from .xseries import Geometry
from .zp import ZpTSeries, one_plus_T_pow

POINT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class ExpSumReport:
    """Exponential sums S(T, d) for d = 1..dmax and the raw point counts."""

    sums: tuple[ZpTSeries, ...]
    point_counts: tuple[int, ...]


def exp_sum(tower: TowerInput, d: int, prof: PrecisionProfile) -> ZpTSeries:
    """The degree-d exponential sum: sum over points x in F_{p^d} (without
    0 on the torus) of (1+T)^(Tr f(x_hat))."""
    p = tower.p
    if p ** d > POINT_BUDGET:
        raise BudgetError(f"p^d = {p ** d} exceeds the enumeration budget {POINT_BUDGET}")
    if d > prof.dmax:
        raise UsageError(f"d = {d} exceeds dmax = {prof.dmax}")
    modulus = default_modulus(p, d)
    torus = tower.geometry is Geometry.TORUS
    acc = ZpTSeries.zero(p, prof.b, prof.work)
    count = 0
    for coords in field_elements(p, d):
        if torus and all(c == 0 for c in coords):
            continue
        count += 1
        x0 = UnramifiedApprox(p, modulus, coords, prof.work)
        xhat = teichmuller_lift(x0, prof)
        value = tower.evaluate_teichmuller(xhat)
        tr = unramified_trace(value)
        acc = acc + one_plus_T_pow(tr, prof)
    # at T = 0 every summand is 1
    if acc.vals[0] % p ** prof.a != count % p ** prof.a:
        raise CertificateError("exponential sum does not count points at T = 0")
    return acc


def exp_sum_report(tower: TowerInput, prof: PrecisionProfile,
                   dmax: int | None = None) -> ExpSumReport:
    dmax = prof.dmax if dmax is None else dmax
    if tower.p ** dmax > POINT_BUDGET:
        raise BudgetError(
            f"p^dmax = {tower.p ** dmax} exceeds the enumeration budget {POINT_BUDGET}")
    sums = []
    counts = []
    torus = tower.geometry is Geometry.TORUS
    for d in range(1, dmax + 1):
        sums.append(exp_sum(tower, d, prof))
        counts.append(tower.p ** d - (1 if torus else 0))
    return ExpSumReport(sums=tuple(sums), point_counts=tuple(counts))


def oracle_lfun(tower: TowerInput, prof: PrecisionProfile) -> tuple[LFunctionSeries, ExpSumReport]:
    """L-series of the tower assembled from enumerated exponential sums."""
    if tower.p != prof.p:
        raise UsageError(f"tower over F_{tower.p} with a profile for p = {prof.p}")
    if prof.dmax < prof.smax:
        raise UsageError("need dmax >= smax to assemble the oracle L-series")
    report = exp_sum_report(tower, prof)
    lf = l_from_traces(list(report.sums), prof.smax)
    return lf, report
