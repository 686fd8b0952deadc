"""End-to-end runs shared by the command line interface and the tests.

A run starts from a tower plus a precision profile, assembles whichever
artifacts the command needs (splitting function, operator matrices,
characteristic series, enumerated sums), and packages comparison results
with honest effective precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dwork import NuclearMatrix, assemble_matrix
from .errors import CertificateError, PrecisionError, UsageError
from .fredholm import (
    FredholmSeries,
    LFunctionSeries,
    char_series,
    l_from_char_series,
    l_from_traces,
    power_traces,
)
from .pointcount import ExpSumReport, oracle_lfun
from .profile import PrecisionProfile
from .slopes import (
    NewtonPolygon,
    SlopeReport,
    hodge_bound_report,
    newton_polygon,
    slope_decomposition,
)
from .splitting import (
    SplittingFunction,
    TowerInput,
    build_Ef,
    fiber_character_value,
    norm_of_ef_at_orbit,
)
from .unramified import default_modulus, field_elements
from .xseries import Geometry
from .zp import ZpTSeries


@dataclass
class TraceFormulaRun:
    tower: TowerInput
    prof: PrecisionProfile
    ef: SplittingFunction
    m0: NuclearMatrix
    m1: NuclearMatrix
    c0: FredholmSeries
    c1: FredholmSeries
    lfun: LFunctionSeries


def run_trace_formula(tower: TowerInput, prof: PrecisionProfile) -> TraceFormulaRun:
    if tower.p != prof.p:
        raise UsageError(f"tower over F_{tower.p} with a profile for p = {prof.p}")
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    m1 = assemble_matrix(ef, 1, prof)
    c0 = char_series(m0, prof.smax)
    c1 = char_series(m1, prof.smax)
    lf = l_from_char_series(c0, c1)
    return TraceFormulaRun(tower=tower, prof=prof, ef=ef, m0=m0, m1=m1,
                           c0=c0, c1=c1, lfun=lf)


@dataclass
class RouteComparison:
    agree: bool
    effective_precision: int
    first_mismatch: tuple[int, int] | None
    mismatch_values: tuple[str, str] | None = None


def compare_series(lhs: LFunctionSeries, rhs: LFunctionSeries) -> RouteComparison:
    """Coefficientwise comparison at the joint known precision."""
    a_eff = None
    for k in range(min(lhs.smax, rhs.smax) + 1):
        a, b_ = lhs.coeff(k), rhs.coeff(k)
        for j in range(a.b):
            joint = min(a.prec[j], b_.prec[j])
            a_eff = joint if a_eff is None else min(a_eff, joint)
            m = a.p ** joint
            if a.vals[j] % m != b_.vals[j] % m:
                return RouteComparison(
                    agree=False, effective_precision=a_eff,
                    first_mismatch=(k, j),
                    mismatch_values=(str(a.vals[j] % m), str(b_.vals[j] % m)),
                )
    return RouteComparison(agree=True, effective_precision=a_eff, first_mismatch=None)


@dataclass
class CompareRun:
    trace: TraceFormulaRun
    oracle: LFunctionSeries
    sums: ExpSumReport
    verdict: RouteComparison


def run_compare(tower: TowerInput, prof: PrecisionProfile) -> CompareRun:
    trace = run_trace_formula(tower, prof)
    lf_oracle, sums = oracle_lfun(tower, prof)
    verdict = compare_series(trace.lfun, lf_oracle)
    return CompareRun(trace=trace, oracle=lf_oracle, sums=sums, verdict=verdict)


def _same(a: ZpTSeries, c: ZpTSeries) -> bool:
    return a.vals == c.vals and a.prec == c.prec


def _base_block(small: NuclearMatrix, big: NuclearMatrix) -> list[int]:
    """Indices of `big` that carry the basis of `small`, in its order,
    after certifying that `small` is the principal block of `big` there:
    every entry agrees in value and in precision."""
    shift = small.basis_offset - big.basis_offset
    if shift < 0 or shift + small.size > big.size:
        raise CertificateError(f"psi_{small.degree_index} basis at D is not inside 2D")
    idx = [shift + k for k in range(small.size)]
    for v, row in zip(idx, small.entries):
        for u, e in zip(idx, row):
            if not _same(e, big.entries[v][u]):
                raise CertificateError(
                    f"psi_{small.degree_index} entry ({v - shift},{u - shift}) "
                    "at D differs from its entry at 2D")
    return idx


def doubling_check(tower: TowerInput, prof: PrecisionProfile,
                   base: TraceFormulaRun | None = None) -> tuple[bool, dict]:
    """Extend the base run to twice the degree bound; every retained
    coefficient of both characteristic series and of L must reproduce
    exactly.

    E_f does not depend on D, so both 2D matrices are assembled from
    `base.ef`, with the theta gate, decay and mod-T certificates.  The
    base matrices are certified to be the blocks of the 2D matrices on
    the base exponents, and the Berkowitz product for each 2D matrix
    resumes from the base series past that block (`char_series` with
    `base`), so the 2D series equal a from-scratch recomputation."""
    if base is None:
        base = run_trace_formula(tower, prof)
    elif base.tower != tower or base.prof != prof:
        raise UsageError("the base run was made for another tower or profile")
    big_prof = prof.with_D(2 * prof.D)
    big = []
    for i, small, c in ((0, base.m0, base.c0), (1, base.m1, base.c1)):
        m = assemble_matrix(base.ef, i, big_prof)
        big.append(char_series(m, prof.smax, base=(c, _base_block(small, m))))
    big_l = l_from_char_series(*big)
    for name, small_s, big_s in (("C0", base.c0.coeffs, big[0].coeffs),
                                 ("C1", base.c1.coeffs, big[1].coeffs),
                                 ("L", base.lfun.coeffs, big_l.coeffs)):
        for k, (a, c) in enumerate(zip(small_s, big_s)):
            if not _same(a, c):
                return False, {"series": name, "s_index": k,
                               "at_D": list(a.vals), "at_2D": list(c.vals)}
    return True, {}


@dataclass
class SlopeRun:
    trace: TraceFormulaRun
    polygon: NewtonPolygon
    report: SlopeReport | None
    report_error: str | None
    hodge: dict


def run_slopes(tower: TowerInput, prof: PrecisionProfile,
               block_degree: int | None = None) -> SlopeRun:
    trace = run_trace_formula(tower, prof)
    npoly = newton_polygon(trace.c0)
    d = block_degree if block_degree is not None else max(tower.degree, 1)
    report, err = None, None
    try:
        report = slope_decomposition(npoly, d)
    except PrecisionError as exc:  # reported, the polygon itself is still returned
        err = str(exc)
    hodge = hodge_bound_report(npoly, prof.p, d)
    return SlopeRun(trace=trace, polygon=npoly, report=report,
                    report_error=err, hodge=hodge)


# self checks -----------------------------------------------------------------

def _check_route_agreement(run: TraceFormulaRun) -> tuple[bool, str]:
    t0 = power_traces(run.m0, run.prof.smax)
    t1 = power_traces(run.m1, run.prof.smax)
    sums = [a - b_ for a, b_ in zip(t0, t1)]
    via_traces = l_from_traces(sums, run.prof.smax)
    cmp_ = compare_series(run.lfun, via_traces)
    return cmp_.agree, ("" if cmp_.agree else f"mismatch at {cmp_.first_mismatch}")


def _check_fiber_identity(run: TraceFormulaRun, max_degree: int = 2) -> tuple[bool, str]:
    tower, prof = run.tower, run.prof
    torus = tower.geometry is Geometry.TORUS
    for d in range(1, max_degree + 1):
        modulus = default_modulus(prof.p, d)
        for coords in field_elements(prof.p, d):
            if torus and all(c == 0 for c in coords):
                continue
            lhs = norm_of_ef_at_orbit(run.ef, coords, modulus)
            rhs = fiber_character_value(tower, coords, modulus, prof)
            if not lhs.reduced(prof.a).agrees_with(rhs.reduced(prof.a)):
                return False, f"degree {d} point {coords}"
    return True, ""


def _check_semilinearity(run: TraceFormulaRun, trials: int = 20,
                         seed: int = 7) -> tuple[bool, str]:
    from .dwork import theta0_apply, theta1_apply
    from .xseries import XSeries

    prof = run.prof
    rng = random.Random(seed)
    geometry = run.tower.geometry
    p, b, w = prof.p, prof.b, prof.work
    lo = 0 if geometry is Geometry.AFFINE_LINE else -2
    # sigma(g) h reaches |exponent| 2p + 2; a narrower window would cut
    # terms from the left-hand side only and report a false failure
    window = max(prof.D, 2 * p + 2)
    for trial in range(trials):
        gdeg = rng.randrange(lo, 3)
        hdeg = rng.randrange(lo, 3)
        g = XSeries(run.ef.series.prof, geometry, window, {
            gdeg: ZpTSeries.from_ints(p, b, [rng.randrange(p ** w) for _ in range(b)], w)})
        h = XSeries(run.ef.series.prof, geometry, window, {
            hdeg: ZpTSeries.from_ints(p, b, [rng.randrange(p ** w) for _ in range(b)], w)})
        lhs = theta0_apply(g.frobenius_pullback() * h)
        rhs = g * theta0_apply(h)
        for u in set(lhs.coeffs) | set(rhs.coeffs):
            if not lhs.coeff(u).agrees_with(rhs.coeff(u)):
                return False, f"theta0 trial {trial}"
        hd = XSeries(run.ef.series.prof, geometry, window,
                     {hdeg: h.coeff(hdeg)}, differential=True)
        lhs = theta1_apply(g.frobenius_pullback() * hd)
        rhs = g * theta1_apply(hd)
        for u in set(lhs.coeffs) | set(rhs.coeffs):
            if not lhs.coeff(u).agrees_with(rhs.coeff(u)):
                return False, f"theta1 trial {trial}"
    return True, ""


def run_selfcheck(tower: TowerInput, prof: PrecisionProfile) -> dict:
    """Doubling stability, route agreement, fiber identities, operator
    semilinearity, and the splitting-function round trip."""
    run = run_trace_formula(tower, prof)
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    ok, info = doubling_check(tower, prof, base=run)
    add("doubling-D stability", ok, "" if ok else str(info))
    ok, detail = _check_route_agreement(run)
    add("route agreement", ok, detail)
    ok, detail = _check_fiber_identity(run)
    add("splitting fiber identity", ok, detail)
    ok, detail = _check_semilinearity(run)
    add("operator semilinearity", ok, detail)
    from .series import artin_hasse_fractions
    try:
        artin_hasse_fractions(prof.p, 32)
        add("Artin-Hasse integrality", True)
    except CertificateError as exc:
        add("Artin-Hasse integrality", False, str(exc))
    try:
        run.c0.assert_integral()
        run.c1.assert_integral()
        add("Fredholm integrality", True)
    except CertificateError as exc:
        add("Fredholm integrality", False, str(exc))
    return {"ok": all(c["ok"] for c in checks), "checks": checks}
