"""End-to-end runs shared by the command line interface and the tests.

A run starts from a tower plus a precision profile, assembles whichever
artifacts the command needs (splitting function, operator matrices,
characteristic series, enumerated sums), and packages comparison results
with honest effective precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dwork import NuclearMatrix, assemble_matrix, check_degree_bound
from .errors import CertificateError, PrecisionError, UsageError
from .fredholm import (
    FredholmSeries,
    LFunctionSeries,
    char_series,
    l_from_char_series,
    l_from_traces,
    power_traces,
)
from .pointcount import ExpSumReport, check_oracle_inputs, oracle_lfun
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
from .unramified import teichmuller_powers
from .xseries import Geometry
from .zp import ZpTSeries, ppow, vp_int


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
    check_degree_bound(tower.geometry, prof.p, prof.D)
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
    mismatch_vp: int | None = None


def _difference_vp(p: int, x: int, y: int, joint: int) -> int:
    """v_p of x - y known mod p^joint; joint when they agree to it."""
    diff = (x - y) % ppow(p, joint)
    return vp_int(diff, p) if diff else joint


def compare_series(lhs: LFunctionSeries, rhs: LFunctionSeries) -> RouteComparison:
    """Coefficientwise comparison at the joint known precision; a
    mismatch records where it is, both residues and v_p of their
    difference."""
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
                    mismatch_vp=_difference_vp(a.p, a.vals[j], b_.vals[j], joint),
                )
    return RouteComparison(agree=True, effective_precision=a_eff, first_mismatch=None)


@dataclass
class CompareRun:
    trace: TraceFormulaRun
    oracle: LFunctionSeries
    sums: ExpSumReport
    verdict: RouteComparison


def run_compare(tower: TowerInput, prof: PrecisionProfile) -> CompareRun:
    # the oracle's preconditions follow from the profile: refuse before any work
    check_oracle_inputs(tower, prof)
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
                   base: TraceFormulaRun) -> tuple[bool, dict]:
    """Extend the base run to twice the degree bound; every retained
    coefficient of both characteristic series and of L must reproduce
    exactly.

    E_f does not depend on D, so both 2D matrices are assembled from
    `base.ef`, with the theta gate, decay and mod-T certificates.  The
    base matrices are certified to be the blocks of the 2D matrices on
    the base exponents, and the Berkowitz product for each 2D matrix
    resumes from the base series past that block (`char_series` with
    `base`), so the 2D series equal a from-scratch recomputation.  The
    resumed product borders only the rows with a nonzero entry: row v
    of psi_i vanishes mod T^b once p v > 2D + d (b - 1), which at the
    decay-based D is nearly every row past the base block.

    On failure `info` names the series, the s- and T-index of
    the first differing coefficient and v_p of the difference at the
    joint precision (that precision when only the precision differs)."""
    if base.tower != tower or base.prof != prof:
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
                j = next(j for j in range(a.b)
                         if (a.vals[j], a.prec[j]) != (c.vals[j], c.prec[j]))
                vp = _difference_vp(a.p, a.vals[j], c.vals[j], min(a.prec[j], c.prec[j]))
                return False, {"series": name, "s_index": k, "T_index": j, "v_p": vp,
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
    report, err = None, None
    if tower.geometry is Geometry.TORUS:
        err = ("the r(n + beta_j) block model is fitted on the affine line only; "
               "the torus polygon is compared with HP(Delta) under hodge_bound")
    else:
        d = block_degree if block_degree is not None else max(tower.degree, 1)
        try:
            report = slope_decomposition(npoly, d)
        except PrecisionError as exc:  # reported, the polygon itself is still returned
            err = str(exc)
    # Delta = [-d2, d1] from the support of f; the zero tower keeps [0, 1]
    d1 = max((u for u in tower.f_coeffs if u > 0), default=0)
    d2 = max((-u for u in tower.f_coeffs if u < 0), default=0)
    hodge = hodge_bound_report(npoly, prof.p, d1 if d1 or d2 else 1, d2)
    return SlopeRun(trace=trace, polygon=npoly, report=report,
                    report_error=err, hodge=hodge)


# self checks -----------------------------------------------------------------

def _check_route_agreement(run: TraceFormulaRun) -> tuple[bool, str]:
    """L = exp(-sum_d tr(psi_0^d - psi_1^d) s^d / d) against the L of the
    characteristic series; a failure names the first differing
    coefficient and v_p of the difference."""
    t0 = power_traces(run.m0, run.prof.smax)
    t1 = power_traces(run.m1, run.prof.smax)
    sums = [a - b_ for a, b_ in zip(t0, t1)]
    via_traces = l_from_traces(sums, run.prof.smax)
    cmp_ = compare_series(run.lfun, via_traces)
    return cmp_.agree, ("" if cmp_.agree else
                        f"mismatch at {cmp_.first_mismatch}, v_p {cmp_.mismatch_vp}")


FIBER_DEGREE = 2


def _check_fiber_identity(run: TraceFormulaRun) -> tuple[bool, str]:
    """Dwork's splitting lemma at every point of degree d <= FIBER_DEGREE:
    the q - 1 powers g^k of one Teichmuller generator per degree, and 0 on
    the affine line."""
    tower, prof = run.tower, run.prof
    zero = [] if tower.geometry is Geometry.TORUS else [None]
    for d in range(1, FIBER_DEGREE + 1):
        points = list(teichmuller_powers(prof.p, d, prof))
        for k in zero + list(range(len(points))):
            lhs = norm_of_ef_at_orbit(run.ef, points, k)
            rhs = fiber_character_value(tower, points, k, prof)
            if not lhs.reduced(prof.a).agrees_with(rhs.reduced(prof.a)):
                return False, f"degree {d} point {'0' if k is None else f'g^{k}'}"
    return True, ""


def _check_semilinearity(run: TraceFormulaRun, trials: int = 20,
                         seed: int = 7) -> tuple[bool, str]:
    """theta_i(sigma(g) h) = g theta_i(h) for random g and monomial h, and
    the matrices' entry rule: column h of `psi_entries` with E := g is
    theta_i(g h) on the theta gate's window |u| <= 3p."""
    from .dwork import psi_entries, theta0_apply, theta1_apply
    from .xseries import XSeries

    prof = run.prof
    rng = random.Random(seed)
    geometry = run.tower.geometry
    p, b, w = prof.p, prof.b, prof.work
    affine = geometry is Geometry.AFFINE_LINE
    lo = 0 if affine else -2
    # sigma(g) h reaches |exponent| 2p + 2; a narrower window would cut
    # terms from the left-hand side only and report a false failure
    window = max(prof.D, 2 * p + 2)
    exps = range(0 if affine else -3 * p, 3 * p + 1)
    for trial in range(trials):
        gdeg = rng.randrange(lo, 3)
        hdeg = rng.randrange(lo, 3)
        col = exps.index(hdeg)
        g = XSeries(prof, geometry, window, {
            gdeg: ZpTSeries.from_ints(p, b, [rng.randrange(p ** w) for _ in range(b)], w)})
        c = ZpTSeries.from_ints(p, b, [rng.randrange(p ** w) for _ in range(b)], w)
        for i, theta in enumerate((theta0_apply, theta1_apply)):
            h = XSeries(prof, geometry, window, {hdeg: c}, differential=i == 1)
            lhs = theta(g.frobenius_pullback() * h)
            rhs = g * theta(h)
            for u in set(lhs.coeffs) | set(rhs.coeffs):
                if not lhs.coeff(u).agrees_with(rhs.coeff(u)):
                    return False, f"theta{i} trial {trial}"
            gh = theta(g * h)
            for v, row in zip(exps, psi_entries(g.coeffs, i, prof, exps)):
                if not (row[col] * c).agrees_with(gh.coeff(v)):
                    return False, f"psi_{i} lookup rule, trial {trial}"
    return True, ""


def run_selfcheck(tower: TowerInput, prof: PrecisionProfile) -> dict:
    """Doubling stability, route agreement, fiber identities, operator
    semilinearity, and the splitting-function round trip.  The doubling
    check's 2D row limit is checked before any work."""
    check_degree_bound(tower.geometry, prof.p, 2 * prof.D)
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
