"""End-to-end runs shared by the command line interface and the tests.

A run starts from a tower plus a precision profile, assembles whichever
artifacts the command needs (splitting function, operator matrices,
characteristic series, enumerated sums), and packages comparison results
with honest effective precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .dwork import NuclearMatrix, assemble_matrix, basis_exponents
from .errors import BudgetError, CertificateError, PrecisionError, UsageError
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
    default_ef_bound,
    fiber_character_value,
    norm_of_ef_at_orbit,
)
from .unramified import frobenius_orbits, teichmuller_powers
from .xseries import Geometry
from .zp import ZpTSeries, ppow, vp_int


# The default D >= p must not let a large prime ask for a matrix that
# outruns the five minutes of CPU the oracle's POINT_BUDGET allows.
# `lfun --f 1:1` at the CLI defaults (a = 6, b = 8, smax = 4, D = p) took
# 2.1, 7.4, 15.9, 44.6, 79.3 and 158 s of CPU at N = 212, 402, 602, 810,
# 1010 and 1278 rows (p = 211 to 1277), about N^3, with a 271 MB peak at
# 1278; p = 2 on the torus took 4.2, 15.8 and 35.1 s at N = 401, 601 and
# 801 (Python 3.11 on a 2-core Xeon VM).  1280 rows keeps every run near
# 160 s at most, half the standard, which leaves room for slower hosts.
MAX_MATRIX_ROWS = 1280

# Past b = 8 the cost grows with b as well, fastest at p = 2, whose working
# digits grow with b: there `lfun --f 1:1` took 2.6, 39 and 120 s of CPU at
# (N, b) = (55, 50), (85, 80), (105, 100), about (N b)^3, and 7.3, 220 and
# 246 s at (21, 150), (52, 200), (35, 300), about N^2.5 b^3.2; pi and E_f
# alone (N = 3) took 14.4 and 37.4 s at b = 300 and 400.  At the limits
# below, p = 2 took 5.3, 36-37 and 22-25 s at (210, 50), (46, 150), (26, 200),
# p = 3 10 s at (105, 100), and p = 11 with f = x^3 0.83 s at (43, 120) with
# its doubling check; with the Krylov vectors of char_series uncut, 11, 43-44,
# 22-24, 43 and 1.6 s (Python 3.11 on a 2-core VM whose speed drifts by
# 10-20% from run to run).
MAX_MATRIX_WORK, MAX_PREC_T = 1_050_000, 400

# The fiber identity forms one norm of E_f per Frobenius orbit and one
# character per point, at each of the p + p^2 points of degree <= 2: 0.11-0.13
# ms of CPU per point at p = 31, 101 and 211 (b = 8), about 2 us per point x
# b^2, and 4.3-5.0 and 18-23 ms at (p, b) = (7, 120) and (3, 200), under 0.6 us.
# The points x b^2 rule is conservative, since the packed norm grows more
# slowly than b^2.  The budget admits p <= 439 at b = 8, whose selfcheck took
# 40 s (Python 3.11 on a 2-core VM).
FIBER_DEGREE, FIBER_BUDGET = 2, 12_500_000


def check_job(command: str, tower: TowerInput, prof: PrecisionProfile) -> int:
    """The one sizing rule: refuse a job whose work is past a limit before
    any of it, pi included, and return the degree bound of its matrices.
    The trace route (`run_trace_formula`: lfun, slopes) and compare build
    psi_0 and psi_1 at D, compare after the oracle's own rule; "doubling"
    (`doubling_check`) and selfcheck build only their rows |v| <= K that
    can be nonzero at 2D, and selfcheck checks the fiber identity at
    p + ... + p^FIBER_DEGREE points, points x b^2 within FIBER_BUDGET."""
    p, D, b = prof.p, prof.D, prof.b
    if tower.p != p:
        raise UsageError(f"tower over F_{tower.p} with a profile for p = {p}")
    if command == "compare":
        check_oracle_inputs(tower, prof)
    if D < p:
        raise UsageError(f"degree bound D = {D} too small: need D >= p = {p}")
    K = (min(2 * D, max(D, (2 * D + default_ef_bound(tower, prof)) // p))
         if command in ("doubling", "selfcheck") else D)
    rows = basis_exponents(tower.geometry, 0, K)[1]
    if rows > MAX_MATRIX_ROWS or rows * b * max(b, 100) > MAX_MATRIX_WORK or b > MAX_PREC_T:
        raise UsageError(f"psi_0 on |v| <= {K} (D = {D}): {rows} matrix rows at T-adic order "
                         f"b = {b}, over the limits rows <= {MAX_MATRIX_ROWS}, rows x b x "
                         f"max(b, 100) <= {MAX_MATRIX_WORK}, b <= {MAX_PREC_T}")
    points = sum(p ** d for d in range(1, FIBER_DEGREE + 1))
    if command == "selfcheck" and points * b * b > FIBER_BUDGET:
        raise BudgetError(f"the fiber identity's {points} points at b = {b}: "
                          f"points x b^2 over the budget {FIBER_BUDGET}")
    return K


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


def _same(a: ZpTSeries, c: ZpTSeries) -> bool:
    return a.vals == c.vals and a.prec == c.prec


def _c0_on_the_torus(m0: NuclearMatrix, m1: NuclearMatrix,
                     c1: FredholmSeries) -> FredholmSeries:
    """det(1 - s psi_0) = C_1(p s) on the torus, after certifying that
    psi_0 = p psi_1: both matrices carry the basis x^-D..x^D, and every
    entry of m0 must equal p times that of m1 in value and in precision.
    Entries share their E_f coefficient objects, so each distinct m1
    entry is scaled once."""
    p = m0.prof.p
    if (m0.basis_offset, m0.size) != (m1.basis_offset, m1.size):
        raise CertificateError("psi_0 and psi_1 are not on one basis")
    scaled: dict[int, ZpTSeries] = {}
    for v, (row0, row1) in enumerate(zip(m0.entries, m1.entries)):
        for u, (e0, e1) in enumerate(zip(row0, row1)):
            pe = scaled.get(id(e1))
            if pe is None:
                pe = scaled[id(e1)] = e1.scale(p)
            if not _same(e0, pe):
                raise CertificateError(f"psi_0 entry ({v},{u}) is not p times psi_1's")
    c0 = FredholmSeries(tuple(c.scale(ppow(p, k)) for k, c in enumerate(c1.coeffs)))
    c0.assert_integral()
    return c0


def run_trace_formula(tower: TowerInput, prof: PrecisionProfile) -> TraceFormulaRun:
    """The trace route: E_f, the matrices of psi_0 and psi_1 with their
    certificates, C_i = det(1 - s psi_i) and L = C_0 / C_1.  On the affine
    line both series come from `char_series`; on the torus psi_0 = p psi_1,
    so C_0(s) = C_1(p s) once that is certified (`_c0_on_the_torus`)."""
    check_job("lfun", tower, prof)
    ef = build_Ef(tower, prof)
    m0 = assemble_matrix(ef, 0, prof)
    m1 = assemble_matrix(ef, 1, prof)
    c1 = char_series(m1, prof.smax)
    c0 = (_c0_on_the_torus(m0, m1, c1) if tower.geometry is Geometry.TORUS
          else char_series(m0, prof.smax))
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
    check_job("compare", tower, prof)
    trace = run_trace_formula(tower, prof)
    lf_oracle, sums = oracle_lfun(tower, prof)
    verdict = compare_series(trace.lfun, lf_oracle)
    return CompareRun(trace=trace, oracle=lf_oracle, sums=sums, verdict=verdict)


def _base_block(small: NuclearMatrix, big: NuclearMatrix) -> range:
    """Indices of `big` that carry the basis of `small`, in its order,
    after certifying that `small` is the principal block of `big` there:
    every entry agrees in value and in precision."""
    shift = small.basis_offset - big.basis_offset
    if shift < 0 or shift + small.size > big.size:
        raise CertificateError(f"psi_{small.degree_index} basis at D is not inside 2D")
    idx = range(shift, shift + small.size)
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

    Row v of psi_i at 2D is (p or 1) E_f[p v - u] over |u| <= 2D, and
    `base.ef` (independent of D) stores nothing past R = d (b - 1), where
    E_f vanishes mod T^b.  So rows with p |v| - 2D > R are zero, and
    dropping them with their columns leaves det(1 - s psi_i) as it is.
    Only the rows that can be nonzero, |v| <= K with K from `check_job`,
    are assembled; the base matrices are certified to be their principal
    blocks, only the entries past those blocks get the decay and mod-T
    certificates, and the Berkowitz product resumes from the base series
    (`char_series` with `base`).

    On failure `info` names the series, the s- and T-index of
    the first differing coefficient and v_p of the difference at the
    joint precision (that precision when only the precision differs)."""
    if base.tower != tower or base.prof != prof:
        raise UsageError("the base run was made for another tower or profile")
    K = check_job("doubling", tower, prof)
    D, R = prof.D, base.ef.series.bound
    if any(abs(j) > R for j in base.ef.series.coeffs):
        raise CertificateError(f"E_f stores a coefficient past its window {R}")
    if K < 2 * D and prof.p * (K + 1) - 2 * D <= R:
        raise CertificateError(f"row {K + 1} at 2D is within reach of E_f")
    big = []
    for i, small, c in ((0, base.m0, base.c0), (1, base.m1, base.c1)):
        m = assemble_matrix(base.ef, i, prof.with_D(K), base_D=D)
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


def _check_fiber_identity(run: TraceFormulaRun) -> tuple[bool, str]:
    """Dwork's splitting lemma at every point of degree d <= FIBER_DEGREE:
    the q - 1 powers g^k of one Teichmuller generator per degree, and 0 on
    the affine line.  The points are visited orbit by orbit; the norm of an
    orbit is formed once, at its least element, and compared with the
    character at every point k p^i of the orbit."""
    tower, prof = run.tower, run.prof
    zero = [] if tower.geometry is Geometry.TORUS else [(None, 1)]
    for d in range(1, FIBER_DEGREE + 1):
        points = list(teichmuller_powers(prof.p, d, prof))
        for leader, size in chain(zero, frobenius_orbits(prof.p, len(points))):
            lhs = norm_of_ef_at_orbit(run.ef, points, leader).reduced(prof.a)
            for i in range(size):
                k = None if leader is None else leader * ppow(prof.p, i) % len(points)
                rhs = fiber_character_value(tower, points, k, prof)
                if not lhs.agrees_with(rhs.reduced(prof.a)):
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
    semilinearity, and the splitting-function round trip, sized before any
    work by `check_job`: the doubling check's rows |v| <= K and the fiber
    identity's points."""
    check_job("selfcheck", tower, prof)
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
