"""Tests for the orchestration layer."""

import copy
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadic import dwork, pipeline, splitting, unramified, zp
from tadic.cli import EXIT_MISMATCH, JobConfig, run
from tadic.errors import CertificateError, UsageError
from tadic.fredholm import LFunctionSeries, char_series, l_from_char_series
from tadic.pipeline import (
    FIBER_DEGREE,
    _base_block,
    _check_fiber_identity,
    _check_semilinearity,
    compare_series,
    doubling_check,
    run_selfcheck,
    run_compare,
    run_slopes,
    run_trace_formula,
)
from tadic.pointcount import oracle_lfun
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput, build_Ef
from tadic.xseries import Geometry
from tadic.zp import ZpTSeries


def profile(p=2, a=5, b=5, smax=3, dmax=3, degree=1, D=None):
    return PrecisionProfile.create(p, a, b, smax, dmax, degree=degree, D=D)


def test_compare_series_detects_mismatch():
    prof = profile()
    w = prof.work
    base = [ZpTSeries.one(2, 5, w), ZpTSeries.from_ints(2, 5, [3, 1], w)]
    other = [ZpTSeries.one(2, 5, w), ZpTSeries.from_ints(2, 5, [3, 1, 4], w)]
    lhs = LFunctionSeries(tuple(base))
    rhs = LFunctionSeries(tuple(other))
    res = compare_series(lhs, rhs)
    assert not res.agree
    assert res.first_mismatch == (1, 2)
    assert res.mismatch_values == ("0", "4")
    assert res.mismatch_vp == 2
    # agreement below the joint precision is still agreement
    close = [ZpTSeries.one(2, 5, w),
             ZpTSeries(2, 5, (3 + 2 ** 4, 1, 0, 0, 0), (4, w, w, w, w))]
    res = compare_series(lhs, LFunctionSeries(tuple(close)))
    assert res.agree
    assert res.effective_precision == 4


def test_doubling_check_smoke():
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    prof = profile()
    ok, info = doubling_check(tower, prof, base=run_trace_formula(tower, prof))
    assert ok and info == {}


def test_doubling_check_rejects_base_of_another_run():
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    prof = profile()
    base = run_trace_formula(tower, prof)
    with pytest.raises(UsageError):
        doubling_check(TowerInput(2, Geometry.AFFINE_LINE, {3: 1}), prof, base=base)
    with pytest.raises(UsageError):
        doubling_check(tower, prof.with_D(prof.D + 1), base=base)


def doubling_by_recomputation(small, big):
    """Reference verdict: the base run against the whole route rerun at 2D,
    naming the first differing T-coefficient and v_p of the difference at
    the joint precision."""
    for name, xs, ys in (("C0", small.c0.coeffs, big.c0.coeffs),
                         ("C1", small.c1.coeffs, big.c1.coeffs),
                         ("L", small.lfun.coeffs, big.lfun.coeffs)):
        for k, (a, c) in enumerate(zip(xs, ys)):
            if (a.vals, a.prec) != (c.vals, c.prec):
                j = [x != y for x, y in zip(zip(a.vals, a.prec), zip(c.vals, c.prec))].index(True)
                joint = min(a.prec[j], c.prec[j])
                vp = next(v for v in range(joint + 1)
                          if v == joint or (a.vals[j] - c.vals[j]) % a.p ** (v + 1))
                return False, {"series": name, "s_index": k, "T_index": j, "v_p": vp,
                               "at_D": list(a.vals), "at_2D": list(c.vals)}
    return True, {}


@pytest.mark.parametrize("sufficient", [False, True])
@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("p,b,d", [(2, 6, 3), (3, 6, 2), (5, 12, 3), (7, 16, 4)])
def test_doubling_extension_matches_recomputation(p, b, d, geometry, sufficient):
    low = 1 if geometry is Geometry.AFFINE_LINE else -1
    tower = TowerInput(p, geometry, {d: 1, low: 1})
    # D = p is the least bound allowed; the other is the decay-based bound
    D = -(-d * b // (p - 1)) + 2 * d if sufficient else p
    prof = profile(p=p, a=3, b=b, degree=d, D=D)
    base = run_trace_formula(tower, prof)
    big = run_trace_formula(tower, prof.with_D(2 * D))
    for small, c, m, want in ((base.m0, base.c0, big.m0, big.c0),
                              (base.m1, base.c1, big.m1, big.c1)):
        got = char_series(m, prof.smax, base=(c, _base_block(small, m)))
        assert [(x.vals, x.prec) for x in got.coeffs] == \
            [(x.vals, x.prec) for x in want.coeffs]
    verdict = doubling_check(tower, prof, base=base)
    assert verdict == doubling_by_recomputation(base, big)
    assert verdict[0] is sufficient


def test_doubling_check_on_the_slopes_deep_tower_borders_no_row(monkeypatch):
    # p = 7, f = x^3, b = 64 at the decay-based D = 38: every row of either
    # 2D matrix past the base block vanishes mod T^b, so the extension
    # makes no row-times-column product at all
    p, b, d = 7, 64, 3
    tower = TowerInput(p, Geometry.AFFINE_LINE, {d: 1})
    prof = PrecisionProfile.create(p, 6, b, 6, 1, degree=d, D=-(-d * b // (p - 1)) + 2 * d)
    base = run_trace_formula(tower, prof)
    dots = []
    dot = zp.Packer.dot
    monkeypatch.setattr(zp.Packer, "dot", lambda self, *args: dots.append(1) or dot(self, *args))
    assert doubling_check(tower, prof, base=base) == (True, {})
    assert dots == []


def _record_border(monkeypatch):
    """(matrix size, base block size) of every `char_series` call the
    doubling check makes."""
    calls = []
    series = pipeline.char_series

    def spy(M, smax, base=None):
        calls.append((M.size, len(base[1])))
        return series(M, smax, base=base)

    monkeypatch.setattr(pipeline, "char_series", spy)
    return calls


@pytest.mark.parametrize("change,D", [("value", None), ("precision", None),
                                      ("value", 3), ("precision", 3)],
                         ids=["value", "precision", "value-border", "precision-border"])
def test_doubling_check_rejects_base_block_that_disagrees(monkeypatch, change, D):
    # at the default D no row past the base block can be nonzero at 2D;
    # at D = p = 3 the rows x^4 and x^-4 can, and psi_0 is bordered by them
    tower = TowerInput(3, Geometry.TORUS, {2: 1, -1: 1})
    prof = profile(p=3, degree=2, D=D)
    base = run_trace_formula(tower, prof)
    entries = [row[:] for row in base.m1.entries]
    e = entries[1][0]
    if change == "value":
        entries[1][0] = e + ZpTSeries.one(e.p, e.b, prof.work)
    else:
        entries[1][0] = ZpTSeries(e.p, e.b, e.vals, (prof.work + 1,) * e.b)
    bad = replace(base, m1=replace(base.m1, entries=entries))
    calls = _record_border(monkeypatch)
    with pytest.raises(CertificateError, match=r"psi_1 entry \(1,0\)"):
        doubling_check(tower, prof, base=bad)
    [(size, block)] = calls
    assert (size > block) is (D is not None)


@pytest.mark.parametrize("sign", [1, -1])
def test_doubling_check_refuses_an_ef_coefficient_past_its_window(sign):
    # rows are dropped because E_f stores nothing past d (b - 1); a stored
    # coefficient there would reach them
    tower = TowerInput(3, Geometry.TORUS, {2: 1, -1: 1})
    prof = profile(p=3, degree=2)
    base = run_trace_formula(tower, prof)
    series = copy.copy(base.ef.series)
    series.coeffs = {**series.coeffs,
                     sign * (series.bound + 1): ZpTSeries.one(3, prof.b, prof.work)}
    bad = replace(base, ef=replace(base.ef, series=series))
    with pytest.raises(CertificateError, match="past its window"):
        doubling_check(tower, prof, base=bad)


@pytest.mark.parametrize("p,geometry,f,b,D,K", [
    (2, Geometry.AFFINE_LINE, {1: 1}, 8, 4, 7),        # D < K < 2D
    (7, Geometry.AFFINE_LINE, {3: 1}, 8, 7, 7),        # K = D
    (3, Geometry.TORUS, {1: 1, -1: 1}, 8, 3, 4),       # D < K < 2D
    (5, Geometry.TORUS, {1: 1, -1: 1}, 4, 5, 5),       # K = D
])
def test_doubling_check_builds_the_rows_its_sizing_counts(monkeypatch, p, geometry, f, b, D, K):
    tower = TowerInput(p, geometry, f)
    prof = profile(p=p, b=b, degree=tower.degree, D=D)
    base = run_trace_formula(tower, prof)
    sized = []
    assemble = pipeline.assemble_matrix

    def spy(ef, i, big_prof, base_D=None):
        sized.append(big_prof.D)
        return assemble(ef, i, big_prof, base_D=base_D)

    monkeypatch.setattr(pipeline, "assemble_matrix", spy)
    doubling_check(tower, prof, base=base)
    assert pipeline.check_job("selfcheck", tower, prof) == K
    assert sized == [K, K]


def test_doubling_check_refuses_an_over_limit_K_before_any_assembly(monkeypatch):
    # as slopes-deep calls it: D = 56 fits at b = 100 (57 rows), K = 105
    # does not (106 rows); the base run is never read
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was assembled before K was sized")

    monkeypatch.setattr(pipeline, "assemble_matrix", refuse)
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    prof = profile(p=2, b=100, D=56)
    pipeline.check_job("lfun", tower, prof)
    base = pipeline.TraceFormulaRun(tower, prof, *[None] * 6)
    with pytest.raises(UsageError, match="106 matrix rows"):
        doubling_check(tower, prof, base=base)


@pytest.mark.parametrize("vu,message", [
    ((5, 1), "decay bound"),      # E_f[14] must vanish to T^7
    ((2, 6), "mod T is"),         # E_f[0]: theta_0 mod T
    ((1, 4), "should vanish"),    # E_f[-1] on the affine line
])
def test_doubling_check_certifies_the_border_entries(monkeypatch, vu, message):
    # p = 3, f = x^2, b = 8, D = 3: the 2D matrices keep the exponents
    # up to K = (6 + 14) // 3 = 6, and (v, u) lies past the base block
    tower = TowerInput(3, Geometry.AFFINE_LINE, {2: 1})
    prof = profile(p=3, b=8, degree=2, D=3)
    base = run_trace_formula(tower, prof)
    # D = p is too small, which the check reports without raising
    assert doubling_check(tower, prof, base=base)[0] is False
    rule = dwork.psi_entries
    # T itself, or 1 added to the entry that must be p mod T
    plant = ZpTSeries.from_ints(3, prof.b, [0, 1] if message != "mod T is" else [1], prof.work)

    def planted(coeffs, i, big_prof, exps):
        entries = rule(coeffs, i, big_prof, exps)
        if i == 0:
            v, u = (list(exps).index(x) for x in vu)
            entries[v][u] = entries[v][u] + plant if message == "mod T is" else plant
        return entries

    monkeypatch.setattr(dwork, "psi_entries", planted)
    with pytest.raises(CertificateError, match=message):
        doubling_check(tower, prof, base=base)


def test_run_selfcheck_torus():
    tower = TowerInput(2, Geometry.TORUS, {1: 1, -1: 1})
    prof = profile()
    out = run_selfcheck(tower, prof)
    assert out["ok"], out
    assert len(out["checks"]) == 6


def test_route_agreement_failure_names_coefficient_and_vp(monkeypatch):
    # p^3 planted in tr(psi_0) moves S_1, so L_1 of the trace route, by p^3
    traces = pipeline.power_traces

    def planted(M, dmax):
        out = traces(M, dmax)
        if M.degree_index == 0:
            t = out[0]
            out[0] = t + ZpTSeries.from_ints(t.p, t.b, [t.p ** 3], t.prec[0])
        return out

    monkeypatch.setattr(pipeline, "power_traces", planted)
    out = run_selfcheck(TowerInput(3, Geometry.TORUS, {2: 1, -1: 1}),
                        profile(p=3, a=5, b=4, smax=2, dmax=2))
    failed = [c for c in out["checks"] if not c["ok"]]
    assert not out["ok"]
    assert failed == [{"name": "route agreement", "ok": False,
                       "detail": "mismatch at (1, 0), v_p 3"}]


def test_selfcheck_lifts_once_per_degree(monkeypatch):
    # the fiber identity walks the powers of one generator per degree
    # instead of lifting each point and its conjugates
    lifted = []
    lift = unramified.teichmuller_lift

    def spy(x0, prof):
        lifted.append(x0.degree)
        return lift(x0, prof)

    monkeypatch.setattr(unramified, "teichmuller_lift", spy)
    tower = TowerInput(5, Geometry.TORUS, {2: 1, -1: 3})
    out = run_selfcheck(tower, profile(p=5, a=4, b=4, smax=2, dmax=2))
    assert out["ok"], out
    assert sorted(lifted) == list(range(1, FIBER_DEGREE + 1))


@pytest.mark.parametrize("geometry", list(Geometry))
def test_fiber_identity_evaluates_ef_once_per_point(monkeypatch, geometry):
    # one norm per Frobenius orbit, and one at 0 on the affine line; one
    # evaluation of E_f and one character per point, q - 1 of degree d on
    # the torus and 0 besides on the affine line, not an evaluation per
    # conjugate of each point (d per point)
    evaluations, norms, characters = Counter(), Counter(), Counter()

    def counted(calls, fn):
        def spy(*args):
            calls[args[1][0].degree] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(splitting, "evaluate_ef_at_point",
                        counted(evaluations, splitting.evaluate_ef_at_point))
    monkeypatch.setattr(pipeline, "norm_of_ef_at_orbit",
                        counted(norms, pipeline.norm_of_ef_at_orbit))
    monkeypatch.setattr(pipeline, "fiber_character_value",
                        counted(characters, pipeline.fiber_character_value))
    p = 5
    run = run_trace_formula(TowerInput(p, geometry, {2: 1, 1: 3}),
                            profile(p=p, a=4, b=4, smax=2, dmax=2, degree=2))
    assert _check_fiber_identity(run) == (True, "")
    torus = geometry is Geometry.TORUS
    degrees = range(1, FIBER_DEGREE + 1)
    orbits = {d: len({min(k * p ** i % (p ** d - 1) for i in range(d))
                      for k in range(p ** d - 1)}) for d in degrees}
    assert orbits == {1: 4, 2: 14}
    assert norms == {d: orbits[d] + (not torus) for d in degrees}
    assert evaluations == characters == {d: p ** d - torus for d in degrees}


def test_fiber_identity_compares_the_character_at_every_point(monkeypatch):
    # a fault in the character at g^5, which is not the least element of
    # its degree-2 orbit {1, 5} at p = 5, fails the check and is named
    p = 5
    prof = profile(p=p, a=4, b=4, smax=2, dmax=2, degree=2)
    tower = TowerInput(p, Geometry.AFFINE_LINE, {2: 1, 1: 3})
    run = SimpleNamespace(tower=tower, prof=prof, ef=build_Ef(tower, prof))
    assert _check_fiber_identity(run) == (True, "")
    character = pipeline.fiber_character_value

    def planted(tower, points, k, prof):
        val = character(tower, points, k, prof)
        if points[0].degree == 2 and k == 5:
            val = val + ZpTSeries.one(p, prof.b, prof.work)
        return val

    monkeypatch.setattr(pipeline, "fiber_character_value", planted)
    assert _check_fiber_identity(run) == (False, "degree 2 point g^5")


def test_fiber_identity_check_names_the_failing_point():
    # E_f of f = x^3 + 2/x^2 against the character of f = x^3 + 2/x^3
    prof = profile(p=7, a=4, b=4, smax=2, dmax=2, degree=3)
    ef = build_Ef(TowerInput(7, Geometry.TORUS, {3: 1, -2: 2}), prof)
    wrong = SimpleNamespace(tower=TowerInput(7, Geometry.TORUS, {3: 1, -3: 2}),
                            prof=prof, ef=ef)
    ok, detail = _check_fiber_identity(wrong)
    assert not ok and re.fullmatch(r"degree [12] point g\^\d+", detail), detail


@pytest.mark.parametrize("change", ["value", "precision"])
def test_torus_c0_certifies_psi0_is_p_times_psi1(monkeypatch, change):
    # C_0 is read off C_1 only after every entry of psi_0 is certified to
    # be p times psi_1's, in value and in precision
    assemble = pipeline.assemble_matrix
    prof = profile(p=3, degree=2)

    def planted(ef, i, prof, base_D=None):
        mat = assemble(ef, i, prof, base_D=base_D)
        if i == 0:
            e = mat.entries[2][3]
            mat.entries[2] = mat.entries[2][:]
            mat.entries[2][3] = (e + ZpTSeries.one(e.p, e.b, prof.work) if change == "value"
                                 else ZpTSeries(e.p, e.b, e.vals, (prof.work + 1,) * e.b))
        return mat

    monkeypatch.setattr(pipeline, "assemble_matrix", planted)
    with pytest.raises(CertificateError, match=r"psi_0 entry \(2,3\) is not p times"):
        run_trace_formula(TowerInput(3, Geometry.TORUS, {2: 1, -1: 1}), prof)


@pytest.mark.parametrize("geometry,psi", [(Geometry.AFFINE_LINE, [0, 1]),
                                          (Geometry.TORUS, [1])])
def test_char_series_runs_on_psi0_off_the_torus_only(monkeypatch, geometry, psi):
    seen = []
    series = pipeline.char_series

    def spy(M, smax, base=None):
        seen.append(M.degree_index)
        return series(M, smax, base=base)

    monkeypatch.setattr(pipeline, "char_series", spy)
    run_trace_formula(TowerInput(3, geometry, {2: 1, 1: 1}), profile(p=3, degree=2))
    assert sorted(seen) == psi


def test_run_slopes_reports_insufficient_precision():
    # a short polygon cannot be decomposed; the error is reported, the
    # polygon still comes back
    tower = TowerInput(2, Geometry.AFFINE_LINE, {3: 1})
    prof = profile(degree=3)
    res = run_slopes(tower, prof)
    assert res.report is None
    assert "increase precision" in res.report_error
    assert res.polygon.points[0].valuation == 0


def test_mismatched_primes_are_a_usage_error():
    tower = TowerInput(3, Geometry.AFFINE_LINE, {2: 1, 1: 1})
    prof = profile(p=2)
    for run in (run_compare, run_trace_formula, oracle_lfun):
        with pytest.raises(UsageError):
            run(tower, prof)


@pytest.mark.parametrize("geometry", list(Geometry))
def test_semilinearity_check_passes_on_default_p7_profile(geometry):
    # at D = 12 < 2p + 2 the check used to cut sigma(g) h on one side only
    # and report a failure on correct operators
    prof = PrecisionProfile.create(7, 6, 8, 4, 4, degree=1)
    assert prof.D < 2 * 7 + 2
    run = run_trace_formula(TowerInput(7, geometry, {1: 1}), prof)
    assert _check_semilinearity(run) == (True, "")


@pytest.mark.parametrize("geometry", list(Geometry))
def test_semilinearity_check_catches_an_operator_that_is_not(monkeypatch, geometry):
    # the identity on differentials is not semilinear, and is not the map
    # the matrices' entry rule describes: a trial with sigma(g) != g catches
    # the first, one with a constant g only the second
    monkeypatch.setattr(dwork, "theta1_apply", lambda g: g)
    run = run_trace_formula(TowerInput(3, geometry, {1: 1}), profile(p=3, a=4, b=4))
    ok, detail = _check_semilinearity(run)
    assert not ok and detail.startswith(("theta1 trial", "psi_1 lookup rule"))


def test_selfcheck_checks_the_rule_the_matrices_use(monkeypatch):
    # plant a torus-only error in psi_i's entry rule, E[|p v - u|] for
    # E[p v - u]: the theta gate sees only E := 1, and both matrices and
    # their 2D extensions share the error, so of the selfcheck entries
    # only the lookup-rule part of the semilinearity check can catch it
    rule = dwork.psi_entries

    def folded(coeffs, i, prof, exps):
        if min(exps) < 0:  # only torus bases reach negative exponents
            coeffs = {s * j: c for j, c in coeffs.items() if j >= 0 for s in (1, -1)}
        return rule(coeffs, i, prof, exps)

    monkeypatch.setattr(dwork, "psi_entries", folded)
    kw = dict(a=4, b=5, smax=3, dmax=3)
    report, code = run(JobConfig("selfcheck", 3, "torus", {2: 1, -1: 1}, **kw))
    assert code == EXIT_MISMATCH
    failed = [c for c in report["results"]["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["operator semilinearity"]
    assert failed[0]["detail"].startswith("psi_0 lookup rule")
    # the planted rule is a real fault: the two routes disagree, and the
    # report gives v_p of the difference at the first mismatch
    report, code = run(JobConfig("compare", 3, "torus", {2: 1, -1: 1}, **kw))
    assert code == EXIT_MISMATCH
    mm = report["results"]["first_mismatch"]
    digits = report["results"]["effective_precision"]
    diff = (int(mm["trace_formula"]) - int(mm["oracle"])) % 3 ** digits
    assert diff % 3 ** mm["v_p"] == 0 and diff % 3 ** (mm["v_p"] + 1)


@st.composite
def towers(draw):
    """p in {2, 3, 5, 7}, either geometry, f of one or two monomials with
    exponents 1..3 (affine) or +-1..+-3 (torus) and units as coefficients."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    geometry = draw(st.sampled_from(list(Geometry)))
    exps = [1, 2, 3] if geometry is Geometry.AFFINE_LINE else [-3, -2, -1, 1, 2, 3]
    support = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=2, unique=True))
    return TowerInput(p, geometry, {u: draw(st.integers(1, p - 1)) for u in support})


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(tower=towers())
def test_random_towers_agree_and_double(tower):
    prof = PrecisionProfile.create(tower.p, 3, 4, 2, 2, degree=tower.degree)
    res = run_compare(tower, prof)
    assert res.verdict.agree, res.verdict.first_mismatch
    # on the torus C_0 is C_1(p s); it must be det(1 - s psi_0) itself, at
    # D and, resumed from it by the doubling check, at 2D
    series = [(x.vals, x.prec) for x in res.trace.c0.coeffs]
    assert series == [(x.vals, x.prec) for x in char_series(res.trace.m0, prof.smax).coeffs]
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "char_series", lambda *args, fn=pipeline.char_series, **kw:
                   seen.append(fn(*args, **kw)) or seen[-1])
        assert doubling_check(tower, prof, base=res.trace) == (True, {})
    whole = char_series(dwork.assemble_matrix(res.trace.ef, 0, prof.with_D(2 * prof.D)),
                        prof.smax)
    assert [(x.vals, x.prec) for x in seen[0].coeffs] == \
        [(x.vals, x.prec) for x in whole.coeffs]


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(tower=towers(), b=st.sampled_from([4, 6]),
       which=st.sampled_from(["least", "between", "decay-based"]))
def test_doubling_check_equals_the_2D_run_from_scratch(tower, b, which):
    # D = p borders real rows past the base block (or keeps all of 2D), the
    # decay-based D borders none; either way the 2D series the check
    # computes, and its verdict, are those of the whole 2D matrices
    p, d = tower.p, max(tower.degree, 1)
    decay = max(p, -(-d * b // (p - 1)) + 2 * d)
    D = {"least": p, "between": (p + decay) // 2, "decay-based": decay}[which]
    prof = PrecisionProfile.create(p, 3, b, 3, 1, degree=d, D=D)
    base = run_trace_formula(tower, prof)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("char_series", "l_from_char_series"):
            mp.setattr(pipeline, name, lambda *args, fn=getattr(pipeline, name), **kw:
                       seen.append(fn(*args, **kw)) or seen[-1])
        verdict = doubling_check(tower, prof, base=base)
    big_prof = prof.with_D(2 * D)
    c0, c1 = (char_series(dwork.assemble_matrix(base.ef, i, big_prof), prof.smax)
              for i in (0, 1))
    want = [c0, c1, l_from_char_series(c0, c1)]
    assert [[(x.vals, x.prec) for x in s.coeffs] for s in seen] == \
        [[(x.vals, x.prec) for x in s.coeffs] for s in want]
    assert verdict == doubling_by_recomputation(
        base, SimpleNamespace(c0=c0, c1=c1, lfun=want[2]))
