"""Tests for the orchestration layer."""

from dataclasses import replace

import pytest

from tadic.errors import CertificateError, UsageError
from tadic.fredholm import LFunctionSeries, char_series
from tadic.pipeline import (
    _base_block,
    compare_series,
    doubling_check,
    run_selfcheck,
    run_compare,
    run_slopes,
    run_trace_formula,
)
from tadic.pointcount import oracle_lfun
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput
from tadic.xseries import Geometry
from tadic.zp import ZpTSeries


def profile(p=2, a=5, b=5, smax=3, dmax=3, degree=1, D=None):
    return PrecisionProfile.create(p, a, b, smax, dmax, degree=degree, D=D)


def test_compare_series_detects_mismatch():
    prof = profile()
    w = prof.work
    base = [ZpTSeries.one(2, 5, w), ZpTSeries.from_ints(2, 5, [3, 1], w)]
    other = [ZpTSeries.one(2, 5, w), ZpTSeries.from_ints(2, 5, [3, 1, 4], w)]
    lhs = LFunctionSeries(tuple(base), route="trace-formula")
    rhs = LFunctionSeries(tuple(other), route="oracle")
    res = compare_series(lhs, rhs)
    assert not res.agree
    assert res.first_mismatch == (1, 2)
    assert res.mismatch_values == ("0", "4")
    # agreement below the joint precision is still agreement
    close = [ZpTSeries.one(2, 5, w),
             ZpTSeries(2, 5, (3 + 2 ** 4, 1, 0, 0, 0), (4, w, w, w, w))]
    res = compare_series(lhs, LFunctionSeries(tuple(close), route="oracle"))
    assert res.agree
    assert res.effective_precision == 4


def test_doubling_check_smoke():
    tower = TowerInput(2, Geometry.AFFINE_LINE, {1: 1})
    prof = profile()
    ok, info = doubling_check(tower, prof)
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
    """Reference verdict: the base run against the whole route rerun at 2D."""
    for name, xs, ys in (("C0", small.c0.coeffs, big.c0.coeffs),
                         ("C1", small.c1.coeffs, big.c1.coeffs),
                         ("L", small.lfun.coeffs, big.lfun.coeffs)):
        for k, (a, c) in enumerate(zip(xs, ys)):
            if (a.vals, a.prec) != (c.vals, c.prec):
                return False, {"series": name, "s_index": k,
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


@pytest.mark.parametrize("change", ["value", "precision"])
def test_doubling_check_rejects_base_block_that_disagrees(change):
    tower = TowerInput(3, Geometry.TORUS, {2: 1, -1: 1})
    prof = profile(p=3, degree=2)
    base = run_trace_formula(tower, prof)
    entries = [row[:] for row in base.m1.entries]
    e = entries[1][0]
    if change == "value":
        entries[1][0] = e + ZpTSeries.one(e.p, e.b, prof.work)
    else:
        entries[1][0] = ZpTSeries(e.p, e.b, e.vals, (prof.work + 1,) * e.b)
    bad = replace(base, m1=replace(base.m1, entries=entries))
    with pytest.raises(CertificateError, match=r"psi_1 entry \(1,0\)"):
        doubling_check(tower, prof, base=bad)


def test_run_selfcheck_torus():
    tower = TowerInput(2, Geometry.TORUS, {1: 1, -1: 1})
    prof = profile()
    out = run_selfcheck(tower, prof)
    assert out["ok"], out
    assert len(out["checks"]) == 6


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
