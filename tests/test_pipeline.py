"""Tests for the orchestration layer."""

import pytest

from tadic.errors import UsageError
from tadic.fredholm import LFunctionSeries
from tadic.pipeline import (
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
