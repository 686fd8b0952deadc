"""Tests for characteristic series, traces, and L-function assembly."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadic import zp
from tadic.dwork import NuclearMatrix, assemble_matrix
from tadic.errors import CertificateError
from tadic.fredholm import (
    FredholmSeries,
    char_series,
    l_from_char_series,
    l_from_traces,
    power_traces,
)
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput, build_Ef
from tadic.xseries import Geometry
from tadic.zp import ZpTSeries


def profile(p=2, a=6, b=8, smax=4, dmax=4, D=None, degree=1):
    return PrecisionProfile.create(p, a, b, smax, dmax, D=D, degree=degree)


def raw_matrix(prof, entries, geometry=Geometry.AFFINE_LINE, i=0):
    return NuclearMatrix(entries=entries, degree_index=i, weight_c=1,
                         basis_offset=0, geometry=geometry, prof=prof)


def brute_force_det_one_minus_sM(entries, smax):
    """Independent oracle: det(1 - sM) via sums of principal minors with
    Leibniz expansion, for small matrices."""
    n = len(entries)
    p, b = entries[0][0].p, entries[0][0].b
    w = entries[0][0].prec[0]
    out = [ZpTSeries.one(p, b, w)] + [ZpTSeries.zero(p, b, w)] * smax
    for k in range(1, min(n, smax) + 1):
        acc = ZpTSeries.zero(p, b, w)
        for rows in itertools.combinations(range(n), k):
            for perm in itertools.permutations(range(k)):
                sign = 1
                seen = list(perm)
                # permutation sign by counting inversions
                inv = sum(1 for i in range(k) for j in range(i + 1, k)
                          if seen[i] > seen[j])
                sign = -1 if inv % 2 else 1
                term = ZpTSeries.one(p, b, w)
                for i in range(k):
                    term = term * entries[rows[i]][rows[perm[i]]]
                acc = acc + (term if sign == 1 else -term)
        out[k] = acc if k % 2 == 0 else -acc
    return out


def random_entries(p, b, w, n, rng, spread=6):
    return [[ZpTSeries.from_ints(p, b, [rng.randrange(p ** spread) for _ in range(b)], w)
             for _ in range(n)] for _ in range(n)]


def test_char_series_one_by_one():
    prof = profile(p=2, a=5, b=4)
    lam = ZpTSeries.from_ints(2, 4, [3, 1, 2], prof.work)
    m = raw_matrix(prof, [[lam]])
    c = char_series(m, 3)
    assert c.coeffs[0].vals == ZpTSeries.one(2, 4, prof.work).vals
    assert c.coeffs[1].vals == (-lam).vals
    assert c.coeffs[2].is_zero() and c.coeffs[3].is_zero()


def test_char_series_matches_leibniz_oracle():
    # s-orders 1 (no bordering terms), 2, N and N + 2 (past the degree),
    # fresh and resumed past every leading block: equal vals and prec
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        prof = profile(p=p, a=5, b=5)
        for n in range(1, 7):
            entries = random_entries(p, 5, prof.work, n, rng)
            oracle = brute_force_det_one_minus_sM(entries, n + 2)
            for smax in sorted({1, 2, n, n + 2}):
                want = [(c.vals, c.prec) for c in oracle[:smax + 1]]
                got = char_series(raw_matrix(prof, entries), smax)
                assert [(c.vals, c.prec) for c in got.coeffs] == want, (p, n, smax)
                for m in range(1, n):
                    lead = char_series(raw_matrix(prof, [row[:m] for row in entries[:m]]), smax)
                    got = char_series(raw_matrix(prof, entries), smax,
                                      base=(lead, list(range(m))))
                    assert [(c.vals, c.prec) for c in got.coeffs] == want, (p, n, smax, m)


def test_char_series_resumes_past_any_principal_block():
    rng = random.Random(5)
    prof = profile(p=3, a=5, b=5)
    entries = random_entries(3, 5, prof.work, 6, rng)
    want = char_series(raw_matrix(prof, entries), 4)
    idx = [4, 1, 2]
    block = char_series(raw_matrix(prof, [[entries[v][u] for u in idx] for v in idx]), 4)
    got = char_series(raw_matrix(prof, entries), 4, base=(block, idx))
    assert [(c.vals, c.prec) for c in got.coeffs] == [(c.vals, c.prec) for c in want.coeffs]
    for bad in ((block, [4, 1, 1]), (block, [4, 1, 6]),
                (char_series(raw_matrix(prof, [[entries[4][4]]]), 3), [4])):
        with pytest.raises(ValueError):
            char_series(raw_matrix(prof, entries), 4, base=bad)


def same_series(xs, ys):
    return [(c.vals, c.prec) for c in xs.coeffs] == [(c.vals, c.prec) for c in ys.coeffs]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_resumed_char_series_skips_zero_rows_exactly(data):
    # zero rows, and rows that are zero on the diagonal only, planted
    # anywhere, past a base block of random size and order: a zero row of
    # M is a unit row of 1 - sM, so resuming without it gives the series
    # from scratch, in vals and in prec, while a hollow row still counts
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    n = data.draw(st.integers(2, 7), label="n")
    smax = data.draw(st.integers(1, n + 1), label="smax")
    order = data.draw(st.permutations(range(n)), label="order")
    idx = order[:data.draw(st.integers(1, n - 1), label="base size")]
    zero_rows = data.draw(st.sets(st.sampled_from(range(n))), label="zero rows")
    hollow_rows = data.draw(st.sets(st.sampled_from(range(n))), label="hollow rows")
    prof = profile(p=p, a=4, b=4)
    zero = ZpTSeries.zero(p, 4, prof.work)
    entries = random_entries(p, 4, prof.work, n, random.Random(data.draw(st.integers(0, 999))))
    for v in hollow_rows:
        entries[v][v] = zero
    for v in zero_rows:
        entries[v] = [zero] * n
    block = char_series(raw_matrix(prof, [[entries[v][u] for u in idx] for v in idx]), smax)
    got = char_series(raw_matrix(prof, entries), smax, base=(block, idx))
    assert same_series(got, char_series(raw_matrix(prof, entries), smax))


@pytest.mark.parametrize("near_zero", ["T^(b-1)", "p^(w-1)"])
def test_resumed_char_series_borders_near_zero_rows(monkeypatch, near_zero):
    # rows 3 and 4 are zero but for one diagonal entry, in the last known
    # T-coefficient or the last known digit; that entry shows in tr(M),
    # so skipping its row would change the s^1 coefficient
    p, b, n, smax = 3, 5, 5, 3
    prof = profile(p=p, a=4, b=b)
    w = prof.work
    tiny = ZpTSeries.from_ints(p, b, [0] * (b - 1) + [1] if near_zero == "T^(b-1)"
                               else [p ** (w - 1)], w)
    entries = random_entries(p, b, w, n, random.Random(3))
    zeroed = [row[:] for row in entries]
    for v in (3, 4):
        entries[v] = [tiny if u == v else ZpTSeries.zero(p, b, w) for u in range(n)]
        zeroed[v] = [ZpTSeries.zero(p, b, w)] * n
    idx = [0, 1, 2]
    block = char_series(raw_matrix(prof, [row[:3] for row in entries[:3]]), smax)
    dots = []
    dot = zp.Packer.dot
    monkeypatch.setattr(zp.Packer, "dot", lambda self, *args: dots.append(1) or dot(self, *args))
    want = char_series(raw_matrix(prof, entries), smax)
    assert not same_series(want, char_series(raw_matrix(prof, zeroed), smax))
    dots.clear()
    assert same_series(char_series(raw_matrix(prof, entries), smax, base=(block, idx)), want)
    assert dots   # both rows were bordered
    dots.clear()
    char_series(raw_matrix(prof, zeroed), smax, base=(block, idx))
    assert not dots   # and zero rows are not


def test_matrix_of_mixed_precision_is_refused():
    # the packer would treat entry (1, 1) as known to the work precision
    prof = profile(p=2, a=6, b=8)
    m = assemble_matrix(build_Ef(TowerInput(2, Geometry.AFFINE_LINE, {1: 1}), prof), 0, prof)
    entries = [list(row) for row in m.entries]
    entries[1][1] = ZpTSeries(2, 8, entries[1][1].vals, (2,) * 8)
    bad = replace(m, entries=entries)
    with pytest.raises(CertificateError, match="uniform precision"):
        char_series(bad, 4)
    with pytest.raises(CertificateError, match="uniform precision"):
        power_traces(bad, 4)


def test_char_series_zero_tower():
    prof = profile(p=2, a=6, b=8, D=2)
    ef = build_Ef(TowerInput(2, Geometry.AFFINE_LINE, {}), prof)
    c = char_series(assemble_matrix(ef, 0, prof), 4)
    # det(1 - sM) = 1 - 2s: the only cycle is the fixed monomial 1
    assert c.coeffs[0].vals[0] == 1
    assert c.coeffs[1].vals[0] == (-2) % 2 ** prof.work
    assert c.coeffs[2].is_zero() and c.coeffs[3].is_zero()
    c1 = char_series(assemble_matrix(ef, 1, prof), 4)
    assert c1.coeffs[0].vals[0] == 1
    assert all(c1.coeffs[k].is_zero() for k in range(1, 5))


def test_power_traces_zero_tower():
    prof = profile(p=2, a=6, b=8, D=4)
    ef = build_Ef(TowerInput(2, Geometry.AFFINE_LINE, {}), prof)
    tr = power_traces(assemble_matrix(ef, 0, prof), 4)
    for d in range(1, 5):
        assert tr[d - 1].vals[0] == 2 ** d
        assert all(v == 0 for v in tr[d - 1].vals[1:])
    tr1 = power_traces(assemble_matrix(ef, 1, prof), 4)
    assert all(t.is_zero() for t in tr1)


def test_power_traces_scalar():
    prof = profile(p=3, a=5, b=4)
    lam = ZpTSeries.from_ints(3, 4, [2, 1], prof.work)
    m = raw_matrix(prof, [[lam]])
    tr = power_traces(m, 3)
    assert tr[0].vals == lam.vals
    assert tr[1].vals == (lam * lam).vals
    assert tr[2].vals == (lam * lam * lam).vals


def dense_power_traces(entries, dmax):
    """Reference: tr(M^d) for d = 1..dmax by iterated dense products
    M^(d+1) = M M^d in series arithmetic, zero rows included (a zero
    factor only skips its product)."""
    n = len(entries)
    e = entries[0][0]
    zero = ZpTSeries.zero(e.p, e.b, e.prec[0])
    cur, out = entries, []
    for _ in range(dmax):
        acc = zero
        for i in range(n):
            acc = acc + cur[i][i]
        out.append(acc)
        nxt = []
        for row in entries:
            new_row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    if not row[k].is_zero():
                        acc = acc + row[k] * cur[k][j]
                new_row.append(acc)
            nxt.append(new_row)
        cur = nxt
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_power_traces_match_the_dense_product(data):
    # half the powers, live rows only and the paired reading give the
    # traces of the iterated dense product, in vals and in prec, with
    # zero rows, rows zero on the diagonal only and rows divisible by T or
    # T^(b-1), which the packer keeps shifted down, planted anywhere
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    n = data.draw(st.integers(1, 8), label="n")
    dmax = data.draw(st.integers(1, 7), label="dmax")
    b = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 64]), label="b")   # 64: cut columns
    zero_rows = data.draw(st.sets(st.sampled_from(range(n))), label="zero rows")
    hollow_rows = data.draw(st.sets(st.sampled_from(range(n))), label="hollow rows")
    deep_rows = data.draw(st.dictionaries(st.sampled_from(range(n)), st.sampled_from([1, b - 1])),
                          label="rows divisible by T^t")
    prof = profile(p=p, a=4, b=b)
    zero = ZpTSeries.zero(p, b, prof.work)
    entries = random_entries(p, b, prof.work, n, random.Random(data.draw(st.integers(0, 999))))
    for v, t in deep_rows.items():
        entries[v] = [ZpTSeries(p, b, (0,) * t + e.vals[t:], e.prec) for e in entries[v]]
    for v in hollow_rows:
        entries[v][v] = zero
    for v in zero_rows:
        entries[v] = [zero] * n
    got = power_traces(raw_matrix(prof, entries), dmax)
    want = dense_power_traces(entries, dmax)
    assert [(t.vals, t.prec) for t in got] == [(t.vals, t.prec) for t in want]


@pytest.mark.parametrize("dmax", [4, 5])
def test_power_traces_dot_only_the_nonzero_rows(monkeypatch, dmax):
    # psi_0 of f = x over F_31 at the default D = p has 32 rows, of which
    # only v = 0 and v = 1 are nonzero: the powers M^2..M^h take one dot
    # per pair of live indices, and each paired trace one per live row
    p, h = 31, (dmax + 1) // 2
    prof = profile(p=p, a=4, b=4, smax=4, dmax=dmax)
    m = assemble_matrix(build_Ef(TowerInput(p, Geometry.AFFINE_LINE, {1: 1}), prof), 0, prof)
    live = [v for v, row in enumerate(m.entries) if not all(e.is_zero() for e in row)]
    assert (m.size, live) == (32, [0, 1])
    dots = []
    dot = zp.Packer.dot
    monkeypatch.setattr(zp.Packer, "dot", lambda self, *args: dots.append(1) or dot(self, *args))
    got = power_traces(m, dmax)
    assert len(dots) == len(live) * (len(live) * (h - 1) + dmax - h)
    want = dense_power_traces(m.entries, dmax)
    assert [(t.vals, t.prec) for t in got] == [(t.vals, t.prec) for t in want]


def test_l_from_traces_identities():
    prof = profile(p=2, a=6, b=6)
    w = prof.work
    # S_d = p^d gives 1 - ps
    sums = [ZpTSeries.from_ints(2, 6, [2 ** d], w) for d in range(1, 5)]
    lf = l_from_traces(sums, 4)
    assert lf.coeff(0).vals[0] == 1
    assert lf.coeff(1).agrees_with(ZpTSeries.from_ints(2, 6, [-2], w))
    for k in range(2, 5):
        assert lf.coeff(k).reduced(4).is_zero()
    # S_d = p^d - 1 gives (1 - ps)/(1 - s) = 1 - (p-1) s - (p-1) s^2 - ...
    sums = [ZpTSeries.from_ints(2, 6, [2 ** d - 1], w) for d in range(1, 5)]
    lf = l_from_traces(sums, 4)
    for k in range(1, 5):
        assert lf.coeff(k).reduced(4).agrees_with(
            ZpTSeries.from_ints(2, 6, [-1], 4))
    # S = 0 gives 1
    sums = [ZpTSeries.zero(2, 6, w) for _ in range(4)]
    lf = l_from_traces(sums, 4)
    assert lf.coeff(0).vals[0] == 1
    assert all(lf.coeff(k).is_zero() for k in range(1, 5))


def test_series_inverse_in_s():
    prof = profile(p=2, a=5, b=5)
    w = prof.work
    rng = random.Random(5)
    coeffs = [ZpTSeries.one(2, 5, w)] + [
        ZpTSeries.from_ints(2, 5, [rng.randrange(2 ** 8) for _ in range(5)], w)
        for _ in range(4)
    ]
    ones = [ZpTSeries.one(2, 5, w)] + [ZpTSeries.zero(2, 5, w)] * 4
    inv = l_from_char_series(FredholmSeries(tuple(ones)), FredholmSeries(tuple(coeffs)))
    # product must be 1
    prod = []
    for k in range(5):
        acc = coeffs[0] * inv.coeffs[k]
        for j in range(1, k + 1):
            acc = acc + coeffs[j] * inv.coeffs[k - j]
        prod.append(acc)
    assert prod[0].vals[0] == 1
    assert all(c.is_zero() for c in prod[1:])


def test_trace_formula_zero_tower_torus():
    prof = profile(p=2, a=6, b=8, D=4)
    ef = build_Ef(TowerInput(2, Geometry.TORUS, {}), prof)
    m0 = assemble_matrix(ef, 0, prof)
    m1 = assemble_matrix(ef, 1, prof)
    c0 = char_series(m0, 4)
    c1 = char_series(m1, 4)
    assert c0.coeffs[1].vals[0] == (-2) % 2 ** prof.work
    assert c1.coeffs[1].vals[0] == (-1) % 2 ** prof.work
    lf = l_from_char_series(c0, c1)
    # (1-2s)/(1-s) = 1 - s - s^2 - s^3 - ...
    assert lf.coeff(0).vals[0] == 1
    for k in range(1, 5):
        assert lf.coeff(k).vals[0] == (-1) % 2 ** prof.work


def test_route_agreement_small_tower():
    # Newton-identity equivalence of the two routes on a real tower
    prof = profile(p=2, a=6, b=6, smax=3, dmax=3, degree=1)
    ef = build_Ef(TowerInput(2, Geometry.AFFINE_LINE, {1: 1}), prof)
    m0 = assemble_matrix(ef, 0, prof)
    m1 = assemble_matrix(ef, 1, prof)
    lf = l_from_char_series(char_series(m0, 3), char_series(m1, 3))
    t0 = power_traces(m0, 3)
    t1 = power_traces(m1, 3)
    sums = [a - b for a, b in zip(t0, t1)]
    lf2 = l_from_traces(sums, 3)
    for k in range(4):
        assert lf.coeff(k).agrees_with(lf2.coeff(k))
    # S_1 = 2 + T for this tower
    assert sums[0].residues(prof.a)[:2] == (2, 1)
