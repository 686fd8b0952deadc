"""The packed kernel of the trace route: the limb-parallel reduction of
`zp.Packer`, the rows `fredholm._packed_rows` keeps shifted down by
their T-order, and the Krylov vectors `char_series` cuts to the T-digits
their border row can reach.  Derandomized, and free of Hypothesis, so
that every supported Python runs them with pytest alone."""

import random

import pytest

from tadic import fredholm, zp
from tadic.dwork import NuclearMatrix, assemble_matrix
from tadic.fredholm import KARATSUBA_BITS, _packed_rows, char_series
from tadic.profile import PrecisionProfile
from tadic.splitting import TowerInput, build_Ef
from tadic.xseries import Geometry
from tadic.zp import Packer, ZpTSeries, ppow

N = 12   # rows of a matrix: the headroom of a row-times-column sum


def limb_reduce(pk, acc, n):
    """Reference: the low n limbs of acc, one at a time, each mod p^w."""
    return sum(((acc >> pk.beta * j) & pk.mask) % pk.m << pk.beta * j for j in range(n))


@pytest.mark.parametrize("nacc", [1, N])
@pytest.mark.parametrize("b", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("p", [2, 3, 7, 31])
def test_reduce_matches_the_limbwise_remainder(p, b, nacc):
    # limbs at 0, m - 1, m, 2m - 1 and the headroom maximum (where they
    # fit under it), all alike, alternating and mixed; limbs past b, as a
    # product leaves them, are dropped, and so are those past the b - v
    # limbs a row shifted by T^v reads
    w = 3 if p == 31 else 5
    pk = Packer(p, b, w, nacc)
    m, top = pk.m, b * nacc * (pk.m - 1) ** 2
    edges = [x for x in (0, m - 1, m, 2 * m - 1, top) if x <= top]
    rng = random.Random(p * 1000 + b * 10 + nacc)
    layouts = [[x] * (2 * b - 1) for x in edges]
    layouts += [[edges[(i + j) % len(edges)] for j in range(2 * b - 1)] for i in range(len(edges))]
    layouts += [[rng.choice(edges) for _ in range(2 * b - 1)] for _ in range(20)]
    layouts += [[rng.randrange(top + 1) for _ in range(2 * b - 1)] for _ in range(20)]
    for limbs in layouts:
        acc = sum(x << pk.beta * j for j, x in enumerate(limbs))
        assert pk.reduce(acc) == limb_reduce(pk, acc, b), limbs
        for n in {0, 1, b // 2, b - 1}:
            assert pk.reduce(acc, n) == limb_reduce(pk, acc, n), (limbs, n)


def bordered_char_series(entries, smax):
    """Reference: the bordering of `char_series` in plain series
    arithmetic, every row in index order, nothing packed or shifted."""
    e = entries[0][0]
    one, zero = ZpTSeries.one(e.p, e.b, e.prec[0]), ZpTSeries.zero(e.p, e.b, e.prec[0])

    def pair(xs, ys):
        acc = zero
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc

    result = [one] + [zero] * smax
    for k, row in enumerate(entries):
        g = [row[k]]
        vec = [entries[i][k] for i in range(k)]
        for _ in range(1, smax if k else 1):
            g.append(pair(row, vec))
            vec = [pair(entries[i], vec) for i in range(k)]
        for n in range(smax, 0, -1):
            acc = result[n]
            for j in range(min(n, len(g))):
                acc = acc - g[j] * result[n - 1 - j]
            result[n] = acc
    return [(c.vals, c.prec) for c in result]


def matrix(prof, entries):
    return NuclearMatrix(entries=entries, degree_index=0, weight_c=1, basis_offset=0,
                         geometry=Geometry.AFFINE_LINE, prof=prof)


def planted_entries(p, b, w, orders, rng):
    """Random entries whose row v is divisible by T^orders[v] and no
    higher power: row orders at b are zero rows."""
    n = len(orders)
    rows = []
    for v in orders:
        row = [[0] * v + [rng.randrange(ppow(p, w)) for _ in range(b - v)] for _ in range(n)]
        if v < b:
            row[rng.randrange(n)][v] = 1 + rng.randrange(ppow(p, w) - 1)
        rows.append([ZpTSeries.from_ints(p, b, c, w) for c in row])
    return rows


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("b", [1, 3, 8, 64])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_shifted_rows_match_the_unshifted_bordering(p, b, seed):
    # rows divisible by T^0, T^1, T^(b/2 - 1), T^(b/2), T^(b/2 + 1),
    # T^(b-1) and T^b (zero), each at least once, in random order, fresh
    # and resumed past a random base block: equal vals and prec; at b = 64
    # the Krylov vectors of border k are cut mod T^(b - v_k), and
    # v_k + v_i reaches b - 1, b and b + 1
    rng = random.Random(100 * p + 10 * b + seed)
    levels = sorted({0, 1, b // 2 - 1, b // 2, b // 2 + 1, b - 1, b} & set(range(b + 1)))
    orders = levels + rng.choices(levels, k=rng.randint(0, 2))
    rng.shuffle(orders)
    n = len(orders)
    smax = (n + 1, 3, n)[seed]
    prof = PrecisionProfile.create(p, 4, b, smax, 4)
    entries = planted_entries(p, b, prof.work, orders, rng)
    m = matrix(prof, entries)
    pk, rows = _packed_rows(m)
    assert [v for v, _ in rows] == orders
    assert (pk.b * pk.beta > KARATSUBA_BITS) == (b == 64)
    want = bordered_char_series(entries, smax)
    assert [(c.vals, c.prec) for c in char_series(m, smax).coeffs] == want
    idx = rng.sample(range(n), rng.randint(1, n - 1))
    block = char_series(matrix(prof, [[entries[v][u] for u in idx] for v in idx]), smax)
    resumed = char_series(m, smax, base=(block, idx))
    assert [(c.vals, c.prec) for c in resumed.coeffs] == want


@pytest.fixture(scope="module")
def slopes_deep_psi():
    """psi_0 and psi_1 of p = 7, f = x^3 at b = 64, D = 38, smax = 6: the
    slope run of the benchmark, whose packed entries (6912 bits) are past
    KARATSUBA_BITS."""
    p, b, d = 7, 64, 3
    prof = PrecisionProfile.create(p, 6, b, 6, 1, degree=d, D=38)
    ef = build_Ef(TowerInput(p, Geometry.AFFINE_LINE, {d: 1}), prof)
    return prof, [assemble_matrix(ef, i, prof) for i in (0, 1)]


def series(c):
    return [(x.vals, x.prec) for x in c.coeffs]


@pytest.mark.parametrize("i", [0, 1])
def test_cut_krylov_vectors_match_the_uncut_path(monkeypatch, slopes_deep_psi, i):
    # the same call with KARATSUBA_BITS above the entry size runs every
    # dot on whole vectors; fresh, and resumed past the even rows below 24
    # (so the bordered rows are not in order of T-order): equal vals and prec
    prof, psi = slopes_deep_psi
    m, smax = psi[i], prof.smax
    pk = _packed_rows(m)[0]
    assert pk.b * pk.beta > KARATSUBA_BITS
    idx = list(range(0, 24, 2))
    sub = matrix(prof, [[m.entries[v][u] for u in idx] for v in idx])
    cut = char_series(m, smax)
    cut_resumed = char_series(m, smax, base=(char_series(sub, smax), idx))
    monkeypatch.setattr(fredholm, "KARATSUBA_BITS", pk.b * pk.beta)
    assert series(cut) == series(char_series(m, smax))
    assert series(cut_resumed) == series(char_series(m, smax, base=(char_series(sub, smax), idx)))


def test_cut_krylov_vectors_dot_only_the_reachable_rows(monkeypatch, slopes_deep_psi):
    # border k makes one dot per row i < k with v_i + v_k < b at each of
    # its smax - 2 Krylov steps, and its smax - 1 closing dots with R when
    # v_k < b; a row past that reach needs no T-digit of the vector
    prof, psi = slopes_deep_psi
    b, smax = prof.b, prof.smax
    orders = [v for v, _ in _packed_rows(psi[1])[1]]
    assert b in orders   # zero rows, bordered on the fresh path
    want = sum((smax - 2) * sum(v + vk < b for v in orders[:k]) + (smax - 1) * (vk < b)
               for k, vk in enumerate(orders) if k)
    dots = []
    dot = zp.Packer.dot
    monkeypatch.setattr(zp.Packer, "dot", lambda self, *args: dots.append(1) or dot(self, *args))
    char_series(psi[1], smax)
    assert len(dots) == want
