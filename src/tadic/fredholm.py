"""Characteristic series of nuclear matrices and L-function assembly.

Two independent routes to the same L-function are kept deliberately
separate so they can cross-check each other:

  * `char_series` computes det(1 - s M) mod s^(smax+1) by a truncated
    Samuelson-Berkowitz expansion.  Writing M_k for the leading principal
    k x k block and (R, C, a) for the bordering row, column and corner,

        det(1 - s M_{k+1})
            = det(1 - s M_k) * (1 - a s - sum_j s^(j+2) R M_k^j C),

    so the determinant is a product of N explicitly computable factors.
    Each factor 1 - sum_j g_j s^(j+1), with g = (a, R C, R M_k C, ...),
    is applied in place: coefficient n of the running series becomes
    c_n - sum_j g_j c_(n-1-j), for n from smax down to 1, so the
    coefficients below n still hold their old values when it is read.
    Only ring additions and multiplications occur: no division, hence no
    p-adic precision loss and manifest integrality of the coefficients.
    Resumed from the series of a principal block, as the doubling
    certificate extends a run from D to 2D, it skips the remaining zero
    rows, whose factor is 1.

  * `power_traces` computes tr(M^d) for d <= dmax from the powers up
    to M^ceil(dmax/2), formed on the principal block of the nonzero rows
    of M only, reading each higher trace as a pairing of two of them,
    and `l_from_traces` assembles exp(-sum S_d s^d / d).

On the torus psi_0 = p psi_1 on one basis, so the pipeline expands only
det(1 - s psi_1) = C_1(s) and takes C_1(p s) for det(1 - s psi_0) once
that identity is certified entry by entry (`pipeline.run_trace_formula`);
`power_traces` still reads psi_0 itself.

Both routes pack the matrix once with the Kronecker packer of `zp`: a
coefficient vector becomes one big integer whose limbs have room for a
whole row-times-column accumulation, so each matrix-vector step is a
sum of big-integer products followed by one limb reduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .dwork import NuclearMatrix
from .errors import CertificateError
from .zp import Packer, ZpTSeries, packer


@dataclass(frozen=True)
class FredholmSeries:
    """det(1 - s Theta) truncated in s; coefficients in Z_p[[T]] mod T^b."""

    coeffs: tuple[ZpTSeries, ...]

    @property
    def smax(self) -> int:
        return len(self.coeffs) - 1

    def assert_integral(self) -> None:
        """The representation cannot hold negative p-powers; what is
        checked is that no coefficient lost working digits, i.e. the
        computation really was division free."""
        w = self.coeffs[0].prec[0]
        for c in self.coeffs:
            if any(k < w for k in c.prec):
                raise CertificateError("Fredholm coefficient lost precision")
        if self.coeffs[0].vals[0] != 1 or any(v != 0 for v in self.coeffs[0].vals[1:]):
            raise CertificateError("Fredholm series must start at 1")


@dataclass(frozen=True)
class LFunctionSeries:
    """L-series truncated in s."""

    coeffs: tuple[ZpTSeries, ...]

    @property
    def smax(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> ZpTSeries:
        return self.coeffs[k]


def _packed_rows(M: NuclearMatrix, order=None) -> tuple[Packer, list[list[int]]]:
    """The block of M on the indices `order` (default: all) with every
    entry packed, and the packer, whose limbs hold a whole row-times-column
    accumulation of length N.  Every entry of M must carry one precision."""
    first = M.entries[0][0]
    uniform = (first.prec[0],) * first.b
    if any(e.prec != uniform for row in M.entries for e in row):
        raise CertificateError("matrix entries must carry uniform precision")
    pk = packer(first.p, first.b, uniform[0], M.size)
    block = M.entries if order is None else [[M.entries[v][u] for u in order] for v in order]
    return pk, [[pk.pack(e) for e in row] for row in block]


def char_series(M: NuclearMatrix, smax: int,
                base: tuple[FredholmSeries, Sequence[int]] | None = None) -> FredholmSeries:
    """det(1 - s M) mod s^(smax+1), division free.

    With `base = (C, idx)`, C must be det(1 - s B) mod s^(smax+1) for the
    principal block B of M on the indices `idx`, in that order; the
    product resumes from C and borders only those remaining indices whose
    row has a nonzero entry (packing nothing when there is none).
    Ordering `idx` first is a permutation similarity of M, and a zero row
    k makes row k of 1 - s M the unit vector e_k, so deleting row and
    column k leaves the determinant unchanged; both are exact in value
    and in precision, since every entry is known to the same precision
    and is 0 only when it is 0 to all of it.  The caller certifies that
    B is that block.

    Without `base` every row is bordered in index order, zero or not:
    the live-row selection at assembly time (ROADMAP items 1 and 3) is
    to replace that path as a whole."""
    order, start, result = None, 0, None
    if base is not None:
        done, idx = base
        if done.smax != smax:
            raise ValueError(f"base series kept s^{done.smax}, need s^{smax}")
        taken = set(idx)
        if len(taken) != len(idx) or not taken <= set(range(M.size)):
            raise ValueError("base indices must be distinct indices of the matrix")
        live = [k for k in range(M.size)
                if k not in taken and not all(e.is_zero() for e in M.entries[k])]
        order = [*idx, *live] if live else []
        start, result = len(idx), list(done.coeffs)
    pk, rows = _packed_rows(M, order)
    if result is None:
        result = [ZpTSeries.one(pk.p, pk.b, pk.w)] + [ZpTSeries.zero(pk.p, pk.b, pk.w)] * smax
    for k in range(start, len(rows)):
        # the factor is 1 - sum_j g[j] s^(j+1): g = [a, R C, R M_k C, ...]
        g = [pk.unpack(rows[k][k])]
        if k > 0:
            vec = [rows[i][k] for i in range(k)]   # the bordering column
            for j in range(1, smax):
                # zip stops at len(vec) = k: the leading k x k block
                g.append(pk.unpack(pk.dot(rows[k], vec)))
                if j < smax - 1:
                    vec = [pk.dot(rows[i], vec) for i in range(k)]
        # multiply by the factor in place; going down keeps result[< n] old
        for n in range(smax, 0, -1):
            acc = result[n]
            for j in range(min(n, len(g))):
                acc = acc - g[j] * result[n - 1 - j]
            result[n] = acc
    out = FredholmSeries(tuple(result))
    out.assert_integral()
    return out


def power_traces(M: NuclearMatrix, dmax: int) -> list[ZpTSeries]:
    """tr(M^d) for d = 1..dmax from the powers M, ..., M^h, h = ceil(dmax/2).

    A closed walk leaves every index it visits, so it visits only the
    live (nonzero) rows S, and tr(M^d) = tr(M_SS^d): only the principal
    block M_SS is packed, and M^(k+1)_SS = M_SS M^k_SS costs one dot per
    pair of live indices.  tr(M^d) for d <= h sums the diagonal of M^d;
    past h it pairs M^h with M^c, c = d - h <= h:
    tr(M^(h+c)) = sum_i sum_j (M^h)_ij (M^c)_ji, one dot per live row.
    Every entry is known to the same precision (`_packed_rows`) and each
    dot reduces exactly mod p^w and T^b, so the traces equal those of the
    iterated product in value and in precision."""
    live = [i for i, row in enumerate(M.entries) if not all(e.is_zero() for e in row)]
    pk, rows = _packed_rows(M, live)
    h = (dmax + 1) // 2
    powers = [rows]                                        # M^k on S x S
    for _ in range(h - 1):
        cols = list(zip(*powers[-1]))
        powers.append([[pk.dot(x, col) for col in cols] for x in rows])
    traces = []
    for d in range(1, dmax + 1):
        if d <= h:
            acc = sum(row[i] for i, row in enumerate(powers[d - 1]))
        else:
            other = powers[d - h - 1]
            acc = sum(pk.dot(row, [o[i] for o in other])
                      for i, row in enumerate(powers[h - 1]))
        traces.append(pk.unpack(pk.reduce(acc)))
    return traces


def l_from_traces(sums: list[ZpTSeries], smax: int) -> LFunctionSeries:
    """exp(-sum_d S_d s^d / d) mod s^(smax+1).

    The recurrence k h_k = -sum_j S_j h_{k-j} divides once by k per
    coefficient, which is the only precision sink on this route."""
    if len(sums) < smax:
        raise ValueError(f"need {smax} power sums, got {len(sums)}")
    first = sums[0]
    p, b = first.p, first.b
    w = max(max(c.prec) for c in sums)
    h = [ZpTSeries.one(p, b, w)]
    for k in range(1, smax + 1):
        acc = ZpTSeries.zero(p, b, w)
        for j in range(1, k + 1):
            acc = acc + sums[j - 1] * h[k - j]
        h.append((-acc).divexact(k))
    return LFunctionSeries(tuple(h))


def l_from_char_series(c0: FredholmSeries, c1: FredholmSeries) -> LFunctionSeries:
    """L = C(psi_0, s) / C(psi_1, s).  The denominator has constant term 1,
    so L * C1 = C0 gives L_k = C0_k - sum_{j=1..k} C1_j L_(k-j): division
    free."""
    c1.assert_integral()   # which includes C1_0 = 1
    out = []
    for k, acc in enumerate(c0.coeffs):
        for j in range(1, k + 1):
            acc = acc - c1.coeffs[j] * out[k - j]
        out.append(acc)
    return LFunctionSeries(tuple(out))
