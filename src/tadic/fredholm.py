"""Characteristic series of nuclear matrices and L-function assembly.

Two independent routes to the same L-function are kept deliberately
separate so they can cross-check each other:

  * `char_series` computes det(1 - s M) mod s^(smax+1) by a truncated
    Samuelson-Berkowitz expansion.  Writing M_k for the leading principal
    k x k block and (R, C, a) for the bordering row, column and corner,

        det(1 - s M_{k+1})
            = det(1 - s M_k) * (1 - a s - sum_j s^(j+2) R M_k^j C),

    so the determinant is a product of N explicitly computable factors.
    Only ring additions and multiplications occur: no division, hence no
    p-adic precision loss and manifest integrality of the coefficients.

  * `power_traces` computes tr(M^d) by iterated matrix products, and
    `l_from_traces` assembles exp(-sum S_d s^d / d).

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

    def coeff(self, k: int) -> ZpTSeries:
        return self.coeffs[k]

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


def _packed_rows(M: NuclearMatrix) -> tuple[Packer, list[list[int]]]:
    """The matrix with every entry packed, and the packer, whose limbs
    hold a whole row-times-column accumulation of length N."""
    first = M.entries[0][0]
    w = first.prec[0]
    if first.prec.count(w) != first.b:
        raise CertificateError("matrix entries must carry uniform precision")
    pk = packer(first.p, first.b, w, M.size)
    return pk, [[pk.pack(e) for e in row] for row in M.entries]


def _poly_mul_trunc(a: list[ZpTSeries], t: list[ZpTSeries], smax: int) -> list[ZpTSeries]:
    out: list[ZpTSeries | None] = [None] * (smax + 1)
    for i, ai in enumerate(a):
        if i > smax:
            break
        for j, tj in enumerate(t):
            if i + j > smax:
                break
            term = ai * tj
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    zero = a[0] - a[0]
    return [c if c is not None else zero for c in out]


def char_series(M: NuclearMatrix, smax: int,
                base: tuple[FredholmSeries, Sequence[int]] | None = None) -> FredholmSeries:
    """det(1 - s M) mod s^(smax+1), division free.

    With `base = (C, idx)`, C must be det(1 - s B) mod s^(smax+1) for the
    principal block B of M on the indices `idx`, in that order; the
    product resumes from C and borders only the remaining indices.
    Ordering `idx` first is a permutation similarity of M, so the
    determinant is unchanged.  The caller certifies that B is that block."""
    pk, rows = _packed_rows(M)
    one = ZpTSeries.one(pk.p, pk.b, pk.w)
    result = [one] + [ZpTSeries.zero(pk.p, pk.b, pk.w)] * smax
    start = 0
    if base is not None:
        done, idx = base
        if done.smax != smax:
            raise ValueError(f"base series kept s^{done.smax}, need s^{smax}")
        taken = set(idx)
        if len(taken) != len(idx) or not taken <= set(range(M.size)):
            raise ValueError("base indices must be distinct indices of the matrix")
        order = [*idx, *(k for k in range(M.size) if k not in taken)]
        rows = [[rows[v][u] for u in order] for v in order]
        result, start = list(done.coeffs), len(idx)
    for k in range(start, M.size):
        factor = [one, -pk.unpack(rows[k][k])]
        if k > 0 and smax >= 2:
            vec = [rows[i][k] for i in range(k)]   # the bordering column
            for j in range(smax - 1):
                # zip stops at len(vec) = k: the leading k x k block
                factor.append(-pk.unpack(pk.dot(rows[k], vec)))
                if j < smax - 2:
                    vec = [pk.dot(rows[i], vec) for i in range(k)]
        result = _poly_mul_trunc(result, factor, smax)
    out = FredholmSeries(tuple(result))
    out.assert_integral()
    return out


def power_traces(M: NuclearMatrix, dmax: int) -> list[ZpTSeries]:
    """tr(M^d) for d = 1..dmax by repeated matrix products."""
    pk, rows = _packed_rows(M)
    n = M.size
    traces = []
    cur = rows
    for _ in range(dmax):
        traces.append(pk.unpack(pk.reduce(sum(cur[i][i] for i in range(n)))))
        if len(traces) < dmax:
            cols = list(zip(*cur))
            cur = [[pk.dot(row, col) for col in cols] for row in rows]
    return traces


def l_from_traces(sums: list[ZpTSeries], smax: int) -> LFunctionSeries:
    """exp(-sum_d S_d s^d / d) mod s^(smax+1).

    The recurrence k h_k = -sum_j S_j h_{k-j} divides once by k per
    coefficient, which is the only precision sink on this route."""
    if len(sums) < smax:
        raise ValueError(f"need {smax} power sums, got {len(sums)}")
    first = sums[0]
    p, b = first.p, first.b
    w = max(max(c.prec) for c in sums) if sums else 1
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
