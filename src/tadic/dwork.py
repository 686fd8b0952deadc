"""Canonical Dwork operators and their finite matrices.

theta0 acts on functions and theta1 on differentials; both are adjoint to
the degree-p Frobenius x -> x^p in the sense theta(sigma(a) m) = a theta(m).
Differentials are written x^u dx/x on both geometries (u >= 1 on the
affine line, where x^u dx/x = x^(u-1) dx).  In these monomial bases both
operators are the same index map, theta1 without theta0's factor p:

    theta0(x^u)       = p x^(u/p)         if p | u, else 0
    theta1(x^u dx/x)  = x^(u/p) dx/x      if p | u, else 0

The nuclear operator of a tower is psi_i = theta_i composed with
multiplication by the splitting function E_f, so on basis exponents

    entry (v, u) of psi_i = (p if i = 0 else 1) * E_f[p v - u],

and `assemble_matrix` fills the matrix by looking up coefficients of E_f
(`psi_entries`); each entry inherits the T-adic decay of the splitting
function.  With E := 1 the same rule gives the matrix of theta_i itself,
and every matrix assembly first checks its columns on low monomials
against an independent oracle that computes the trace of the
multiplication matrix of the degree-p subring extension in exact rational
arithmetic (`theta0_trace_oracle`, `theta1_trace_oracle`).

Entries are stored in the plain basis.  Their decay bound
v_T(entry(v, u)) >= ceil(|p v - u| / d), d = deg f, is checked as a
certificate, and it alone makes psi_i nuclear: a weighted basis would
only conjugate the finite principal minors, leaving every Fredholm
determinant unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError
from .profile import PrecisionProfile
from .splitting import SplittingFunction
from .xseries import Geometry, XSeries
from .zp import ZpTSeries


def _theta(g: XSeries, factor: int) -> XSeries:
    """The index map x^u -> factor * x^(u/p) if p | u, else 0."""
    p = g.prof.p
    out = {u // p: c.scale(factor) for u, c in g.coeffs.items() if u % p == 0}
    return XSeries(g.prof, g.geometry, g.bound, out, g.differential)


def theta0_apply(g: XSeries) -> XSeries:
    """Trace to the degree-p subring followed by the inverse Frobenius,
    on functions: keeps exponents divisible by p, each scaled by p."""
    if g.differential:
        raise ValueError("theta0 acts on functions")
    return _theta(g, g.prof.p)


def theta1_apply(g: XSeries) -> XSeries:
    """The trace map on differentials x^u dx/x; no factor of p survives."""
    if not g.differential:
        raise ValueError("theta1 acts on differentials")
    return _theta(g, 1)


# independent oracle ---------------------------------------------------------

def _trace_oracle(p: int, u: int, divisor: int) -> dict[int, int]:
    """Trace of multiplication by x^u on the rank-p extension of the
    subring generated by y = x^p, in the basis 1, x, ..., x^(p-1), divided
    by `divisor` and read back through the inverse Frobenius y^q -> x^q.
    The quotient must be integral."""
    tr: dict[int, Fraction] = {}
    for j in range(p):
        r = (u + j) % p
        if r == j:
            q = (u + j - r) // p
            tr[q] = tr.get(q, Fraction(0)) + Fraction(1, divisor)
    out = {}
    for q, c in tr.items():
        if c:
            if c.denominator != 1:
                raise CertificateError(f"trace of x^{u} over {divisor} not integral")
            out[q] = int(c)
    return out


def theta0_trace_oracle(p: int, u: int) -> dict[int, int]:
    """theta0 on x^u: the multiplication-matrix trace."""
    return _trace_oracle(p, u, 1)


def theta1_trace_oracle(p: int, u: int) -> dict[int, int]:
    """theta1 on x^u dx/x = (1/p) x^u d(x^p)/x^p: the trace of x^u over p,
    whose 1/p must cancel."""
    return _trace_oracle(p, u, p)


def verify_theta_formulas(prof: PrecisionProfile, geometry: Geometry) -> None:
    """Build gate: the matrix entry rule `psi_entries` with E := 1 must
    agree, column by column, with the rational trace oracle on all
    monomials |u| <= 3p, both sides reduced mod p^a with vanishing terms
    dropped."""
    p = prof.p
    m = p ** prof.a
    exps = range(0 if geometry is Geometry.AFFINE_LINE else -3 * p, 3 * p + 1)
    unit = {0: ZpTSeries.one(p, prof.b, prof.work)}
    for i, oracle in enumerate((theta0_trace_oracle, theta1_trace_oracle)):
        entries = psi_entries(unit, i, prof, exps)
        for k, u in enumerate(exps):
            column = {v: c for v, row in zip(exps, entries) if (c := row[k].vals[0] % m)}
            if column != {v: c % m for v, c in oracle(p, u).items() if c % m}:
                raise CertificateError(f"theta{i} disagrees with trace oracle at u={u}")


# matrices -------------------------------------------------------------------

@dataclass
class NuclearMatrix:
    """Matrix of psi_i = theta_i o (E_f *) in the plain monomial basis.

    Row/column index k corresponds to exponent basis_offset + k."""

    entries: list[list[ZpTSeries]]
    degree_index: int
    weight_c: int
    basis_offset: int
    geometry: Geometry
    prof: PrecisionProfile

    @property
    def size(self) -> int:
        return len(self.entries)

    def exponent(self, index: int) -> int:
        return self.basis_offset + index


def basis_exponents(geometry: Geometry, i: int, D: int) -> tuple[int, int]:
    """(offset, size) of the monomial basis used for degree i: x^u for
    i = 0, x^u dx/x for i = 1."""
    if geometry is Geometry.AFFINE_LINE:
        if i == 0:
            return 0, D + 1          # 1, x, ..., x^D
        return 1, D                  # x dx/x = dx, ..., x^D dx/x
    return -D, 2 * D + 1             # x^-D .. x^D


def psi_entries(coeffs: dict[int, ZpTSeries], i: int, prof: PrecisionProfile,
                exps) -> list[list[ZpTSeries]]:
    """Matrix of theta_i o (E *) on the basis exponents `exps`, E given by
    its coefficients: entry (v, u) is (p if i = 0 else 1) * E[p v - u]."""
    # the nonzero coefficients of E, with theta0's factor p applied
    table = {}
    for j, c in coeffs.items():
        c = c.scale(prof.p) if i == 0 else c
        if not c.is_zero():
            table[j] = c
    zero = ZpTSeries.zero(prof.p, prof.b, prof.work)
    return [[table.get(prof.p * v - u, zero) for u in exps] for v in exps]


def assemble_matrix(ef: SplittingFunction, i: int, prof: PrecisionProfile,
                    base_D: int | None = None) -> NuclearMatrix:
    """Matrix of psi_i over the monomial basis, each entry looked up as
    (p or 1) * E_f[p v - u].  Runs the theta gate against the rational
    trace oracle first, then checks the mod-T degeneration and the T-adic
    decay certificate.  With `base_D`, the block on the basis at base_D
    is the caller's to certify against a matrix assembled there, gate
    included (it does not depend on D): only entries past it are checked."""
    if i not in (0, 1):
        raise ValueError("degree index must be 0 or 1")
    geometry = ef.series.geometry
    offset, size = basis_exponents(geometry, i, prof.D)
    block = range(0)
    if base_D is None:
        verify_theta_formulas(prof, geometry)
    else:
        lo, n = basis_exponents(geometry, i, base_D)
        block = range(lo - offset, lo - offset + n)
    entries = psi_entries(ef.series.coeffs, i, prof, range(offset, offset + size))
    mat = NuclearMatrix(entries=entries, degree_index=i, weight_c=max(ef.source.degree, 1),
                        basis_offset=offset, geometry=geometry, prof=prof)
    _check_matrix_certificates(mat, block)
    return mat


def _check_matrix_certificates(mat: NuclearMatrix, block: range = range(0)) -> None:
    """Decay and degeneration certificates, on every entry whose row or
    column lies outside the index range `block`.

    Plain-basis decay: v_T(entry(v,u)) >= ceil(|p v - u| / d) since the
    entry is (p or 1 times) the splitting-function coefficient at
    p v - u; this bound is the contraction that makes psi nuclear.  Mod T
    the matrix must degenerate to theta_i, and on the affine line an
    entry with p v < u must vanish."""
    p = mat.prof.p
    d = mat.weight_c
    scale = p if mat.degree_index == 0 else 1
    for v in range(mat.size):
        ev = mat.exponent(v)
        for u in range(mat.size):
            if v in block and u in block:
                continue
            eu = mat.exponent(u)
            e = mat.entries[v][u]
            j = p * ev - eu
            if mat.geometry is Geometry.AFFINE_LINE and j < 0:
                if not e.is_zero():
                    raise CertificateError(f"entry ({v},{u}) should vanish")
                continue
            # beyond T^b nothing is observable, so the bound caps at b
            need = min(-(-abs(j) // d), mat.prof.b)
            vt = e.vT()
            if vt.value < need:
                raise CertificateError(
                    f"entry ({v},{u}) has v_T {vt.value} < decay bound {need}")
            # mod T the factor E_f is 1, so only the theta index map survives
            t0 = e.vals[0] % p ** mat.prof.a
            expect = (scale if j == 0 else 0) % p ** mat.prof.a
            if t0 != expect:
                raise CertificateError(
                    f"entry ({v},{u}) mod T is {t0}, expected {expect}")
