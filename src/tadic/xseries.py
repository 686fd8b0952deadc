"""Truncated functions and differentials on the lifted coordinate ring.

An XSeries is a finite Laurent expansion sum_u c_u x^u with coefficients
in Z_p[[T]] mod (p^w, T^b).  On the affine line exponents run over
0..bound, on the torus over -bound..bound; everything outside is cut.
The cut is sound for this package's consumers because every series that
gets multiplied in has coefficient T-valuation growing linearly in |u|,
so discarded terms are 0 mod T^b.
"""

from __future__ import annotations

import enum

from .zp import ZpTSeries


class Geometry(enum.Enum):
    AFFINE_LINE = "affine"
    TORUS = "torus"


class XSeries:
    """Sparse truncated element of the coordinate ring (or of its rank-one
    module of differentials, when `differential` is set)."""

    __slots__ = ("prof", "geometry", "bound", "coeffs", "differential")

    def __init__(self, prof, geometry: Geometry, bound: int, coeffs=None,
                 differential: bool = False):
        self.prof = prof
        self.geometry = geometry
        self.bound = bound
        self.differential = differential
        cleaned: dict[int, ZpTSeries] = {}
        for u, c in (coeffs or {}).items():
            if not self._in_range(u):
                raise ValueError(f"exponent {u} outside range for {geometry}")
            if not c.is_zero():
                cleaned[u] = c
        self.coeffs = cleaned

    def _in_range(self, u: int) -> bool:
        if self.geometry is Geometry.AFFINE_LINE:
            return 0 <= u <= self.bound
        return -self.bound <= u <= self.bound

    def _zero_coeff(self) -> ZpTSeries:
        return ZpTSeries.zero(self.prof.p, self.prof.b, self.prof.work)

    def coeff(self, u: int) -> ZpTSeries:
        c = self.coeffs.get(u)
        return c if c is not None else self._zero_coeff()

    def exponents(self):
        return sorted(self.coeffs)

    def __repr__(self) -> str:
        tag = " d*" if self.differential else ""
        return f"XSeries({self.geometry.value}{tag}, deg<= {self.bound}, {len(self.coeffs)} terms)"

    @classmethod
    def monomial(cls, prof, geometry, bound, u: int,
                 differential: bool = False) -> "XSeries":
        c = ZpTSeries.one(prof.p, prof.b, prof.work)
        return cls(prof, geometry, bound, {u: c}, differential)

    @classmethod
    def one(cls, prof, geometry, bound) -> "XSeries":
        return cls.monomial(prof, geometry, bound, 0)

    def _check(self, other: "XSeries") -> None:
        if self.geometry is not other.geometry or self.bound != other.bound:
            raise ValueError("mismatched geometry or degree bound")

    def __mul__(self, other: "XSeries") -> "XSeries":
        """Product, discarding exponents outside the retained window."""
        self._check(other)
        if self.differential and other.differential:
            raise ValueError("cannot multiply two differentials")
        out: dict[int, ZpTSeries] = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                t = u + v
                if not self._in_range(t):
                    continue
                term = cu * cv
                prev = out.get(t)
                out[t] = term if prev is None else prev + term
        return XSeries(self.prof, self.geometry, self.bound, out,
                       self.differential or other.differential)

    def frobenius_pullback(self) -> "XSeries":
        """sigma: x -> x^p on functions; exponents outside the window cut."""
        p = self.prof.p
        out = {}
        for u, c in self.coeffs.items():
            if self._in_range(p * u):
                out[p * u] = c
        return XSeries(self.prof, self.geometry, self.bound, out, self.differential)
