"""The Artin-Hasse exponential and the distinguished element pi of
Z_p[[T]] with E(pi) = 1 + T.

The Artin-Hasse series is computed in exact rational arithmetic first and
reduced afterwards, so no p-adic digits are lost and p-integrality of the
result is a checkable certificate rather than an assumption.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CertificateError, PrecisionError
from .zp import ZpTSeries, ppow


def artin_hasse_fractions(p: int, order: int) -> list[Fraction]:
    """Exact rational coefficients of exp(sum t^(p^i)/p^i) up to t^order.

    This is the independent oracle for the reduced series: the recurrence
    runs in Fraction arithmetic, and every coefficient must come out with
    denominator prime to p."""
    # derivative coefficients of the exponent g = sum t^(p^i)/p^i
    dg = [Fraction(0)] * (order + 1)
    q = 1
    i = 0
    while q <= order:
        dg[q] = Fraction(q, p ** i)   # j * g_j with j = p^i
        q *= p
        i += 1
    h = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if dg[j]:
                acc += dg[j] * h[k - j]
        h[k] = acc / k
    for k, c in enumerate(h):
        if c.denominator % p == 0:
            raise CertificateError(f"Artin-Hasse coefficient t^{k} not p-integral")
    return h


def artin_hasse_units(prof, order: int) -> list[int]:
    """Artin-Hasse coefficients reduced mod p^work."""
    m = ppow(prof.p, prof.work)
    return [(c.numerator % m) * pow(c.denominator % m, -1, m) % m
            for c in artin_hasse_fractions(prof.p, order)]


def _eval_poly_at_series(units: list[int], x: ZpTSeries, w: int) -> ZpTSeries:
    """Horner evaluation of a polynomial with coefficients mod p^w at a
    T-series."""
    p, b = x.p, x.b
    acc = ZpTSeries.from_ints(p, b, [units[-1]], w)
    for c in reversed(units[:-1]):
        acc = acc * x + ZpTSeries.from_ints(p, b, [c], w)
    return acc


def pi_from_T(prof) -> ZpTSeries:
    """The unique series pi = T - ... with E(pi) = 1 + T, computed by
    Newton iteration on E(pi) - (1 + T).  E'(t) has unit constant term,
    so each division is by a unit and costs no precision."""
    p, b, w = prof.p, prof.b, prof.work
    units = artin_hasse_units(prof, max(b - 1, 1))
    dunits = [u * k for k, u in enumerate(units)][1:] or [1]
    one_plus_T = ZpTSeries.from_ints(p, b, [1, 1], w)
    pi = ZpTSeries.from_ints(p, b, [0, 1], w)
    steps = 0
    while True:
        err = _eval_poly_at_series(units, pi, w) - one_plus_T
        if err.is_zero():
            break
        steps += 1
        if steps > b.bit_length() + 4:
            raise PrecisionError("pi iteration failed to converge")
        deriv = _eval_poly_at_series(dunits, pi, w)
        pi = pi - err * deriv.inverse()
    if not (_eval_poly_at_series(units, pi, w) - one_plus_T).is_zero():
        raise CertificateError("E(pi) != 1 + T after iteration")
    return pi
