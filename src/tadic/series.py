"""The Artin-Hasse exponential and the distinguished element pi of
Z_p[[T]] with E(pi) = 1 + T.

The Artin-Hasse series is computed in exact rational arithmetic first and
reduced afterwards, so no p-adic digits are lost and p-integrality of the
result is a checkable certificate rather than an assumption.  pi is
solved from E(pi) = 1 + T one T-coefficient at a time, since that
equation is triangular in T, and is then certified by evaluating E(pi).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import CertificateError
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
    T-series, through the Kronecker-packed series product."""
    p, b = x.p, x.b
    acc = ZpTSeries.from_ints(p, b, [units[-1]], w)
    for c in reversed(units[:-1]):
        acc = acc * x + ZpTSeries.from_ints(p, b, [c], w)
    return acc


def pi_from_T(prof) -> ZpTSeries:
    """The unique series pi = T + O(T^2) with E(pi) = 1 + T.

    E(t) = 1 + t + sum_{k>=2} e_k t^k, so pi = T - sum_{k>=2} e_k pi^k,
    and [T^n] pi^k for k >= 2 involves only the coefficients of pi below
    n.  Coefficient n is therefore solved from those below it, on
    residues mod p^work with no division, so every coefficient is known
    to the working precision.  The result is certified once: E(pi) is
    evaluated by Horner over the series product and must be 1 + T."""
    p, b, w = prof.p, prof.b, prof.work
    m = ppow(p, w)
    units = artin_hasse_units(prof, max(b - 1, 1))
    pi = ([0, 1] + [0] * b)[:b]
    # pows[k][n] = [T^n] pi^k, filled one column n at a time
    pows = [None, pi] + [[0] * b for _ in range(2, b)]
    for n in range(2, b):
        acc = 0
        for k in range(2, n + 1):
            # [T^n] pi^k = sum_{j=1..n-k+1} pi_j [T^(n-j)] pi^(k-1)
            c = sum(map(mul, pi[1:n - k + 2], reversed(pows[k - 1][k - 1:n]))) % m
            pows[k][n] = c
            acc += units[k] * c
        pi[n] = -acc % m
    out = ZpTSeries.from_ints(p, b, pi, w)
    if not (_eval_poly_at_series(units, out, w)
            - ZpTSeries.from_ints(p, b, [1, 1], w)).is_zero():
        raise CertificateError("E(pi) != 1 + T")
    return out
