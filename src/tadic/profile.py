"""Precision profiles for truncated arithmetic in Z_p[[T]].

Every computation fixes, up front, a prime p, a target p-adic precision a,
a T-adic truncation order b, an x-degree cutoff D for coordinate-ring
series, truncation orders smax and dmax for the s-variable and for point
enumeration, and a number of guard digits.  Internal arithmetic runs at
a + guard p-adic digits so that the divisions performed downstream
(binomial coefficients by k!, exponential recurrences by k) still leave
answers correct mod p^a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError


# Miller-Rabin with the thirteen prime bases 2..41 is exact below
# PRIME_TEST_BOUND = psi_13; the twelve bases 2..37 only reach 3.2e23
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= PRIME_TEST_BOUND is a usage error."""
    if n >= PRIME_TEST_BOUND:
        raise UsageError(f"p = {n} is too large: primality is decided only "
                         f"below {PRIME_TEST_BOUND}")
    if n < 2 or any(n % r == 0 for r in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for r in _BASES:
        x = pow(r, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def ceil_log(base: int, n: int) -> int:
    """Least g >= 0 with base**g >= n."""
    g = 0
    q = 1
    while q < n:
        q *= base
        g += 1
    return g


def default_guard(p: int, b: int, smax: int, dmax: int) -> int:
    """Guard digits covering every division the pipelines perform:
    v_p(b!) for binomial coefficients, plus enough for divisions by
    k <= max(smax, dmax) in the exp recurrence of l_from_traces."""
    return vp_factorial(b, p) + ceil_log(p, max(smax, dmax))


@dataclass(frozen=True)
class PrecisionProfile:
    """Immutable bundle of truncation orders.

    p: prime; a: reported p-adic digits; b: T-adic coefficients kept;
    D: x-degree cutoff for operator matrices; smax: s-degree kept;
    dmax: maximum enumeration degree; guard: extra working p-digits.
    """

    p: int
    a: int
    b: int
    D: int
    smax: int
    dmax: int
    guard: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise UsageError(f"p = {self.p} is not prime")
        for name in ("a", "b", "D", "smax", "dmax"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.guard < 0:
            raise UsageError("guard must be >= 0")
        floor_log = ceil_log(self.p, max(self.smax, self.dmax))
        if self.p ** floor_log > max(self.smax, self.dmax):
            floor_log -= 1
        if self.guard < vp_factorial(self.b, self.p) + floor_log:
            raise UsageError(
                "guard too small for the divisions this profile performs: "
                f"need at least v_p(b!) + floor(log_p(max(smax,dmax))) = "
                f"{vp_factorial(self.b, self.p) + floor_log}"
            )

    @property
    def work(self) -> int:
        """Working p-adic precision (digits) for internal arithmetic."""
        return self.a + self.guard

    @classmethod
    def create(
        cls,
        p: int,
        a: int,
        b: int,
        smax: int,
        dmax: int,
        *,
        degree: int = 1,
        D: int | None = None,
        guard: int | None = None,
    ) -> "PrecisionProfile":
        """Build a profile, filling D and guard with their defaults.

        The default D = max(degree * (b + smax), p) makes monomials beyond
        the cutoff irrelevant mod T^b and is never below the D >= p the
        Dwork matrices need; `degree` is the x-degree of the tower the
        profile will serve (1 if unknown).
        """
        if guard is None:
            guard = default_guard(p, b, smax, dmax)
        if D is None:
            D = max(max(degree, 1) * (b + smax), p)
        return cls(p=p, a=a, b=b, D=D, smax=smax, dmax=dmax, guard=guard)

    def with_D(self, D: int) -> "PrecisionProfile":
        return PrecisionProfile(
            p=self.p, a=self.a, b=self.b, D=D,
            smax=self.smax, dmax=self.dmax, guard=self.guard,
        )
