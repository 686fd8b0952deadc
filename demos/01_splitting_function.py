"""Walk through the p-adic ingredients of a tower's splitting function.

Run:  python3 demos/01_splitting_function.py
"""

from tadic import (
    Geometry,
    PrecisionProfile,
    TowerInput,
    build_Ef,
    pi_from_T,
)
from tadic.series import artin_hasse_fractions
from tadic.splitting import fiber_character_value, norm_of_ef_at_orbit
from tadic.unramified import teichmuller_powers
from tadic.zp import teichmuller_int

p = 2
prof = PrecisionProfile.create(p, a=6, b=8, smax=4, dmax=4)
print(f"profile: p={p}, {prof.a} reported digits, {prof.guard} guard digits, T^{prof.b}")

# Teichmuller lifts: the root-of-unity representatives in Z_p; a scalar
# is a plain int, a residue at the precision asked for (here 3^3)
print("\nTeichmuller lift of 2 in Z_3 (27-adic):", teichmuller_int(2, 3, 3))

# The Artin-Hasse exponential is p-integral even though exp is not
coeffs = artin_hasse_fractions(p, 8)
print("\nArtin-Hasse E(t) coefficients (exact):", [str(c) for c in coeffs])

# pi is the T-adic analogue of Dwork's pi: E(pi) = 1 + T
pi = pi_from_T(prof)
print("pi =", list(pi.vals[:4]), f"... mod (2^{prof.work}, T^{prof.b})")
print("   (starts T - T^2: the reversion of E(t) = 1 + t + t^2 + ...)")

# The splitting function of the tower f = x: a single factor E(pi x)
tower = TowerInput(p, Geometry.AFFINE_LINE, {1: 1})
ef = build_Ef(tower, prof)
print(f"\nE_f for f = x has exponents {ef.series.exponents()}")
for u in ef.series.exponents()[:4]:
    print(f"  coeff of x^{u}: {list(ef.ef(u).vals[:5])} (v_T >= {u})")

# Dwork's splitting lemma in action: the norm of E_f over the Frobenius
# orbit of a Teichmuller point equals (1+T)^(trace of f there).  The three
# nonzero points of F_4 are the powers g^0, g^1, g^2 of one lifted
# generator, so a point is its exponent k, and its conjugate is g^(2k).
points = list(teichmuller_powers(p, 2, prof))
for k in range(len(points)):
    lhs = norm_of_ef_at_orbit(ef, points, k)
    rhs = fiber_character_value(tower, points, k, prof)
    ok = lhs.reduced(prof.a).agrees_with(rhs.reduced(prof.a))
    residue = [c % p for c in points[k].coords]
    print(f"fiber identity at g^{k} (residue {residue} of F_4): {'ok' if ok else 'FAIL'}")
