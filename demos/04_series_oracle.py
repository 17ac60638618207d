# The brute-force cross-check: apply A = u * d/dz to an actual Laurent
# series, one application at a time, and compare against evaluating the
# normal-ordered expansion on the same series.  The bulk check,
# oracle_suite, compares A^k f at z = 0 on seeded Taylor coefficients:
# the literal side applies A to truncated jets with their own derivative
# and product, the expansion side evaluates the coefficient polynomials
# on the values of u's jets and f's derivatives at 0 and never
# differentiates, so exact agreement is meaningful evidence.  The
# eigenfunction check at the end, A^k z^n = n^k z^n for u = z, checks
# the series derivative that the pair above shares.
#
# Run after installing the package:  python demos/04_series_oracle.py

import random

from opow import (
    LaurentSeries,
    apply_A_repeated,
    apply_expansion,
    eigenfunction_report,
    expand,
    oracle_suite,
    random_polynomial,
)

# Monomials are eigenfunctions of the Euler operator: (z d/dz)^k z^n = n^k z^n.
z = LaurentSeries.polynomial([0, 1])
f = LaurentSeries.z_power(3)
for k in range(1, 5):
    print(f"(z d/dz)^{k} z^3 = {apply_A_repeated(z, f, k)}")

# A Laurent case: u = 1/z pushes exponents down by 2 per application.
inv = LaurentSeries.z_power(-1)
g = LaurentSeries.z_power(6)
for k in range(1, 4):
    print(f"(z^-1 d/dz)^{k} z^6 = {apply_A_repeated(inv, g, k)}")

# One random pair, both routes, side by side.
rng = random.Random(2024)
u = random_polynomial(rng, 4)
f = random_polynomial(rng, 6)
print()
print("u =", u)
print("f =", f)
brute = apply_A_repeated(u, f, 4)
via_expansion = apply_expansion(expand(4), u, f)
print("A^4 f by repeated application:", brute)
print("A^4 f via the expansion:      ", via_expansion)
print("equal:", brute == via_expansion)

# And in bulk: 50 seeded trials, each taken through every power up to 5 at z = 0.
print()
report = oracle_suite(5, seed=42)
print(report.summary())
print(eigenfunction_report().summary())
