# Substituting concrete functions for u collapses the generic expansion
# to classical operators:
#
#   u = z    the Euler operator, with second-kind Stirling coefficients
#   u = e^z  unsigned first-kind Stirling coefficients times e^(kz)
#   u = 1/z  one signed integer per derivative order, with its own
#            closed form in double factorials and binomials
#
# Run after installing the package:  python demos/03_special_functions.py

from opow import (
    EXP_Z,
    IDENTITY_Z,
    INVERSE_Z,
    a_closed_form,
    a_table_by_recurrence,
    expand,
    polynomial_u,
    specialize,
)

print("u = z (Euler operator):")
for k in range(1, 6):
    terms = specialize(expand(k), IDENTITY_Z)
    rendered = " + ".join(f"{t.coeff} z^{t.z_exp} D^{t.d_order}" for t in terms)
    print(f"  (z d/dz)^{k} = {rendered}")

print()
print("u = e^z (coefficients of e^(kz) D^s):")
for k in range(1, 6):
    terms = specialize(expand(k), EXP_Z)
    print(f"  k={k}: {[int(t.coeff) for t in terms]}")

print()
print("u = 1/z:")
for k in range(1, 6):
    terms = specialize(expand(k), INVERSE_Z)
    rendered = " + ".join(f"({t.coeff}) z^{t.z_exp} D^{t.d_order}" for t in terms)
    print(f"  (z^-1 d/dz)^{k} = {rendered}")

# The signed 1/z coefficients come out of a two-term recurrence, as a
# dict keyed (k, s), and a closed form; both match the specialized
# expansion above.
print()
table = a_table_by_recurrence(8)
print("signed 1/z table rows (recurrence route), with the closed form in brackets:")
for k in range(1, 9):
    row = [table[k, s] for s in range(1, k + 1)]
    closed = [a_closed_form(k, s) for s in range(1, k + 1)]
    print(f"  k={k}: {row} [{closed}]")

# Arbitrary polynomials work too, with exact rational coefficients.
print()
u = polynomial_u([0, 0, 1])  # u = z^2
terms = specialize(expand(3), u)
print("(z^2 d/dz)^3 =", " + ".join(f"{t.coeff} z^{t.z_exp} D^{t.d_order}" for t in terms))
