# Normal ordering step by step: push every power of A = u(z) d/dz into
# the form  sum_s P[s] (d/dz)^s  with P[s] a polynomial in u, u', u'', ...
#
# Run after installing the package:  python demos/01_normal_ordering.py

from opow import expand, extract_C, extract_F, step

# The first few powers, fully expanded.  Coefficients grow quickly but
# stay exact integers.
for k in range(1, 6):
    exp = expand(k)
    print(f"A^{k}:")
    for s in range(1, k + 1):
        print(f"  ({exp.coeffs[s]}) D^{s}")
    print()

# One more application of A transforms the coefficient table in place;
# recomputing from scratch gives the identical object.
exp5 = expand(5)
assert step(expand(4)) == exp5
print("step(expand(4)) == expand(5):", step(expand(4)) == exp5)

# Inside each coefficient hides a block structure: stripping the power
# of u from the monomials leaves the u-free blocks F_m.
print()
print("blocks of A^5 at derivative order 2 (table index s = 3):")
for m in range(1, 4):
    print(f"  m={m}: {extract_F(exp5, m=m, s=3)}")

# Every monomial carries one integer table entry, keyed (k, s, m, alpha)
# with alpha the exponent tuple of the derivative factors.
print()
print("all table entries of A^4:")
for (k, s, m, alpha), value in extract_C(expand(4)):
    print(f"  C(s={s}, m={m}, k={k}) alpha={alpha} -> {value}")
