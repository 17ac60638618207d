"""Normal-ordered expansion of powers of the operator A = u(z) d/dz.

Applied to a function f, the k-th power of A is a sum over s = 1..k of
a coefficient polynomial in u, u', u'', ... times the pure derivative
(d/dz)^s.  The engine builds these coefficient polynomials iteratively:
appending one more factor of A transforms the table by

    new[s] = u * old[s-1] + u * d/dz old[s]    (1 <= s <= k+1)

with old[0] = old[k+1] = 0, starting from the single entry u at k = 1.

Every monomial of the s-th coefficient at power k has total degree k
and differential weight k - s.  That invariant drives the extraction of
the inner coefficient blocks: the s-th-from-the-top coefficient splits
into slices u^(k-m) * F_m, where F_m collects the monomials free of u
whose exponent tuple alpha satisfies sum(alpha) = m and
sum(i * alpha_i) = s.  The integers attached to those monomials are the
table entries served by :func:`extract_C` as ((k, s, m, alpha), value)
pairs, the one place that reads them off and checks the invariant;
:func:`extract_F` reassembles a block F_m from those pairs.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from . import _Value
from .diffpoly import (
    DiffPolynomial,
    ExponentVector,
    degree,
    normalize,
    total_derivative,
    trim,
    weight,
)
from .report import VerificationReport

U = DiffPolynomial.u_power(1)

# The key (k, s, m, alpha) of one coefficient-table entry.
CKey = tuple[int, int, int, ExponentVector]


class OperatorExpansion(_Value):
    """Coefficients of A^k in normal order: coeffs[s] multiplies (d/dz)^s."""

    __slots__ = ("k", "coeffs")

    k: int
    coeffs: dict[int, DiffPolynomial]

    @property
    def max_jet(self) -> int:
        """The highest j with u^(j) in some monomial, read from the
        monomials themselves rather than from the degree/weight invariant."""
        jets = (len(mono.exps) - 1 for p in self.coeffs.values() for mono in p.terms)
        return max(jets, default=0)


def expansions(k_max: int) -> Iterator[OperatorExpansion]:
    """Yield A^1, A^2, ..., A^k_max, each built from the one before by :func:`step`.

    The zeroth power is deliberately not defined; the walk starts with
    the single term u * d/dz.  A k_max below 1 raises ValueError on the
    first iteration.
    """
    if k_max < 1:
        raise ValueError("operator power must be a positive integer")
    exp = OperatorExpansion(1, {1: U})
    yield exp
    while exp.k < k_max:
        exp = step(exp)
        yield exp


def expand(k: int) -> OperatorExpansion:
    """Normal-ordered coefficients of A^k, k >= 1: the last power of the walk."""
    for exp in expansions(k):
        pass
    return exp


def step(exp: OperatorExpansion) -> OperatorExpansion:
    """Coefficients of A^(k+1) from those of A^k (one more factor of A)."""
    k = exp.k
    zero = DiffPolynomial.zero()
    old = [zero, *(exp.coeffs[s] for s in range(1, k + 1)), zero]
    coeffs = {s: U * old[s - 1] + U * total_derivative(old[s]) for s in range(1, k + 2)}
    return OperatorExpansion(k + 1, coeffs)


def extract_F(exp: OperatorExpansion, m: int, s: int) -> DiffPolynomial:
    """The u-free block F_m inside the coefficient of (d/dz)^(k-s).

    Valid for 1 <= m <= s <= k-1.  The block is the entries of
    :func:`extract_C` at (s, m), each alpha read back as the monomial
    u^0 (u')^alpha_1 (u'')^alpha_2 ...; so a monomial that breaks the
    degree or weight invariant raises ArithmeticError here too.
    """
    k = exp.k
    if not 1 <= m <= s <= k - 1:
        raise ValueError(f"need 1 <= m <= s <= k-1, got m={m} s={s} k={k}")
    return normalize([(v, (0, *key[3])) for key, v in extract_C(exp) if key[1:3] == (s, m)])


def extract_C(exp: OperatorExpansion) -> list[tuple[CKey, int]]:
    """All coefficient entries of the expansion as ((k, s, m, alpha), value)
    pairs sorted by key: the list ``ctable.c_table_powers`` yields for
    power k.

    Every monomial of coeffs[j] for j < k yields one entry with
    s = k - j and m = k - (u-exponent).  A monomial that violates the
    degree or weight constraint raises ArithmeticError instead of being
    reinterpreted; a k below 2 is a ValueError.
    """
    k = exp.k
    if k < 2:
        raise ValueError("extraction needs k >= 2")
    entries = []
    for j in range(1, k):
        s = k - j
        for mono in exp.coeffs[j].terms:
            if degree(mono.exps) != k or weight(mono.exps) != k - j:
                raise ArithmeticError(
                    f"invariant violation in coeffs[{j}] of A^{k}: monomial {mono}"
                )
            u_exp, *alpha = mono.exps
            entries.append(((k, s, k - u_exp, trim(alpha)), mono.coeff))
    return sorted(entries)


def check_closed_forms(exp: OperatorExpansion) -> VerificationReport:
    """Check the two explicit coefficient formulas at the top of the table.

    The top coefficient must be u^k, the one below it the triangular
    number k(k-1)/2 times u^(k-1) u'.
    """
    k = exp.k
    if k < 2:
        raise ValueError("closed-form check needs k >= 2")
    report = VerificationReport(suite="closed-form", k_max=k)
    report.expect_equal(f"k={k} s={k}", DiffPolynomial.u_power(k), exp.coeffs[k])
    next_down = DiffPolynomial.monomial(k * (k - 1) // 2, (k - 1, 1))
    report.expect_equal(f"k={k} s={k - 1}", next_down, exp.coeffs[k - 1])
    return report


def verify_closed_forms(k_max: int) -> VerificationReport:
    """One walk of the powers: :func:`check_closed_forms` on each of
    2..k_max, its checks and failures gathered into one report."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    report = VerificationReport(suite="closed-form", k_max=k_max)
    for exp in islice(expansions(k_max), 1, None):
        one = check_closed_forms(exp)
        report.checks += one.checks
        report.failures += one.failures
    return report
