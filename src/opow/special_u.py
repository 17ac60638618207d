"""Specializing the generic expansion to concrete choices of u(z).

Substituting an actual function for u collapses each differential
monomial to a term  coeff * z^a * e^(m z) * (d/dz)^s  with an exact
rational coefficient.  A substitution rule is u itself written as such
a z-function, a finite sum of terms c z^a e^(m z) with exact rational
c; the named rules are

* u = z        (IDENTITY_Z)
* u = e^z      (EXP_Z)
* u = 1/z      (INVERSE_Z)

and :func:`polynomial_u` builds u = p(z) for a polynomial p with exact
rational coefficients.

:func:`expand_specialized` computes these terms directly, by running
the normal-ordering recurrence P_s <- u (P_(s-1) + P_s') over sparse
int z-functions; it never builds the generic expansion.  The walk goes
one derivative order at a time, so :func:`specialized_rows` yields each
P_s of A^k as soon as it is built; that generator is what the CLI
writes from.  :func:`specialize` instead differentiates u into its jets
u, u', ..., u^(J) and substitutes them into every monomial of the
generic expansion, one product of cached jet powers per monomial.  The
two routes share no arithmetic, so ``specialize(expand(k), rule)`` is
the reference that verifies the direct route.

For u = 1/z the whole power collapses to one signed integer per
derivative order: A^k = sum_s a(k, s) z^(s - 2k) (d/dz)^s.  Those
integers have their own two-term recurrence (:func:`a_table_by_recurrence`,
a dict keyed (k, s)) and a closed form in double factorials and
binomials; :func:`verify_inverse_z_table` checks recurrence, closed form
and the specialized expansion against each other, and
:func:`verify_specializations` checks u = z against second-kind
Stirling numbers, u = e^z against unsigned first-kind Stirling numbers,
and the direct route's u = 1/z against the same closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from . import _Value, _exact

if TYPE_CHECKING:
    from .expansion import OperatorExpansion
    from .report import VerificationReport

# A z-function is a sparse dict {(z_exp, exp_mult): coeff} standing for the
# sum of coeff * z^z_exp * e^(exp_mult z).  Both routes below use this
# representation, each with its own arithmetic.

_ZFunction = dict[tuple[int, int], Rational]


class URule(_Value):
    """A substitution for u, held as its z-function.  Build it from a
    mapping {(z_exp, exp_mult): coeff}; ``terms`` is then the sorted
    tuple of ((z_exp, exp_mult), coeff) pairs for
    u = sum coeff * z^z_exp * e^(exp_mult z).  The exponents must be
    ints and every coefficient an exact rational (anything else is a
    TypeError); zero terms are dropped and a rule with none left is a
    ValueError.  An integral coefficient is stored as int, any other as
    Fraction."""

    __slots__ = ("terms",)

    terms: tuple[tuple[tuple[int, int], int | Fraction], ...]

    def __init__(
        self,
        terms: Mapping[tuple[int, int], Rational] | tuple[tuple[tuple[int, int], Rational], ...],
    ) -> None:
        exact = {key: _exact(c) for key, c in dict(terms).items()}
        if not all(type(a) is int and type(m) is int for a, m in exact):
            raise TypeError("the exponents of u must be ints")
        terms = tuple(sorted((key, c) for key, c in exact.items() if c))
        if not terms:
            raise ValueError("a substitution needs a nonzero term")
        _Value.__init__(self, terms)


IDENTITY_Z = URule({(1, 0): 1})
EXP_Z = URule({(0, 1): 1})
INVERSE_Z = URule({(-1, 0): 1})


def polynomial_u(coeffs: Iterable[int | Fraction]) -> URule:
    """Substitution u = c0 + c1 z + c2 z^2 + ... with exact coefficients;
    an inexact coefficient such as a float is a TypeError."""
    coeffs = [_exact(c) for c in coeffs]
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("polynomial substitution needs a nonzero leading coefficient")
    return URule({(e, 0): c for e, c in enumerate(coeffs)})


class SpecialTerm(NamedTuple):
    """One term coeff * z^z_exp * e^(exp_mult * z) * (d/dz)^d_order."""

    coeff: Fraction
    z_exp: int
    exp_mult: int
    d_order: int


def _rule_jets(rule: URule, top: int) -> list[_ZFunction]:
    """The jets u, u', ..., u^(top) under the rule, as z-functions, each
    the derivative of the one before:
    d/dz (c z^a e^(mz)) = c a z^(a-1) e^(mz) + c m z^a e^(mz)."""
    jets: list[_ZFunction] = [dict(rule.terms)]
    for _ in range(top):
        jet: _ZFunction = {}
        for (a, m), c in jets[-1].items():
            if a:
                jet[a - 1, m] = jet.get((a - 1, m), 0) + c * a
            if m:
                jet[a, m] = jet.get((a, m), 0) + c * m
        jets.append(jet)
    return jets


def _jet_product(p: _ZFunction, q: _ZFunction) -> _ZFunction:
    out: _ZFunction = {}
    for (pa, pm), pc in p.items():
        for (qa, qm), qc in q.items():
            key = (pa + qa, pm + qm)
            out[key] = out.get(key, 0) + pc * qc
    return out


def specialize(exp: OperatorExpansion, rule: URule) -> tuple[SpecialTerm, ...]:
    """Evaluate the expansion's coefficient polynomials under the rule.

    Every rule is the list of its jets (see :func:`_rule_jets`), and a
    monomial c u^e0 (u')^e1 ... becomes c times the product of the jet
    powers it names.  Terms with equal (z_exp, exp_mult, d_order) are
    merged, zero terms dropped, and the result ordered by
    (d_order, z_exp, exp_mult).
    """
    jets = _rule_jets(rule, exp.max_jet)
    # powers[j][e] is jets[j]^e, grown when a monomial first needs it: plain
    # lists, so no closure refers to itself and the powers go at return
    powers: list[list[_ZFunction]] = [[{(0, 0): 1}] for _ in jets]
    acc: dict[tuple[int, int, int], Rational] = {}
    for s in range(1, exp.k + 1):
        for coeff, exps in exp.coeffs[s].terms:
            prod: _ZFunction = {(0, 0): coeff}
            for j, e in enumerate(exps):
                if e:
                    row = powers[j]
                    while len(row) <= e:
                        row.append(_jet_product(row[-1], jets[j]))
                    prod = _jet_product(prod, row[e])
            for (z_exp, emult), c in prod.items():
                acc[s, z_exp, emult] = acc.get((s, z_exp, emult), 0) + c
    return tuple(
        SpecialTerm(Fraction(acc[key]), key[1], key[2], key[0])
        for key in sorted(acc)
        if acc[key] != 0
    )


# The direct route: the normal-ordering recurrence run over z-functions
# whose coefficients are all int, one row of the next power per call.

def _next_row(u: _ZFunction, lower: _ZFunction, upper: _ZFunction) -> _ZFunction:
    """u (P_(s-1) + P_s') from the rows P_(s-1) (``lower``) and P_s
    (``upper``) of one power: row s of the next, zero terms dropped.
    d/dz (c z^a e^(mz)) = c a z^(a-1) e^(mz) + c m z^a e^(mz)."""
    inner = dict(lower)
    for (a, m), c in upper.items():
        if a:
            inner[a - 1, m] = inner.get((a - 1, m), 0) + c * a
        if m:
            inner[a, m] = inner.get((a, m), 0) + c * m
    out: _ZFunction = {}
    for (pa, pm), pc in u.items():
        for (qa, qm), qc in inner.items():
            key = (pa + qa, pm + qm)
            out[key] = out.get(key, 0) + pc * qc
    return {key: c for key, c in out.items() if c}


def _scaled_u(rule: URule) -> tuple[_ZFunction, int]:
    """u times the lcm D of its coefficient denominators, and D."""
    scale = math.lcm(*(c.denominator for _, c in rule.terms))
    return {key: c.numerator * (scale // c.denominator) for key, c in rule.terms}, scale


def specialized_rows(k: int, rule: URule) -> Iterator[tuple[SpecialTerm, ...]]:
    """The rows P_1, ..., P_k of A^k = sum_s P_s (d/dz)^s under the rule,
    each yielded as soon as it is built: the terms of (d/dz)^s ordered by
    (z_exp, exp_mult), and an empty tuple for a zero P_s.

    If P_(j,s) is row s of A^j, one more A gives
    P_(j,s) = u (P_(j-1,s-1) + P_(j-1,s)'), run here on z-functions from
    A^0 = (d/dz)^0.  Row s of every power reads only rows s - 1 and s of
    the power before, so the walk goes one derivative order at a time:
    column s, P_(j,s) for j = s..k, is built from column s - 1 alone, and
    P_s of A^k is out after k - s + 1 more steps (k for P_1).  The
    arithmetic is in int: with D the lcm of the coefficient denominators
    of u, the recurrence runs on D u, and (D u d/dz)^k = D^k A^k, so each
    coefficient of A^k is divided by D^k once, as its row is yielded.
    A k below 1 is a ValueError, raised at the first ``next``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    u, scale = _scaled_u(rule)
    denominator = scale**k
    # column s - 1 from power s - 1 on: P_(j,0) is zero for every j >= 1
    lower: list[_ZFunction] = [{(0, 0): 1}] + [{}] * k
    for s in range(1, k + 1):
        column: list[_ZFunction] = []
        upper: _ZFunction = {}  # P_(s-1,s) is zero
        for below in lower[:-1]:  # P_(j-1,s-1) for j = s..k
            upper = _next_row(u, below, upper)
            column.append(upper)
        yield tuple(
            SpecialTerm(Fraction(c, denominator), z_exp, exp_mult, s)
            for (z_exp, exp_mult), c in sorted(upper.items())
        )
        lower = column


def expand_specialized(k: int, rule: URule) -> tuple[SpecialTerm, ...]:
    """The specialized form of A^k, computed without the generic expansion:
    the terms of :func:`specialized_rows`, ordered by (d_order, z_exp,
    exp_mult).

    Returns exactly what ``specialize(expand(k), rule)`` returns, which
    stays as the independent route that verifies this one.
    """
    return tuple(term for row in specialized_rows(k, rule) for term in row)


def a_table_by_recurrence(k_max: int) -> dict[tuple[int, int], int]:
    """The signed coefficients of (z^-1 d/dz)^k for k <= k_max, keyed
    (k, s): entry (k, s) multiplies z^(s-2k) (d/dz)^s, 1 <= s <= k.

    Starting at the single entry 1 for k = 1, one more power of
    z^-1 d/dz updates the row by  new(s) = old(s-1) - (2k-s) old(s)
    for 1 <= s <= k+1, with old(0) = old(k+1) = 0: the combinat row
    step with weight s + 2 - 2n for row n = k + 1.
    """
    from .combinat import _triangle_rows

    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = _triangle_rows(lambda n, s: s + 2 - 2 * n, [(1,)], k_max)
    return {(k, s): v for k, row in enumerate(rows, 1) for s, v in enumerate(row, 1)}


def a_closed_form(k: int, s: int) -> int:
    """Closed form of the signed table entry at (k, s):
    (-1)^(k-s) (2k-2s-1)!! binomial(2k-1-s, s-1), using (-1)!! = 1."""
    from .combinat import binomial, double_factorial_odd

    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s} k={k}")
    return (
        (-1) ** (k - s)
        * double_factorial_odd(2 * k - 2 * s - 1)
        * binomial(2 * k - 1 - s, s - 1)
    )


def _inverse_z_coeffs(k: int, terms: tuple[SpecialTerm, ...]) -> dict[int, Fraction]:
    """Map d_order -> coefficient for the terms of A^k at u = 1/z,
    asserting the z-exponent pattern s - 2k on the way."""
    out: dict[int, Fraction] = {}
    for term in terms:
        if term.z_exp != term.d_order - 2 * k or term.exp_mult != 0:
            raise ArithmeticError(f"unexpected specialized term {term} at k={k}")
        if term.d_order in out:
            raise ArithmeticError(f"duplicate derivative order at k={k}")
        out[term.d_order] = term.coeff
    return out


def verify_inverse_z_table(k_max: int) -> VerificationReport:
    """Three-way agreement for all k <= k_max: recurrence table entries,
    the closed form, and the u = 1/z specialization of the expansion."""
    from .expansion import expansions
    from .report import VerificationReport

    report = VerificationReport(suite="inverse-z", k_max=k_max)
    table = a_table_by_recurrence(k_max)
    for exp in expansions(k_max):
        k = exp.k
        coeffs = _inverse_z_coeffs(k, specialize(exp, INVERSE_Z))
        for s in range(1, k + 1):
            rec = table[k, s]
            loc = f"k={k} s={s}"
            report.expect_equal(f"{loc} recurrence vs closed form", rec, a_closed_form(k, s))
            report.expect_equal(f"{loc} recurrence vs specialization", rec, coeffs.get(s))
    return report


def verify_specializations(k_max: int) -> VerificationReport:
    """Check all three concrete substitutions for every k <= k_max.

    u = z, taken from ``specialize(expand(k), IDENTITY_Z)``, must give
    stirling2(k, s) on z^s (d/dz)^s with Bell-number row sums; u = e^z
    must give stirling1_unsigned(k, s) on e^(kz) (d/dz)^s with factorial
    row sums, and u = 1/z must match :func:`a_closed_form`, both taken
    from the direct route :func:`expand_specialized`.
    """
    from .combinat import bell, stirling1_unsigned, stirling2
    from .expansion import expansions
    from .report import VerificationReport

    report = VerificationReport(suite="special-u", k_max=k_max)
    for exp in expansions(k_max):
        k = exp.k
        # label, the terms, the (z_exp, exp_mult) every term must have and
        # its display, the reference coefficient of (d/dz)^s, and the row sum
        for label, terms, shape, reference, row_sum in (
            ("z", specialize(exp, IDENTITY_Z), lambda s: ((s, 0), f"z^{s}"), stirling2, bell(k)),
            (
                "exp",
                expand_specialized(k, EXP_Z),
                lambda s: ((0, k), f"e^({k}z)"),
                stirling1_unsigned,
                math.factorial(k),
            ),
        ):
            report.expect_equal(f"k={k} u={label} term count", k, len(terms))
            for t in terms:
                loc = f"k={k} u={label} s={t.d_order}"
                want, display = shape(t.d_order)
                report.expect(
                    (t.z_exp, t.exp_mult) == want,
                    loc + " shape",
                    display,
                    f"z^{t.z_exp} e-mult {t.exp_mult}",
                )
                report.expect_equal(loc, reference(k, t.d_order), t.coeff)
            report.expect_equal(f"k={k} u={label} row sum", row_sum, sum(t.coeff for t in terms))

        coeffs = _inverse_z_coeffs(k, expand_specialized(k, INVERSE_Z))
        for r in range(k):  # display index: term z^-(k+r) (d/dz)^(k-r)
            report.expect_equal(f"k={k} u=1/z r={r}", a_closed_form(k, k - r), coeffs.get(k - r))
    return report
