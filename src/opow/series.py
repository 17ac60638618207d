"""Laurent polynomials with exact rational coefficients.

This is the brute-force side of the package: apply A = u * d/dz to a
series literally, one application at a time, and compare against
evaluating the normal-ordered coefficient polynomials on the same
series.  Exact agreement is a real check of the expansion engine: the
two sides differentiate series the same way, but they form their
products and sums by separate arithmetic.

The literal route multiplies series.  The expansion side takes the
same ``LaurentSeries.derivative`` for u's jets and f's derivatives, then
scales them to integer coefficients, packs each as its value at
z = 2^w, forms the whole sum with integer products and shifts, and
splits the result once into balanced base-2^w digits: every
coefficient it returns comes from that one integer.  The width w
comes from an l1 bound on every coefficient of the result
(|pq|_1 <= |p|_1 |q|_1), so the digits are exactly its coefficients.
The two results are then compared with ``==``, so every coefficient
is compared.
What the evaluation needs of the expansions alone (each power's highest
jet, and each monomial's coefficient, jet powers and degree) is read
into a plan first.  :func:`_apply_plan` evaluates every power of a plan
on one (u, f) pair and forms the jets, derivatives, denominators and
norms once for all of them; each power keeps its own width.
:func:`oracle_suite` builds one plan for the whole suite and evaluates
all its pairs on it.  It takes each pair through every
power: the literal side applies A once more to the last power's
result, the expansion side evaluates every power on (u, f) itself and
never sees a literal result.

The two sides share only ``LaurentSeries.derivative``.  A derivative
off by a constant factor c does pass the oracle, since c * d/dz is
still a derivation and both sides then compute c^k A^k f; the unit
tests of ``derivative`` and :func:`eigenfunction_report`
(A^k z^n = n^k z^n for u = z) catch it.

A series stores a dense block of exact coefficients starting at
``min_exp``; every other coefficient is zero, so every series is exact.
An integral coefficient is a plain ``int`` and any other is a
``fractions.Fraction``; Python's numeric tower keeps mixed arithmetic
exact, so integer polynomials (every random oracle input) never pay for
Fraction arithmetic.  An infinite series such as e^z enters as its
Taylor polynomial (see :func:`series_for_rule`): the comparison is a
polynomial identity in the jets, so an exact u tests the engine as
fully as a truncated one.  The arithmetic is what the oracle uses and
no more: the derivative, and the sum and product of two series (a
scalar operand is a TypeError).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat
from operator import add, mul, pos
from typing import Callable, Iterable, Mapping, Sequence

from . import _Value
from .diffpoly import signed_join
from .expansion import OperatorExpansion, expand, expansions
from .report import VerificationReport
from .special_u import URule, _exact

Exact = int | Fraction
_INT_ONLY = frozenset({int})


class LaurentSeries(_Value):
    __slots__ = ("min_exp", "coeffs")

    min_exp: int
    coeffs: tuple[Exact, ...]

    def __init__(self, min_exp: int, coeffs: Sequence[Exact]) -> None:
        # int arithmetic stays int, so only other types need coercing
        if not _INT_ONLY.issuperset(map(type, coeffs)):
            coeffs = [_exact(c) for c in coeffs]
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))
        object.__setattr__(self, "min_exp", min_exp + lo if hi > lo else 0)

    # construction ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls(0, ())

    @classmethod
    def polynomial(cls, coeffs: Iterable[Exact], min_exp: int = 0) -> "LaurentSeries":
        """Exact finite series: coeffs[i] multiplies z^(min_exp + i)."""
        return cls(min_exp, tuple(coeffs))

    @classmethod
    def z_power(cls, n: int, coeff: Exact = 1) -> "LaurentSeries":
        return cls(n, (coeff,))

    @classmethod
    def from_terms(cls, terms: Mapping[int, Exact]) -> "LaurentSeries":
        if not terms:
            return cls.zero()
        lo = min(terms)
        hi = max(terms)
        return cls(lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1)))

    # inspection -----------------------------------------------------

    def items(self) -> list[tuple[int, Exact]]:
        return [
            (self.min_exp + i, c) for i, c in enumerate(self.coeffs) if c != 0
        ]

    def __str__(self) -> str:
        def body(e: int, mag: Exact) -> str:
            if e == 0:
                return str(mag)
            factor = "z" if e == 1 else f"z^{e}"
            return factor if mag == 1 else f"{mag} {factor}"

        return signed_join((c, body(e, abs(c))) for e, c in self.items())

    # arithmetic -----------------------------------------------------

    def derivative(self) -> "LaurentSeries":
        m = self.min_exp
        coeffs = tuple(map(mul, self.coeffs, range(m, m + len(self.coeffs))))
        return LaurentSeries(m - 1, coeffs)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        a, b = self, other
        if a.min_exp > b.min_exp:
            a, b = b, a
        i = b.min_exp - a.min_exp
        j = i + len(b.coeffs)
        out = list(a.coeffs)
        out.extend(repeat(0, j - len(out)))
        out[i:j] = map(add, out[i:j], b.coeffs)
        return LaurentSeries(a.min_exp, tuple(out))

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # dense convolution, one slice update per coefficient of the shorter factor
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            out[i : i + len(b)] = map(add, out[i : i + len(b)], map(mul, repeat(ca), b))
        return LaurentSeries(self.min_exp + other.min_exp, tuple(out))

    __rmul__ = __mul__


def apply_A_repeated(u: LaurentSeries, f: LaurentSeries, k: int) -> LaurentSeries:
    """Apply f -> u * f' exactly k times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = f
    for _ in range(k):
        g = u * g.derivative()
    return g


def _denominator(s: LaurentSeries) -> int:
    """The lcm of the coefficient denominators: scaling by it clears them all."""
    return math.lcm(*(c.denominator for c in s.coeffs))


def _l1_norm(s: LaurentSeries, scale: int) -> int:
    """Sum of the absolute values of the coefficients of scale * s."""
    return sum(abs(c.numerator) * (scale // c.denominator) for c in s.coeffs)


def _packed(s: LaurentSeries, scale: int, w: int, shift: int) -> int:
    """The integer-coefficient Laurent polynomial scale * s * z^-shift at
    z = 2^w; scale must clear every denominator and shift <= s.min_exp
    unless s has no coefficients."""
    if not s.coeffs:
        return 0
    v = 0
    for c in reversed(s.coeffs):
        v = (v << w) + c.numerator * (scale // c.denominator)
    return v << (w * (s.min_exp - shift))


def _unpacked(v: int, w: int) -> list[int]:
    """The balanced base-2^w digits of v, least significant first: the
    inverse of packing when every coefficient lies in (-2^(w-1), 2^(w-1))."""
    digits = []
    mask, half, base = (1 << w) - 1, 1 << (w - 1), 1 << w
    while v:
        d = v & mask
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> w
    return digits


# A monomial of a coefficient polynomial, read once for evaluation: its
# coefficient, its jet powers (j, e) with e > 0, and its degree.
_Term = tuple[int, tuple[tuple[int, int], ...], int]

# One power of a plan: k, max_jet, and the monomials of each P_s.
_Power = tuple[int, int, dict[int, list[_Term]]]


def _plan(exps: Iterable[OperatorExpansion]) -> list[_Power]:
    """What evaluating the expansions needs of them alone, in their order.

    :func:`oracle_suite` builds it once and evaluates every (u, f) pair
    on it.  Each monomial keeps its own degree: none is assumed.
    """
    return [
        (
            exp.k,
            exp.max_jet,
            {
                s: [
                    (c, tuple((j, e) for j, e in enumerate(vector) if e), sum(vector))
                    for c, vector in exp.coeffs[s].terms
                ]
                for s in range(1, exp.k + 1)
            },
        )
        for exp in exps
    ]


def _evaluate(
    terms: Iterable[_Term],
    values: list[int],
    scale: Mapping[int, int],
    coeff: Callable[[int], int] = pos,
) -> int:
    """Sum of coeff(c) * scale[degree] * prod values[j]^e over the
    monomials of one coefficient polynomial."""
    total = 0
    for c, powers, d in terms:
        term = coeff(c) * scale[d]
        for j, e in powers:
            term *= values[j] ** e
        total += term
    return total


def apply_expansion(
    exp: OperatorExpansion, u: LaurentSeries, f: LaurentSeries
) -> LaurentSeries:
    """Evaluate the normal-ordered form of A^k on f: substitute series
    for u and its derivatives in each coefficient polynomial, multiply
    by the matching derivative of f, and sum (see :func:`_apply_plan`)."""
    return _apply_plan(_plan((exp,)), u, f)[0]


def _apply_plan(plan: list[_Power], u: LaurentSeries, f: LaurentSeries) -> list[LaurentSeries]:
    """:func:`apply_expansion` for every expansion that plan was read
    from, in their order.

    u's jets, f's derivatives, both denominators and every l1 norm are
    formed once for all powers.  Each power's sum is then one exact
    integer evaluation at z = 2^w with its own width w (see the module
    docstring).  u and f are scaled by the lcm of their denominators;
    a monomial of degree d carries the d-th power of u's, and every
    term is brought to the highest degree present, so no degree is
    assumed.
    """
    u_jets = [u]
    for _ in range(max((max_jet for _, max_jet, _ in plan), default=0)):
        u_jets.append(u_jets[-1].derivative())
    f_ders = [f]
    for _ in range(max((k for k, _, _ in plan), default=0)):
        f_ders.append(f_ders[-1].derivative())
    du, df = _denominator(u), _denominator(f)
    # l1 bound: |coefficient of pq| <= |p|_1 |q|_1
    u_norms = [_l1_norm(jet, du) for jet in u_jets]
    f_norms = [_l1_norm(der, df) for der in f_ders]
    results = []
    for k, max_jet, polys in plan:
        jets = u_jets[: max_jet + 1]
        # an exactly zero f^(s) annihilates P_s, whatever P_s is
        used = {s: terms for s, terms in polys.items() if f_ders[s].coeffs}
        degrees = {d for terms in used.values() for _, _, d in terms}
        top = max(degrees, default=0)
        norm_scale = {d: du ** (top - d) for d in degrees}
        bound = sum(
            _evaluate(terms, u_norms, norm_scale, abs) * f_norms[s] for s, terms in used.items()
        )
        w = bound.bit_length() + 1

        # every jet packed from one base exponent, so a monomial of degree d
        # sits at z^(d * base); scale[d] also lifts it from the lowest of those
        base = min((jet.min_exp for jet in jets if jet.coeffs), default=0)
        shift = min((d * base for d in degrees), default=0)
        scale = {d: du ** (top - d) << (w * (d * base - shift)) for d in degrees}
        packed = [_packed(jet, du, w, base) for jet in jets]
        f_shift = min((f_ders[s].min_exp for s in used), default=0)
        total = sum(
            _evaluate(terms, packed, scale) * _packed(f_ders[s], df, w, f_shift)
            for s, terms in used.items()
        )

        denominator = du**top * df
        coeffs = _unpacked(total, w)
        if denominator != 1:
            coeffs = [Fraction(c, denominator) for c in coeffs]
        results.append(LaurentSeries(shift + f_shift, tuple(coeffs)))
    return results


def series_for_rule(rule: URule, prec: int | None = None) -> LaurentSeries:
    """The series of u under a substitution rule: the sum of its terms
    c z^a e^(mz).  A term with m != 0 is an infinite series and becomes
    its exact Taylor polynomial, cut below z^prec, so such a rule
    requires a finite prec; prec is ignored when no term is exponential.
    The oracle compares its two sides as exact polynomial identities in
    the jets, so the cut series tests them as fully as e^(mz) would."""
    total = LaurentSeries.from_terms({a: c for (a, m), c in rule.terms if not m})
    exponential = [(a, m, c) for (a, m), c in rule.terms if m]
    if exponential and prec is None:
        raise ValueError("the exponential substitution needs a finite precision")
    for a, m, c in exponential:
        # c z^a e^(mz) = sum_n c m^n / n! z^(a+n), cut below z^prec
        coeffs = tuple(Fraction(c * m**n, math.factorial(n)) for n in range(max(prec - a, 0)))
        total += LaurentSeries(a, coeffs)
    return total


def random_polynomial(rng: random.Random, max_degree: int) -> LaurentSeries:
    """Nonzero polynomial with integer coefficients in [-9, 9]."""
    while True:
        cs = [rng.randint(-9, 9) for _ in range(max_degree + 1)]
        if any(cs):
            return LaurentSeries.polynomial(cs)


def oracle_check(
    k: int,
    u: LaurentSeries | URule | None = None,
    f: LaurentSeries | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Compare the two routes on one (u, f) pair; missing inputs are
    drawn from a seeded generator (u of degree <= 4, f of degree <= 6)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = random.Random(seed)
    if u is None:
        u = random_polynomial(rng, 4)
    if isinstance(u, URule):
        u = series_for_rule(u, prec=2 * k + 8)
    if f is None:
        f = random_polynomial(rng, 6)
    report = VerificationReport(suite="oracle", k_max=k)
    location = f"k={k} u={u} f={f}"
    exp = expand(k)
    report.expect_equal(location, apply_A_repeated(u, f, k), apply_expansion(exp, u, f))
    return report


def oracle_suite(k_max: int, seed: int = 0) -> VerificationReport:
    """50 seeded random (u, f) pairs, each taken through every power
    k <= k_max by both routes: literally, one application of A per
    power on the previous power's result, and by evaluating every
    expansion of the walk on (u, f) itself."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    report = VerificationReport(suite="oracle", k_max=k_max)
    plan = _plan(expansions(k_max))
    rng = random.Random(seed)
    for trial in range(1, 51):
        u = random_polynomial(rng, 4)
        f = random_polynomial(rng, 6)
        brute = f
        for (k, _, _), via_expansion in zip(plan, _apply_plan(plan, u, f)):
            brute = apply_A_repeated(u, brute, 1)
            location = f"k={k} trial={trial}"
            report.expect_equal(location, brute, via_expansion)
    return report


def eigenfunction_report(n_max: int = 8, k_max: int = 8) -> VerificationReport:
    """For u = z the monomials are eigenfunctions: A^k z^n = n^k z^n."""
    report = VerificationReport(suite="eigenfunction", k_max=k_max)
    u = LaurentSeries.polynomial([0, 1])
    for n in range(1, n_max + 1):
        f = LaurentSeries.z_power(n)
        for k in range(1, k_max + 1):
            got = apply_A_repeated(u, f, k)
            report.expect_equal(
                f"n={n} k={k}", LaurentSeries.z_power(n, n**k), got
            )
    return report
