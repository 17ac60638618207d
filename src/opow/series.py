"""Truncated Laurent series with exact rational coefficients.

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
The two results are then compared coefficient by coefficient.
:func:`apply_expansions` evaluates several powers on one (u, f) pair
and forms the jets, derivatives, denominators and norms once for all
of them; each power keeps its own width.  :func:`oracle_suite` takes
each of its pairs through every power: the literal side applies A once
more to the last power's result, the expansion side evaluates every
power on (u, f) itself and never sees a literal result.

Besides ``derivative`` the two sides share only bookkeeping: the
precision rule of ``LaurentSeries.__mul__`` (the expansion side applies
it to lowest terms, see :func:`_expansion_prec`) and the
:class:`PrecisionExhausted` check.  A wrong precision rule can make the
sides disagree or compare fewer coefficients, never make wrong
coefficients agree.  A derivative off by a constant factor c does pass
the oracle, since c * d/dz is still a derivation and both sides then
compute c^k A^k f; the unit tests of ``derivative`` and
:func:`eigenfunction_report` (A^k z^n = n^k z^n for u = z) catch it.

A series stores a dense block of exact coefficients starting at
``min_exp`` together with a precision bound ``prec``: coefficients of
exponent >= prec are unknown.  An integral coefficient is a plain
``int`` and any other is a ``fractions.Fraction``; Python's numeric
tower keeps mixed arithmetic exact, so integer polynomials (every
random oracle input) never pay for Fraction arithmetic.  ``prec=None``
means every coefficient is known, which is the case for the Laurent
polynomials the oracle runs on; finite precision only enters for
genuinely infinite series such as a truncated exponential.  The
arithmetic is what the oracle uses and no more: the derivative, and the
sum and product of two series (a scalar operand is a TypeError).
Precision propagates through it: differentiation lowers it by one, a
sum keeps the smaller, and a product is trustworthy up to
min(a.prec + b.min_exp, b.prec + a.min_exp).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, pos
from typing import Callable, Iterable, Mapping, Sequence

from .diffpoly import signed_join
from .expansion import OperatorExpansion, expand, expansions
from .report import VerificationReport
from .special_u import URule, _exact


class PrecisionExhausted(ArithmeticError):
    """A computed series retained no known nonzero coefficient window."""


Exact = int | Fraction
_INT_ONLY = frozenset({int})


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    return a if b is None else min(a, b)


@dataclass(frozen=True)
class LaurentSeries:
    min_exp: int
    coeffs: tuple[Exact, ...]
    prec: int | None = None

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        min_exp = self.min_exp
        if self.prec is not None:
            # drop unknown territory
            coeffs = coeffs[: max(self.prec - min_exp, 0)]
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
    def zero(cls, prec: int | None = None) -> "LaurentSeries":
        return cls(0, (), prec)

    @classmethod
    def polynomial(cls, coeffs: Iterable[Exact], min_exp: int = 0) -> "LaurentSeries":
        """Exact finite series: coeffs[i] multiplies z^(min_exp + i)."""
        return cls(min_exp, tuple(coeffs), None)

    @classmethod
    def z_power(cls, n: int, coeff: Exact = 1) -> "LaurentSeries":
        return cls(n, (coeff,), None)

    @classmethod
    def from_terms(
        cls, terms: Mapping[int, Exact], prec: int | None = None
    ) -> "LaurentSeries":
        if not terms:
            return cls.zero(prec)
        lo = min(terms)
        hi = max(terms)
        return cls(lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1)), prec)

    # inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        """No known nonzero coefficient (exactly zero when prec is None)."""
        return not self.coeffs

    def known(self, e: int) -> bool:
        return self.prec is None or e < self.prec

    def coeff(self, e: int) -> Exact:
        if not self.known(e):
            raise ValueError(f"coefficient of z^{e} is beyond precision {self.prec}")
        i = e - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self) -> list[tuple[int, Exact]]:
        return [
            (self.min_exp + i, c) for i, c in enumerate(self.coeffs) if c != 0
        ]

    def _min_for_prec(self) -> int:
        # lowest exponent that can influence a product's known window
        if self.coeffs:
            return self.min_exp
        return self.prec if self.prec is not None else 0

    def _known_below(self, bound: int) -> "LaurentSeries":
        # the exact series of the coefficients below z^bound
        return LaurentSeries(self.min_exp, self.coeffs[: max(bound - self.min_exp, 0)])

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equal on every exponent known to both series."""
        bound = _min_prec(self.prec, other.prec)
        if bound is None:
            return self == other
        return self._known_below(bound) == other._known_below(bound)

    def __str__(self) -> str:
        def body(e: int, mag: Exact) -> str:
            if e == 0:
                return str(mag)
            factor = "z" if e == 1 else f"z^{e}"
            return factor if mag == 1 else f"{mag} {factor}"

        text = signed_join((c, body(e, abs(c))) for e, c in self.items())
        if self.prec is not None:
            return f"{text} + O(z^{self.prec})"
        return text

    # arithmetic -----------------------------------------------------

    def derivative(self) -> "LaurentSeries":
        m = self.min_exp
        coeffs = tuple(map(mul, self.coeffs, range(m, m + len(self.coeffs))))
        prec = None if self.prec is None else self.prec - 1
        return LaurentSeries(m - 1, coeffs, prec)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        prec = _min_prec(self.prec, other.prec)
        a, b = self, other
        if a.min_exp > b.min_exp:
            a, b = b, a
        i = b.min_exp - a.min_exp
        j = i + len(b.coeffs)
        out = list(a.coeffs)
        out.extend(repeat(0, j - len(out)))
        out[i:j] = map(add, out[i:j], b.coeffs)
        return LaurentSeries(a.min_exp, tuple(out), prec)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # an exact zero annihilates regardless of the other factor's precision
        if self.is_zero() and self.prec is None:
            return LaurentSeries.zero()
        if other.is_zero() and other.prec is None:
            return LaurentSeries.zero()
        prec = None
        if self.prec is not None:
            prec = self.prec + other._min_for_prec()
        if other.prec is not None:
            prec = _min_prec(prec, other.prec + self._min_for_prec())
        # dense convolution, clipped to the product's known window
        # one slice update per coefficient of the shorter factor
        lo = self.min_exp + other.min_exp
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        n = len(a) + len(b) - 1
        if prec is not None:
            n = min(n, prec - lo)
        n = max(n, 0)
        out = [0] * n
        for i, ca in enumerate(a[:n]):
            j = min(n, i + len(b))
            out[i:j] = map(add, out[i:j], map(mul, repeat(ca), b))
        return LaurentSeries(lo, tuple(out), prec)

    __rmul__ = __mul__


def _check_not_exhausted(result: LaurentSeries, what: str) -> LaurentSeries:
    if result.prec is not None and result.is_zero():
        raise PrecisionExhausted(f"{what}: no known terms remain (prec={result.prec})")
    return result


def apply_A_repeated(u: LaurentSeries, f: LaurentSeries, k: int) -> LaurentSeries:
    """Apply f -> u * f' exactly k times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = f
    for _ in range(k):
        g = u * g.derivative()
    return _check_not_exhausted(g, f"A^{k} by repeated application")


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


def _evaluate(
    terms: Iterable[tuple[int, tuple[int, ...]]],
    values: list[int],
    scale: Mapping[int, int],
    coeff: Callable[[int], int] = pos,
) -> int:
    """Sum of coeff(c) * scale[degree] * prod values[j]^e over the
    monomials (c, exps) of one coefficient polynomial."""
    total = 0
    for c, exps in terms:
        term = coeff(c) * scale[sum(exps)]
        for j, e in enumerate(exps):
            if e:
                term *= values[j] ** e
        total += term
    return total


def _window(s: LaurentSeries) -> LaurentSeries:
    """The lowest term of s with coefficient 1, and s's precision."""
    return LaurentSeries(s.min_exp, (1,) if s.coeffs else (), s.prec)


def _expansion_prec(
    exp: OperatorExpansion,
    u_jets: list[LaurentSeries],
    f_ders: list[LaurentSeries],
    lowest: Mapping[int, int | None],
) -> int | None:
    """The precision that sum_s P_s(u) * f^(s) gets when every product
    and sum is formed one at a time as a series, each power of a jet
    built up one factor at a time.  lowest[s] is the lowest exponent of
    P_s(u), or None when it is zero; a missing s has an exactly zero
    f^(s).  Exact inputs give an exact result.

    The products are those of ``LaurentSeries.__mul__``, taken on
    windows: the lowest term of a product of nonzero series is the
    product of their lowest terms, so a window's product is the
    product's window and no other coefficient is formed."""
    if u_jets[0].prec is None and f_ders[0].prec is None:
        return None
    powers: dict[tuple[int, int], LaurentSeries] = {}

    def jet_power(j: int, e: int) -> LaurentSeries:
        if (j, e) not in powers:
            powers[j, e] = jet_power(j, e - 1) * jet_power(j, 1) if e > 1 else _window(u_jets[j])
        return powers[j, e]

    prec = None
    for s, low in lowest.items():
        p_prec = None
        for _, exps in exp.coeffs[s].terms:
            term = LaurentSeries.z_power(0)
            for j, e in enumerate(exps):
                if e:
                    term *= jet_power(j, e)
            p_prec = _min_prec(p_prec, term.prec)
        p = LaurentSeries.zero(p_prec) if low is None else LaurentSeries(low, (1,), p_prec)
        prec = _min_prec(prec, (p * _window(f_ders[s])).prec)
    return prec


def apply_expansion(
    exp: OperatorExpansion, u: LaurentSeries, f: LaurentSeries
) -> LaurentSeries:
    """Evaluate the normal-ordered form of A^k on f: substitute series
    for u and its derivatives in each coefficient polynomial, multiply
    by the matching derivative of f, and sum (see :func:`apply_expansions`)."""
    return apply_expansions((exp,), u, f)[0]


def apply_expansions(
    exps: Sequence[OperatorExpansion], u: LaurentSeries, f: LaurentSeries
) -> list[LaurentSeries]:
    """:func:`apply_expansion` for every expansion in exps, in their order.

    u's jets, f's derivatives, both denominators and every l1 norm are
    formed once for all of them.  Each power's sum is then one exact
    integer evaluation at z = 2^w with its own width w (see the module
    docstring).  u and f are scaled by the lcm of their denominators;
    a monomial of degree d carries the d-th power of u's, and every
    term is brought to the highest degree present, so no degree is
    assumed.  The precision is the one series arithmetic would give,
    see :func:`_expansion_prec`.
    """
    max_jets = [exp.max_jet for exp in exps]
    u_jets = [u]
    for _ in range(max(max_jets, default=0)):
        u_jets.append(u_jets[-1].derivative())
    f_ders = [f]
    for _ in range(max((exp.k for exp in exps), default=0)):
        f_ders.append(f_ders[-1].derivative())
    du, df = _denominator(u), _denominator(f)
    # l1 bound: |coefficient of pq| <= |p|_1 |q|_1.  An f^(s) with no
    # known term still counts once, so that P_s(u) alone is decodable.
    u_norms = [_l1_norm(jet, du) for jet in u_jets]
    f_norms = [max(_l1_norm(der, df), 1) for der in f_ders]
    results = []
    for exp, max_jet in zip(exps, max_jets):
        k = exp.k
        jets = u_jets[: max_jet + 1]
        # an exactly zero f^(s) annihilates P_s, whatever P_s is
        used = {
            s: exp.coeffs[s].terms
            for s in range(1, k + 1)
            if f_ders[s].coeffs or f_ders[s].prec is not None
        }
        degrees = {sum(vector) for terms in used.values() for _, vector in terms}
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
        f_shift = min((f_ders[s].min_exp for s in used if f_ders[s].coeffs), default=0)
        total = 0
        lowest = {}
        for s, terms in used.items():
            p = _evaluate(terms, packed, scale)
            # a digit below 2^w leaves the lowest set bit inside its own digit
            lowest[s] = shift + ((p & -p).bit_length() - 1) // w if p else None
            total += p * _packed(f_ders[s], df, w, f_shift)

        denominator = du**top * df
        coeffs = _unpacked(total, w)
        if denominator != 1:
            coeffs = [Fraction(c, denominator) for c in coeffs]
        prec = _expansion_prec(exp, jets, f_ders, lowest)
        result = LaurentSeries(shift + f_shift, tuple(coeffs), prec)
        results.append(_check_not_exhausted(result, f"A^{k} by expansion"))
    return results


def series_for_rule(rule: URule, prec: int | None = None) -> LaurentSeries:
    """The series of u under a substitution rule: the sum of its terms
    c z^a e^(mz).  A term with m != 0 is an infinite series, truncated
    at prec, so such a rule requires a finite prec; prec is ignored when
    no term is exponential."""
    total = LaurentSeries.from_terms({a: c for (a, m), c in rule.terms if not m})
    exponential = [(a, m, c) for (a, m), c in rule.terms if m]
    if exponential and prec is None:
        raise ValueError("the exponential substitution needs a finite precision")
    for a, m, c in exponential:
        # c z^a e^(mz) = sum_n c m^n / n! z^(a+n), known below prec
        coeffs = tuple(Fraction(c * m**n, math.factorial(n)) for n in range(max(prec - a, 0)))
        total += LaurentSeries(a, coeffs, prec)
    return total


def random_polynomial(rng: random.Random, max_degree: int) -> LaurentSeries:
    """Nonzero polynomial with integer coefficients in [-9, 9]."""
    while True:
        cs = [rng.randint(-9, 9) for _ in range(max_degree + 1)]
        if any(cs):
            return LaurentSeries.polynomial(cs)


def _compare_routes(
    report: VerificationReport,
    location: str,
    exp: OperatorExpansion,
    u: LaurentSeries,
    f: LaurentSeries,
) -> None:
    """Record one check: A^k applied to f literally and via the expansion agree."""
    brute = apply_A_repeated(u, f, exp.k)
    via_expansion = apply_expansion(exp, u, f)
    report.expect(brute.agrees_with(via_expansion), location, brute, via_expansion)


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
    _compare_routes(report, f"k={k} u={u} f={f}", expand(k), u, f)
    return report


def oracle_suite(k_max: int, seed: int = 0) -> VerificationReport:
    """50 seeded random (u, f) pairs, each taken through every power
    k <= k_max by both routes: literally, one application of A per
    power on the previous power's result, and by evaluating every
    expansion of the walk on (u, f) itself."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    report = VerificationReport(suite="oracle", k_max=k_max)
    exps = list(expansions(k_max))
    rng = random.Random(seed)
    for trial in range(1, 51):
        u = random_polynomial(rng, 4)
        f = random_polynomial(rng, 6)
        brute = f
        for exp, via_expansion in zip(exps, apply_expansions(exps, u, f)):
            brute = apply_A_repeated(u, brute, 1)
            location = f"k={exp.k} trial={trial}"
            report.expect(brute.agrees_with(via_expansion), location, brute, via_expansion)
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
