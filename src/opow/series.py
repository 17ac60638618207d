"""Laurent polynomials with exact rational coefficients, and the
brute-force oracle.

This is the brute-force side of the package: apply A = u * d/dz
literally, one application at a time, and compare against the
normal-ordered form.

:func:`oracle_suite` compares A^k f at the single point z = 0.  Each of
its 50 trials draws the Taylor coefficients u_0..u_K and f_0..f_K
(K = k_max) as seeded integers in [-2^32, 2^32] and takes them through
every power k <= K:

* the literal side passes them to :func:`apply_A_repeated` as truncated
  Taylor jets (:class:`_Jet`), with their own derivative,
  g'_i = (i+1) g_(i+1), and their own truncated product.  It applies A
  once more to the last power's jet; each application drops one order,
  and A^k f (0) is the constant term;
* the expansion side evaluates sum_s f^(s)(0) * P_s(u(0), u'(0), ...)
  with u^(j)(0) = j! u_j and f^(s)(0) = s! f_s (:func:`_evaluate`).  It
  never differentiates and builds no series.

The two sides share no arithmetic, so a derivative off by a constant
factor fails every check.  A wrong coefficient of some P_s leaves a
nonzero polynomial of degree at most k + 1 in the drawn values; by the
Schwartz-Zippel lemma (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979)
it vanishes at a uniform draw with probability at most
(k + 1)/(2^33 + 1).  Every jet and derivative that A^k can reach is
drawn, so no monomial goes uncompared.  With the seed fixed, the suite
is deterministic.

:func:`apply_expansion` evaluates the normal-ordered form on series,
the sum of P_s(u, u', ...) * f^(s) formed with ``LaurentSeries``
products and sums, and :func:`oracle_check` compares it with
:func:`apply_A_repeated` on the pair it is given, Laurent u such as 1/z
included.  Those two differentiate series the same way; the unit tests
of ``derivative`` and :func:`eigenfunction_report` check it on its own.

A series stores a dense block of exact coefficients starting at
``min_exp``; every other coefficient is zero, so every series is exact.
An integral coefficient is a plain ``int`` and any other is a
``fractions.Fraction``; Python's numeric tower keeps mixed arithmetic
exact, so integer polynomials never pay for Fraction arithmetic.  An
infinite series such as e^z enters as a Taylor polynomial: the
comparison is a polynomial identity in the jets, so the cut series
tests the engine as fully as e^z would.  A series has a derivative, and
the product and sum of two series; a scalar operand is a TypeError.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterable, Sequence

from . import _Value, _exact
from .diffpoly import signed_join
from .expansion import OperatorExpansion, expand, expansions
from .report import VerificationReport

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
        _Value.__init__(self, min_exp + lo if hi > lo else 0, tuple(coeffs[lo:hi]))

    # construction ---------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Iterable[Exact], min_exp: int = 0) -> "LaurentSeries":
        """Exact finite series: coeffs[i] multiplies z^(min_exp + i)."""
        return cls(min_exp, tuple(coeffs))

    @classmethod
    def z_power(cls, n: int, coeff: Exact = 1) -> "LaurentSeries":
        return cls(n, (coeff,))

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
    """Apply f -> u * f' exactly k times.  u and f need only a
    ``derivative`` and a product: series here, truncated jets in
    :func:`oracle_suite`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = f
    for _ in range(k):
        g = u * g.derivative()
    return g


def apply_expansion(
    exp: OperatorExpansion, u: LaurentSeries, f: LaurentSeries
) -> LaurentSeries:
    """Evaluate the normal-ordered form of A^k on f: the series sum of
    P_s(u, u', ...) * f^(s).

    u is first scaled by the lcm D of its coefficient denominators, so
    the jet products, the bulk of the work, multiply integers; a
    monomial of degree d then carries D^d, and the terms of each degree
    are divided by it once.
    """
    scale = math.lcm(*(c.denominator for c in u.coeffs))
    jets = [u * LaurentSeries.z_power(0, scale)]
    for _ in range(exp.max_jet):
        jets.append(jets[-1].derivative())
    zero = LaurentSeries(0, ())
    by_degree: dict[int, LaurentSeries] = {}
    f_der = f
    for s in range(1, exp.k + 1):
        f_der = f_der.derivative()
        for c, vector in exp.coeffs[s].terms:
            term = LaurentSeries.z_power(0, c) * f_der
            for j, e in enumerate(vector):
                for _ in range(e):
                    term = term * jets[j]
            d = sum(vector)
            by_degree[d] = by_degree.get(d, zero) + term
    unscaled = (t * LaurentSeries.z_power(0, Fraction(1, scale**d)) for d, t in by_degree.items())
    return sum(unscaled, zero)


def random_polynomial(rng: random.Random, max_degree: int) -> LaurentSeries:
    """Nonzero polynomial with integer coefficients in [-9, 9]."""
    while True:
        cs = [rng.randint(-9, 9) for _ in range(max_degree + 1)]
        if any(cs):
            return LaurentSeries.polynomial(cs)


def oracle_check(k: int, u: LaurentSeries, f: LaurentSeries) -> VerificationReport:
    """Compare the two routes on the (u, f) pair it is given."""
    if k < 1:
        raise ValueError("k must be >= 1")
    report = VerificationReport(suite="oracle", k_max=k)
    location = f"k={k} u={u} f={f}"
    exp = expand(k)
    report.expect_equal(location, apply_A_repeated(u, f, k), apply_expansion(exp, u, f))
    return report


# A monomial of a coefficient polynomial, read once for evaluation: its
# coefficient and its jet powers (j, e) with e > 0.
_Term = tuple[int, tuple[tuple[int, int], ...]]

# One power of a plan: k and the monomials of each P_s.
_Power = tuple[int, dict[int, list[_Term]]]


def _plan(exps: Iterable[OperatorExpansion]) -> list[_Power]:
    """What evaluating the expansions needs of them alone, in their order.

    :func:`oracle_suite` builds it once and evaluates every trial on it.
    """
    return [
        (
            exp.k,
            {
                s: [
                    (c, tuple((j, e) for j, e in enumerate(vector) if e))
                    for c, vector in exp.coeffs[s].terms
                ]
                for s in range(1, exp.k + 1)
            },
        )
        for exp in exps
    ]


def _evaluate(
    polys: dict[int, list[_Term]], u_values: Sequence[int], f_values: Sequence[int]
) -> int:
    """A^k f at z = 0 from the normal-ordered form of one power:
    sum_s f_values[s] * sum c * prod u_values[j]^e, where u_values[j]
    is u^(j)(0) and f_values[s] is f^(s)(0)."""
    total = 0
    for s, terms in polys.items():
        p = 0
        for c, powers in terms:
            for j, e in powers:
                c *= u_values[j] ** e
            p += c
        total += p * f_values[s]
    return total


class _Jet(_Value):
    """A truncated Taylor jet at z = 0: coeffs[i] multiplies z^i, and
    nothing past the last is known.  It has its own derivative and
    product, so :func:`apply_A_repeated` takes jets unchanged and each
    application drops one order."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def derivative(self) -> "_Jet":
        c = self.coeffs
        return _Jet(tuple(map(mul, range(1, len(c)), c[1:])))

    def __mul__(self, other: "_Jet") -> "_Jet":
        # only the orders both factors know
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        return _Jet(tuple(sum(map(mul, a[: i + 1], b[i::-1])) for i in range(n)))


def oracle_suite(k_max: int, seed: int = 0) -> VerificationReport:
    """50 seeded trials, each comparing A^k f at z = 0 for every power
    k <= k_max by both routes (see the module docstring): literally, one
    application of A per power to the previous power's jet, and by
    evaluating every expansion of the walk on the drawn values."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    report = VerificationReport(suite="oracle", k_max=k_max)
    plan = _plan(expansions(k_max))
    factorials = [math.factorial(j) for j in range(k_max + 1)]
    rng = random.Random(seed)
    for trial in range(1, 51):
        u = tuple(rng.randint(-(2**32), 2**32) for _ in factorials)
        f = tuple(rng.randint(-(2**32), 2**32) for _ in factorials)
        u_values, f_values = list(map(mul, factorials, u)), list(map(mul, factorials, f))
        u_jet, brute = _Jet(u), _Jet(f)
        for k, polys in plan:
            brute = apply_A_repeated(u_jet, brute, 1)
            location = f"k={k} trial={trial}"
            report.expect_equal(location, brute.coeffs[0], _evaluate(polys, u_values, f_values))
    return report


def eigenfunction_report() -> VerificationReport:
    """For u = z the monomials are eigenfunctions: A^k z^n = n^k z^n,
    checked for every n <= 8 and k <= 8.  It runs :func:`apply_A_repeated`
    on series against a closed form, so it checks the series derivative
    and product, which :func:`oracle_suite` does not use."""
    report = VerificationReport(suite="eigenfunction", k_max=8)
    u = LaurentSeries.polynomial([0, 1])
    for n in range(1, 9):
        f = LaurentSeries.z_power(n)
        for k in range(1, 9):
            got = apply_A_repeated(u, f, k)
            report.expect_equal(
                f"n={n} k={k}", LaurentSeries.z_power(n, n**k), got
            )
    return report
