"""Exact polynomials in the jet variables u, u', u'', ...

A differential monomial is ``coeff * u^e0 * (u')^e1 * (u'')^e2 * ...``
with the exponents held as a trimmed tuple of non-negative integers (no
trailing zeros; the empty tuple is the monomial 1).  A polynomial is a
canonically ordered tuple of monomials: graded lexicographic order,
total degree first, then the exponent tuple itself.  Because the
canonical form is unique, equality of polynomials is plain equality of
the underlying tuples.

Coefficients are Python ints, so arithmetic is exact at any magnitude.
Products and derivatives hand :func:`normalize` plain (coeff, exps) pairs.

Besides ring arithmetic the module provides the total derivative: the
derivation that sends u^(j) to u^(j+1) and acts on products by the
chain rule.  It preserves the total degree of every monomial and raises
its differential weight (sum of j * e_j) by exactly one.

:data:`TEXT` and :data:`LATEX` are the two human-readable output formats
of ``opow expand``, one :class:`Notation` each, for the generic
expansion and every substitution alike.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import _Value

if TYPE_CHECKING:
    from numbers import Rational

ExponentVector = tuple[int, ...]


def trim(exps: Iterable[int]) -> ExponentVector:
    """Canonical exponent tuple: validated and with trailing zeros removed."""
    out = list(exps)
    for e in out:
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(out)}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(exps: ExponentVector) -> int:
    """Total degree: sum of all exponents."""
    return sum(exps)


def weight(exps: ExponentVector) -> int:
    """Differential weight: sum of j * e_j over the jet index j."""
    return sum(j * e for j, e in enumerate(exps))


def order_key(exps: ExponentVector) -> tuple[int, ExponentVector]:
    return (degree(exps), exps)


class DiffMonomial(NamedTuple):
    coeff: int
    exps: ExponentVector


class Notation(NamedTuple):
    """How one human-readable output format spells a power, a jet above
    u''', the operator d/dz, the factor e^(m z) and a coefficient group."""

    power: str  # format string taking (base, exponent)
    high_jet: str  # format string taking the jet index j > 3
    d: str  # the operator d/dz
    exp: str  # format string taking m, for the factor e^(m z)
    group: str  # format string wrapping a coefficient polynomial


TEXT = Notation("{}^{}", "u^({})", "D", "e^({}z)", "({}) ")
LATEX = Notation(
    "{}^{{{}}}", "u^{{({})}}", r"\left(\frac{d}{dz}\right)", "e^{{{} z}}", r"\left({}\right)"
)


def jet_symbol(j: int, notation: Notation = TEXT) -> str:
    if j <= 3:
        return "u" + "'" * j
    return notation.high_jet.format(j)


def monomial_str(exps: ExponentVector, notation: Notation = TEXT) -> str:
    if not exps:
        return "1"
    parts = []
    for j, e in enumerate(exps):
        if e == 0:
            continue
        sym = jet_symbol(j, notation)
        if e == 1:
            parts.append(sym)
        else:
            parts.append(notation.power.format(sym if j == 0 else f"({sym})", e))
    return " ".join(parts)


def signed_join(terms: Iterable[tuple[Rational, str]]) -> str:
    """Join nonzero (coefficient, body) pairs as ``a + b - c``.

    Each body spells the magnitude of its coefficient; the sign comes
    from the coefficient, bare on the first term and spaced after it.
    The empty sum is ``0``.
    """
    pieces = []
    for coeff, body in terms:
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces) if pieces else "0"


class DiffPolynomial(_Value):
    """Canonical sum of differential monomials.

    Do not call the constructor with raw data; build values through
    :func:`normalize` or the classmethod constructors, which establish
    the canonical form (merged like terms, no zero coefficients, graded
    lexicographic order).
    """

    __slots__ = ("terms",)

    terms: tuple[DiffMonomial, ...]

    @classmethod
    def zero(cls) -> "DiffPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, coeff: int, exps: Iterable[int]) -> "DiffPolynomial":
        return normalize([(coeff, exps)])

    @classmethod
    def u_power(cls, n: int) -> "DiffPolynomial":
        """The monomial u^n; n = 0 gives the constant 1, n < 0 is a ValueError."""
        return cls.monomial(1, (n,))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        if not (self.terms and other.terms):  # a zero operand: the other is canonical
            return self if self.terms else other
        return normalize(self.terms + other.terms)

    def __mul__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        out = []
        for ca, ea in self.terms:
            for cb, eb in other.terms:
                out.append((ca * cb, tuple(x + y for x, y in zip_longest(ea, eb, fillvalue=0))))
        return normalize(out)

    __rmul__ = __mul__

    def render(self, notation: Notation = TEXT) -> str:
        """The polynomial as a signed sum in the given notation."""

        def body(coeff: int, exps: ExponentVector) -> str:
            mag = abs(coeff)
            if not exps:
                return str(mag)
            mono = monomial_str(exps, notation)
            return mono if mag == 1 else f"{mag} {mono}"

        return signed_join((coeff, body(coeff, exps)) for coeff, exps in self.terms)

    def __str__(self) -> str:
        return self.render()


def normalize(monomials: Iterable[tuple[int, Iterable[int]]]) -> DiffPolynomial:
    """Canonical polynomial from any (coeff, exps) pairs, exps any iterable of ints.

    Every exps is validated and trimmed, like terms are merged and zero
    terms dropped.  Every DiffMonomial is built here: one per surviving
    term, in graded lexicographic order.
    """
    acc: dict[ExponentVector, int] = {}
    for coeff, exps in monomials:
        key = trim(exps)
        acc[key] = acc.get(key, 0) + coeff
    terms = tuple(
        DiffMonomial(acc[key], key)
        for key in sorted(acc, key=order_key)
        if acc[key] != 0
    )
    return DiffPolynomial(terms)


def total_derivative(p: DiffPolynomial) -> DiffPolynomial:
    """Apply d/dz once, treating every u^(j) as a function of z.

    Each monomial contributes, for every slot j with e_j > 0, a new
    monomial with the coefficient multiplied by e_j, e_j lowered by one
    and e_{j+1} raised by one.
    """
    out = []
    for coeff, exps in p.terms:
        for j, e in enumerate(exps):
            if e:
                shifted = [*exps, 0]
                shifted[j] -= 1
                shifted[j + 1] += 1
                out.append((coeff * e, shifted))
    return normalize(out)
