"""Exact normal ordering of powers of the operator A = u(z) d/dz.

The package expands A^k into coefficient polynomials in the jet
variables u, u', u'', ... times pure derivatives, generates the integer
coefficient tables hiding inside that expansion, specializes u to
concrete functions (z, e^z, 1/z, polynomials), and verifies every
closed form and identity against independent brute-force references.
All arithmetic is exact (unbounded integers and rationals).

``import opow`` loads no submodule.  Each public name and each submodule
(``opow.series``, ...) is imported on first use, through the module
``__getattr__`` of PEP 562, so a command pays only for the code it runs.
The two bases of the package's record classes, ``_Record`` and the
immutable ``_Value``, live here because this module is always loaded.
"""

import importlib

__version__ = "0.1.0"


class _Record:
    """A record whose fields are its ``__slots__``, which ``__init__``
    takes in slot order and sets: it compares equal to a record of the
    same class with equal fields, pickles as its class and the tuple of
    its fields, and its repr spells ``Name(field=value, ...)``.  Defining
    ``__eq__`` alone leaves it unhashable, as a mutable record should be.
    A subclass that checks its arguments or gives them defaults calls
    this ``__init__`` by name, not through ``super()``, which is bound to
    the subclass and so fails when its ``__init__`` serves another class."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} fields, not {len(fields)}")
        for name, value in zip(slots, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """An immutable record: it hashes as the tuple of its fields, which
    only ``_Record.__init__`` sets; assigning or deleting a field raises
    AttributeError.  A subclass calls ``_Value.__init__`` by name."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


def _exact(c: object) -> "int | fractions.Fraction":
    """An integral rational as int, any other as Fraction; anything
    inexact is a TypeError.  Imports its types when called, not on load."""
    import fractions
    import numbers

    if not isinstance(c, numbers.Rational):
        raise TypeError(f"coefficients must be exact rationals, not {type(c).__name__}")
    return int(c) if c.denominator == 1 else fractions.Fraction(c)


# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(
        (
            "bell",
            "binomial",
            "compositions",
            "cycle_type_count",
            "double_factorial_odd",
            "permutations_by_cycle_count",
            "stirling1_row",
            "stirling1_unsigned",
            "stirling2",
            "stirling2_row",
        ),
        "combinat",
    ),
    **dict.fromkeys(
        (
            "CTable",
            "c_table_by_recurrence",
            "c_table_from_expansions",
            "c_table_powers",
            "verify_binomial_column",
            "verify_cross_check",
            "verify_cycle_count_total",
            "verify_factorial_weighted_total",
            "verify_stirling1_total",
            "verify_stirling2_corner",
        ),
        "ctable",
    ),
    **dict.fromkeys(
        (
            "DiffMonomial",
            "DiffPolynomial",
            "ExponentVector",
            "degree",
            "normalize",
            "total_derivative",
            "trim",
            "weight",
        ),
        "diffpoly",
    ),
    **dict.fromkeys(
        (
            "OperatorExpansion",
            "check_closed_forms",
            "expand",
            "expansions",
            "extract_C",
            "extract_F",
            "step",
            "verify_closed_forms",
        ),
        "expansion",
    ),
    **dict.fromkeys(("Failure", "VerificationReport"), "report"),
    **dict.fromkeys(
        (
            "LaurentSeries",
            "apply_A_repeated",
            "apply_expansion",
            "eigenfunction_report",
            "oracle_check",
            "oracle_suite",
            "random_polynomial",
        ),
        "series",
    ),
    **dict.fromkeys(
        (
            "EXP_Z",
            "IDENTITY_Z",
            "INVERSE_Z",
            "SpecialTerm",
            "URule",
            "a_closed_form",
            "a_table_by_recurrence",
            "expand_specialized",
            "polynomial_u",
            "specialize",
            "verify_inverse_z_table",
            "verify_specializations",
        ),
        "special_u",
    ),
}

_SUBMODULES = frozenset((*_HOMES.values(), "cli"))

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
