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
"""

import importlib

__version__ = "0.1.0"

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
            "CEntry",
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
            "apply_expansions",
            "eigenfunction_report",
            "oracle_check",
            "oracle_suite",
            "random_polynomial",
            "series_for_rule",
        ),
        "series",
    ),
    **dict.fromkeys(
        (
            "EXP_Z",
            "IDENTITY_Z",
            "INVERSE_Z",
            "ATable",
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

_SUBMODULES = frozenset(
    ("cli", "combinat", "ctable", "diffpoly", "expansion", "report", "series", "special_u")
)

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
