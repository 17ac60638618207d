"""Exact normal ordering of powers of the operator A = u(z) d/dz.

The package expands A^k into coefficient polynomials in the jet
variables u, u', u'', ... times pure derivatives, generates the integer
coefficient tables hiding inside that expansion, specializes u to
concrete functions (z, e^z, 1/z, polynomials), and verifies every
closed form and identity against independent brute-force references.
All arithmetic is exact (unbounded integers and rationals).
"""

from .combinat import (
    bell,
    binomial,
    compositions,
    cycle_type_count,
    double_factorial_odd,
    permutations_by_cycle_count,
    stirling1_row,
    stirling1_unsigned,
    stirling2,
    stirling2_row,
)
from .ctable import (
    CTable,
    c_table_by_recurrence,
    c_table_from_expansions,
    verify_binomial_column,
    verify_cross_check,
    verify_cycle_count_total,
    verify_factorial_weighted_total,
    verify_stirling1_total,
    verify_stirling2_corner,
)
from .diffpoly import (
    DiffMonomial,
    DiffPolynomial,
    ExponentVector,
    degree,
    normalize,
    total_derivative,
    trim,
    weight,
)
from .expansion import (
    CEntry,
    OperatorExpansion,
    check_closed_forms,
    expand,
    expansions,
    extract_C,
    extract_F,
    step,
    verify_closed_forms,
)
from .report import Failure, VerificationReport
from .series import (
    LaurentSeries,
    PrecisionExhausted,
    apply_A_repeated,
    apply_expansion,
    eigenfunction_report,
    oracle_check,
    oracle_suite,
    random_polynomial,
    series_for_rule,
)
from .special_u import (
    EXP_Z,
    IDENTITY_Z,
    INVERSE_Z,
    ATable,
    SpecialTerm,
    URule,
    a_closed_form,
    a_table_by_recurrence,
    polynomial_u,
    specialize,
    verify_inverse_z_table,
    verify_specializations,
)

__version__ = "0.1.0"

__all__ = [
    "ATable",
    "CEntry",
    "CTable",
    "DiffMonomial",
    "DiffPolynomial",
    "EXP_Z",
    "ExponentVector",
    "Failure",
    "IDENTITY_Z",
    "INVERSE_Z",
    "LaurentSeries",
    "OperatorExpansion",
    "PrecisionExhausted",
    "SpecialTerm",
    "URule",
    "VerificationReport",
    "a_closed_form",
    "a_table_by_recurrence",
    "apply_A_repeated",
    "apply_expansion",
    "bell",
    "binomial",
    "c_table_by_recurrence",
    "c_table_from_expansions",
    "check_closed_forms",
    "compositions",
    "cycle_type_count",
    "degree",
    "double_factorial_odd",
    "eigenfunction_report",
    "expand",
    "expansions",
    "extract_C",
    "extract_F",
    "normalize",
    "oracle_check",
    "oracle_suite",
    "permutations_by_cycle_count",
    "polynomial_u",
    "random_polynomial",
    "series_for_rule",
    "specialize",
    "step",
    "stirling1_row",
    "stirling1_unsigned",
    "stirling2",
    "stirling2_row",
    "total_derivative",
    "trim",
    "verify_binomial_column",
    "verify_closed_forms",
    "verify_cross_check",
    "verify_cycle_count_total",
    "verify_factorial_weighted_total",
    "verify_inverse_z_table",
    "verify_specializations",
    "verify_stirling1_total",
    "verify_stirling2_corner",
    "weight",
]
