import random
from fractions import Fraction

import pytest

from opow.expansion import expand
from opow.series import (
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
from opow.special_u import EXP_Z, INVERSE_Z, polynomial_u

Q = Fraction
P = LaurentSeries.polynomial
Z = LaurentSeries.z_power


def test_construction_canonicalizes():
    s = LaurentSeries(0, (0, 1, 0), None)
    assert s.min_exp == 1 and s.coeffs == (Q(1),)
    assert LaurentSeries.zero().is_zero()
    assert P([]).is_zero()


def test_coeff_lookup_and_precision():
    s = LaurentSeries.from_terms({0: 1, 3: 2}, prec=5)
    assert s.coeff(0) == 1
    assert s.coeff(3) == 2
    assert s.coeff(4) == 0
    assert s.coeff(-7) == 0
    with pytest.raises(ValueError):
        s.coeff(5)


def test_derivative_examples():
    assert Z(2).derivative() == P([2], min_exp=1)  # d/dz z^2 = 2z
    assert Z(-1).derivative() == Z(-2, -1)  # d/dz 1/z = -1/z^2
    assert P([5]).derivative().is_zero()


def test_derivative_lowers_precision():
    s = LaurentSeries.from_terms({0: 1, 1: 1}, prec=4)
    d = s.derivative()
    assert d.prec == 3
    assert d.coeff(0) == 1


def test_mul_examples():
    assert Z(1) * Z(1) == Z(2)
    assert P([1, 1]) * P([1, -1]) == P([1, 0, -1])  # 1 - z^2
    assert Z(-1) * Z(2) == Z(1)


def test_mul_precision_rule():
    a = LaurentSeries.from_terms({2: 1}, prec=5)  # z^2 + O(z^5)
    b = LaurentSeries.from_terms({1: 1}, prec=4)  # z   + O(z^4)
    prod = a * b
    # min(a.prec + b.min, b.prec + a.min) = min(5+1, 4+2) = 6
    assert prod.prec == 6
    assert prod.coeff(3) == 1


def test_scalar_multiplication_keeps_precision():
    a = LaurentSeries.from_terms({1: 3}, prec=4)
    assert (a * 2).coeff(1) == 6
    assert (Q(1, 3) * a).coeff(1) == 1
    assert (a * 2).prec == 4


def test_addition_takes_minimum_precision():
    a = LaurentSeries.from_terms({0: 1}, prec=3)
    b = LaurentSeries.from_terms({0: 2, 5: 7}, prec=6)
    s = a + b
    assert s.prec == 3
    assert s.coeff(0) == 3


def test_exact_zero_annihilates_truncated_series():
    a = LaurentSeries.from_terms({0: 1}, prec=3)
    z = LaurentSeries.zero()
    assert (a * z).is_zero() and (a * z).prec is None


def test_apply_A_repeated_examples():
    z = P([0, 1])
    assert apply_A_repeated(z, Z(2), 2) == Z(2, 4)  # (zD)^2 z^2 = 4 z^2
    assert apply_A_repeated(z, Z(3), 3) == Z(3, 27)
    inv = Z(-1)
    assert apply_A_repeated(inv, Z(4), 2) == Z(0, 8)  # lands on z^0
    with pytest.raises(ValueError):
        apply_A_repeated(z, Z(2), 0)


def test_apply_expansion_is_u_f_prime_at_k_one():
    u = P([1, 2])
    f = Z(3)
    got = apply_expansion(expand(1), u, f)
    assert got == u * f.derivative()


def test_apply_expansion_matches_repeated_application():
    cases = [
        (2, P([0, 1]), Z(2)),
        (3, P([1, 1]), Z(2)),
        (4, P([2, 0, -1]), P([1, 0, 0, 5])),
        (5, Z(-1), Z(10)),
    ]
    for k, u, f in cases:
        assert apply_A_repeated(u, f, k) == apply_expansion(expand(k), u, f)


def test_agrees_with_respects_joint_precision():
    exact = P([1, 2, 3])
    truncated = LaurentSeries.from_terms({0: 1, 1: 2}, prec=2)
    assert exact.agrees_with(truncated)  # z^2 term is beyond joint precision
    differing = LaurentSeries.from_terms({0: 1, 1: 5}, prec=2)
    assert not exact.agrees_with(differing)


def test_precision_exhaustion():
    f = LaurentSeries.from_terms({0: 1}, prec=1)  # 1 + O(z)
    z = P([0, 1])
    with pytest.raises(PrecisionExhausted):
        apply_A_repeated(z, f, 1)


def test_exact_zero_result_is_fine():
    # constant f: A f = u * 0 = 0 exactly, not an exhaustion
    assert apply_A_repeated(P([0, 1]), P([5]), 1).is_zero()


def test_precision_drop_per_application_is_bounded():
    u = Z(-1)
    f = LaurentSeries.from_terms({6: 1}, prec=12)
    g = f
    for _ in range(3):
        prev = g.prec
        g = u * g.derivative()
        assert g.prec >= prev - (1 + abs(u.min_exp))
    assert g == apply_A_repeated(u, f, 3)


def test_series_for_rule():
    assert series_for_rule(polynomial_u([1, 0, 2])) == P([1, 0, 2])
    assert series_for_rule(INVERSE_Z) == Z(-1)
    e = series_for_rule(EXP_Z, prec=5)
    assert e.coeff(3) == Q(1, 6)
    assert e.prec == 5
    with pytest.raises(ValueError):
        series_for_rule(EXP_Z)


def test_oracle_check_with_rules_and_random_inputs():
    assert oracle_check(3, u=INVERSE_Z, f=Z(10)).ok
    assert oracle_check(2, u=EXP_Z, f=P([0, 1, 1])).ok
    assert oracle_check(4, seed=123).ok
    with pytest.raises(ValueError):
        oracle_check(0)


def test_random_polynomial_is_reproducible():
    a = random_polynomial(random.Random(99), 4)
    b = random_polynomial(random.Random(99), 4)
    assert a == b
    assert not a.is_zero()
    assert all(c.denominator == 1 and abs(c) <= 9 for c in a.coeffs)


def test_oracle_suite_counts_and_passes():
    report = oracle_suite(3, seed=7, trials=5)
    assert report.ok
    assert report.checks == 15


def test_eigenfunction_report():
    report = eigenfunction_report(5, 5)
    assert report.ok
    assert report.checks == 25


def test_str_rendering():
    assert str(P([1, -2])) == "1 - 2 z"
    assert str(Z(-3, Q(1, 2))) == "1/2 z^-3"
    assert str(LaurentSeries.from_terms({0: 1}, prec=4)) == "1 + O(z^4)"
    assert str(LaurentSeries.zero()) == "0"
    assert str(P([Q(-3, 4), 1, -1], -1)) == "-3/4 z^-1 + 1 - z"
    assert str(LaurentSeries.from_terms({-2: -1, 1: Q(5, 3), 2: -2}, prec=4)) == (
        "-z^-2 + 5/3 z - 2 z^2 + O(z^4)"
    )
