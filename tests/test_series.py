import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from opow import series
from opow.diffpoly import normalize
from opow.expansion import OperatorExpansion, expand, expansions
from opow.series import (
    LaurentSeries,
    apply_A_repeated,
    apply_expansion,
    eigenfunction_report,
    oracle_check,
    oracle_suite,
)
from opow.special_u import INVERSE_Z, polynomial_u

Q = Fraction
P = LaurentSeries.polynomial
Z = LaurentSeries.z_power
ZERO = P([])


def exp_taylor(m, terms):
    """The Taylor polynomial of e^(mz) with the given number of terms."""
    return P([Q(m**n, math.factorial(n)) for n in range(terms)])


def test_construction_canonicalizes():
    s = LaurentSeries(0, (0, 1, 0))
    assert s.min_exp == 1 and s.coeffs == (Q(1),)
    assert ZERO == LaurentSeries(3, (0, 0))
    assert ZERO.coeffs == () and ZERO.min_exp == 0


def test_derivative_examples():
    assert Z(2).derivative() == P([2], min_exp=1)  # d/dz z^2 = 2z
    assert Z(-1).derivative() == Z(-2, -1)  # d/dz 1/z = -1/z^2
    assert P([5]).derivative() == ZERO


def test_mul_examples():
    assert Z(1) * Z(1) == Z(2)
    assert P([1, 1]) * P([1, -1]) == P([1, 0, -1])  # 1 - z^2
    assert Z(-1) * Z(2) == Z(1)


def test_exact_zero_annihilates_truncated_series():
    a = exp_taylor(1, 3)  # 1 + z + 1/2 z^2
    assert a * ZERO == ZERO * a == ZERO


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


def test_exact_zero_result_is_fine():
    # constant f: A f = u * 0 = 0 exactly
    assert apply_A_repeated(P([0, 1]), P([5]), 1) == ZERO


MIXED_U = P([Q(1, 3)]) + Z(1, 2) * exp_taylor(1, 12)  # u = 1/3 + 2z e^z
DECAYING_U = Z(-1, Q(1, 2)) * exp_taylor(-2, 12) + Z(2, -1)  # u = e^(-2z) / (2z) - z^2


def drawn_f(k):
    """A seeded random f of degree <= 6 with integer coefficients in [-9, 9]."""
    rng = random.Random(k)
    return P([rng.randint(-9, 9) for _ in range(7)])


def test_oracle_check_with_rules_and_random_inputs():
    assert oracle_check(3, u=Z(-1), f=Z(10)).ok
    assert oracle_check(2, u=exp_taylor(1, 12), f=P([0, 1, 1])).ok
    for k in range(1, 5):
        assert oracle_check(k, u=MIXED_U, f=drawn_f(k)).ok
        assert oracle_check(k, u=DECAYING_U, f=drawn_f(k)).ok
    rng = random.Random(123)
    u = P([rng.randint(-9, 9) for _ in range(5)])
    assert oracle_check(4, u, P([rng.randint(-9, 9) for _ in range(7)])).ok
    with pytest.raises(ValueError):
        oracle_check(0, Z(1), drawn_f(0))
    with pytest.raises(TypeError):  # a substitution rule is not a series
        oracle_check(2, u=INVERSE_Z, f=drawn_f(2))


def test_oracle_suite_counts_and_passes():
    report = oracle_suite(3, seed=7)
    assert report.ok
    assert report.checks == 150


def test_oracle_suite_walks_the_powers_once_with_the_trials_inside(monkeypatch):
    log = []
    walk, apply = series.expansions, series.apply_A_repeated

    def logged_walk(k_max):
        for exp in walk(k_max):
            log.append(f"power {exp.k}")
            yield exp

    def logged_apply(u, f, k):
        log.append("apply")
        return apply(u, f, k)

    monkeypatch.setattr(series, "expansions", logged_walk)
    monkeypatch.setattr(series, "apply_A_repeated", logged_apply)
    assert oracle_suite(4, seed=7).ok
    assert log == [entry for k in range(1, 5) for entry in [f"power {k}"] + ["apply"] * 50]


def bump_coefficient(exp, s, i, delta=1):
    """exp with the i-th coefficient of its P_s moved by delta."""
    p = exp.coeffs[s]
    bumped = normalize((c + delta * (j == i), exps) for j, (c, exps) in enumerate(p.terms))
    return OperatorExpansion(exp.k, {**exp.coeffs, s: bumped})


def test_oracle_suite_fails_only_at_a_corrupted_power(monkeypatch):
    walk = series.expansions

    def corrupted_walk(k_max):
        for exp in walk(k_max):
            yield bump_coefficient(exp, 2, 1) if exp.k == 4 else exp

    monkeypatch.setattr(series, "expansions", corrupted_walk)
    report = oracle_suite(6, seed=3)
    assert report.checks == 300
    assert len(report.failures) == 50  # every trial
    assert {f.location.split()[0] for f in report.failures} == {"k=4"}


def test_eigenfunction_report():
    report = eigenfunction_report()
    assert report.ok
    assert report.checks == 64


def test_a_jet_derivative_off_by_a_constant_factor_fails_every_oracle_check(monkeypatch):
    # the literal side then computes 2^k A^k f (0); the expansion side never differentiates
    derivative = series._Jet.derivative
    doubled = lambda g: series._Jet(tuple(2 * c for c in derivative(g).coeffs))
    monkeypatch.setattr(series._Jet, "derivative", doubled)
    report = oracle_suite(7)
    assert report.checks == 350 and len(report.failures) == 350


def test_a_series_derivative_off_by_a_constant_factor_fails_the_eigenfunction_law(monkeypatch):
    derivative = LaurentSeries.derivative
    monkeypatch.setattr(LaurentSeries, "derivative", lambda s: Z(0, 2) * derivative(s))
    eigen = eigenfunction_report()
    assert eigen.checks == 64 and len(eigen.failures) == 64


def test_every_unit_change_of_one_monomial_coefficient_fails_the_oracle(monkeypatch):
    # 150 mutants: each monomial of A^1..A^7 with its coefficient moved by +1 or -1
    walk = list(expansions(7))
    survivors = []
    for exp in walk:
        for s, p in exp.coeffs.items():
            for i in range(len(p.terms)):
                for delta in (1, -1):
                    mutant = bump_coefficient(exp, s, i, delta)
                    mutated = [mutant if e.k == exp.k else e for e in walk]
                    monkeypatch.setattr(series, "expansions", lambda k_max: iter(mutated))
                    if oracle_suite(7, seed=1).ok:
                        survivors.append((exp.k, s, i, delta))
    assert sum(len(p.terms) for exp in walk for p in exp.coeffs.values()) == 75
    assert survivors == []


def test_str_rendering():
    assert str(P([1, -2])) == "1 - 2 z"
    assert str(Z(-3, Q(1, 2))) == "1/2 z^-3"
    assert str(ZERO) == "0"
    assert str(P([Q(-3, 4), 1, -1], -1)) == "-3/4 z^-1 + 1 - z"
    assert str(Z(-2, -1) + Z(1, Q(5, 3)) + Z(2, -2)) == "-z^-2 + 5/3 z - 2 z^2"


# A naive reference: a series is the {exponent: Fraction} of its nonzero
# coefficients, built from the raw constructor arguments.

def ref_of(min_exp, coeffs):
    return {min_exp + i: Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def ref_nonzero(terms):
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(a, b):
    terms = dict(a)
    for e, c in b.items():
        terms[e] = terms.get(e, 0) + c
    return ref_nonzero(terms)


def ref_mul(a, b):
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            terms[ea + eb] = terms.get(ea + eb, 0) + ca * cb
    return ref_nonzero(terms)


def ref_derivative(a):
    return ref_nonzero({e - 1: e * c for e, c in a.items()})


def ref_str(a):
    pieces = []
    for e in sorted(a):
        c = a[e]
        mag = abs(c)
        factor = "" if e == 0 else "z" if e == 1 else f"z^{e}"
        body = str(mag) if not factor else factor if mag == 1 else f"{mag} {factor}"
        sign = ("-" if c < 0 else "") if not pieces else ("- " if c < 0 else "+ ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def as_ref(s):
    """Check the representation invariants of s and read it back as a reference."""
    if s.coeffs:
        assert s.coeffs[0] != 0 and s.coeffs[-1] != 0
    else:
        assert s.min_exp == 0
    for c in s.coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction)
    return {s.min_exp + i: c for i, c in enumerate(s.coeffs) if c != 0}


exact_values = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.just(0),
    st.just(Fraction(0)),
)


@st.composite
def series_and_ref(draw):
    min_exp = draw(st.integers(-5, 5))
    coeffs = tuple(draw(st.lists(exact_values, max_size=7)))
    return LaurentSeries(min_exp, coeffs), ref_of(min_exp, coeffs)


@given(series_and_ref(), series_and_ref())
def test_arithmetic_matches_naive_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert as_ref(a) == ra and as_ref(b) == rb
    assert as_ref(a * b) == ref_mul(ra, rb)
    assert as_ref(a + b) == ref_add(ra, rb)
    assert as_ref(a.derivative()) == ref_derivative(ra)
    assert (a == b) == (ra == rb)
    assert str(a) == ref_str(ra)


SCALAR_OPERATIONS = {
    "series-times-int": lambda a: a * 2,
    "int-times-series": lambda a: 2 * a,
    "series-plus-int": lambda a: a + 1,
    "negation": lambda a: -a,
    "difference": lambda a: a - a,
}


@pytest.mark.parametrize("operation", SCALAR_OPERATIONS.values(), ids=SCALAR_OPERATIONS.keys())
def test_only_series_products_and_sums(operation):
    with pytest.raises(TypeError):
        operation(P([1, 2]))


def test_integral_fraction_is_stored_as_int():
    from_fraction = P([Fraction(2), Fraction(6, 3)], min_exp=-1)
    from_int = P([2, 2], min_exp=-1)
    assert from_fraction == from_int
    assert hash(from_fraction) == hash(from_int)
    assert all(type(c) is int for c in from_fraction.coeffs)
    assert type((Z(0, Q(1, 2)) * Z(0, 2)).coeffs[0]) is int


INEXACT_BUILDS = {
    "polynomial-float": lambda: P([Q(1, 10), 0.1]),
    "polynomial-decimal": lambda: P([1, Decimal("0.5")]),
    "polynomial-str": lambda: P(["1"]),
    "z_power-float": lambda: Z(2, 0.5),
    "constructor-float": lambda: LaurentSeries(0, (1.0,)),
    "series-times-float": lambda: P([1, 2]) * 0.5,
    "float-times-series": lambda: 0.5 * P([1, 2]),
    "series-times-decimal": lambda: P([1, 2]) * Decimal(1),
    "polynomial_u-float": lambda: polynomial_u([1, 0.5]),
    "polynomial_u-decimal": lambda: polynomial_u([Decimal("0.5")]),
}


@pytest.mark.parametrize("build", INEXACT_BUILDS.values(), ids=INEXACT_BUILDS.keys())
def test_inexact_values_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_oracle_rejects_a_corrupted_expansion():
    exp = expand(4)
    rng = random.Random(11)
    random_u = P([rng.randint(-9, 9) for _ in range(5)])
    f = P([rng.randint(1, 9) for _ in range(7)])  # degree 6 > 4: no f^(s) vanishes
    for u in (random_u, exp_taylor(1, 12)):
        brute = apply_A_repeated(u, f, 4)
        assert apply_expansion(exp, u, f) == brute
        for s, p in exp.coeffs.items():
            for i in range(len(p.terms)):
                corrupted = bump_coefficient(exp, s, i)
                assert apply_expansion(corrupted, u, f) != brute, (u, s, i)


@pytest.mark.parametrize("k", range(1, 9))
def test_oracle_with_truncated_exponential(k):
    report = oracle_check(k, u=exp_taylor(1, 2 * k + 8), f=drawn_f(k))
    assert report.ok and report.checks == 1


@pytest.mark.parametrize("k", range(1, 9))
def test_oracle_with_mixed_exponential_rule(k):
    e, inverse_e = exp_taylor(1, 2 * k + 8), exp_taylor(-1, 2 * k + 8)
    u = P([2]) * e + Z(1) + Z(-1, 3) * inverse_e  # 2 e^z + z + 3 e^(-z) / z
    report = oracle_check(k, u=u, f=drawn_f(k))
    assert report.ok and report.checks == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_oracle_with_rational_polynomial(k):
    report = oracle_check(k, u=P([Q(1, 2), 0, Q(-3, 4)]), f=drawn_f(k))
    assert report.ok and report.checks == 1


# apply_expansion against repeated application on arbitrary series -----------

EXPANSIONS = {exp.k: exp for exp in expansions(7)}

oracle_values = st.one_of(exact_values, st.integers(-(10**40), 10**40))


@st.composite
def oracle_series(draw):
    min_exp = draw(st.integers(-3, 3))
    coeffs = tuple(draw(st.lists(oracle_values, max_size=6)))
    return LaurentSeries(min_exp, coeffs)


TRUNCATED_EXP = exp_taylor(1, 9)  # e^z cut below z^9


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), oracle_series(), oracle_series())
@example(5, TRUNCATED_EXP, P([1, 2, 3, 4, 5, 6, 7, 8]))
@example(4, TRUNCATED_EXP, Z(-1, 2) + Z(3, Q(1, 3)))
@example(3, ZERO, P([1, 2, 3]))
@example(3, P([1, 2]), ZERO)
@example(1, ZERO, ZERO)
@example(6, Z(-1), P([1, Q(-2, 3), 5], min_exp=-2))
@example(7, P([Q(1, 2), 0, Q(-3, 4)], min_exp=-1), P([Q(5, 6), 1, 0, 0, 2], min_exp=3))
@example(7, P([10**40, -(10**40) + 1, 3]), P([3 * 10**39, 0, -7, 10**40]))
@example(7, Z(1, 2), Z(9))  # one term, (2 * 9)^7 z^9: z^n is an eigenfunction of 2z d/dz
def test_apply_expansion_matches_series_reference(k, u, f):
    got = apply_expansion(EXPANSIONS[k], u, f)
    assert got == apply_A_repeated(u, f, k)
    as_ref(got)


def with_extra_terms(exp, s, extra):
    poly = normalize([*exp.coeffs[s].terms, *extra])
    return OperatorExpansion(exp.k, {**exp.coeffs, s: poly})


def corrupted_expansions(k):
    exp = EXPANSIONS[k]
    c, exps = exp.coeffs[1].terms[-1]
    return {
        "negative-coefficient": with_extra_terms(exp, 1, [(-2 * c, exps)]),
        "degree-too-low": with_extra_terms(exp, 2, [(3, (k - 2, 1))]),
        "degree-too-high": with_extra_terms(exp, 2, [(-5, (k, 0, 1))]),
        "jet-beyond-u": with_extra_terms(exp, 1, [(7, (k - 1, 0, 0, 0, 0, 1))]),
    }


CORRUPTION_INPUTS = {
    "integer": (P([3, -1, 4, 1, -5]), P([2, 7, 1, 8, 2, 8, 1], min_exp=-1)),
    "rational": (P([Q(1, 2), Q(-2, 3), 0, Q(5, 4)]), P([Q(1, 3), 2, 0, 0, 0, 0, 5], min_exp=-2)),
}


@pytest.mark.parametrize("inputs", CORRUPTION_INPUTS.values(), ids=CORRUPTION_INPUTS.keys())
@pytest.mark.parametrize("kind", corrupted_expansions(4).keys())
def test_apply_expansion_on_corrupted_expansions(kind, inputs):
    u, f = inputs
    got = apply_expansion(corrupted_expansions(4)[kind], u, f)
    as_ref(got)
    # a zero jet hides the extra monomial; every other corruption must show
    assert (got == apply_A_repeated(u, f, 4)) == (kind == "jet-beyond-u")


@settings(max_examples=100, deadline=None)
@given(oracle_series(), oracle_series())
def test_chained_literal_powers_are_repeated_application(u, f):
    # the oracle's literal route: one application per power on the last result
    g = f
    for k in range(1, 8):
        g = apply_A_repeated(u, g, 1)
        assert g == apply_A_repeated(u, f, k)
