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
    random_polynomial,
    series_for_rule,
)
from opow.special_u import EXP_Z, INVERSE_Z, URule, polynomial_u

Q = Fraction
P = LaurentSeries.polynomial
Z = LaurentSeries.z_power


def test_construction_canonicalizes():
    s = LaurentSeries(0, (0, 1, 0))
    assert s.min_exp == 1 and s.coeffs == (Q(1),)
    assert LaurentSeries.zero() == P([]) == LaurentSeries(3, (0, 0))
    assert LaurentSeries.zero().coeffs == ()


def test_derivative_examples():
    assert Z(2).derivative() == P([2], min_exp=1)  # d/dz z^2 = 2z
    assert Z(-1).derivative() == Z(-2, -1)  # d/dz 1/z = -1/z^2
    assert P([5]).derivative() == LaurentSeries.zero()


def test_mul_examples():
    assert Z(1) * Z(1) == Z(2)
    assert P([1, 1]) * P([1, -1]) == P([1, 0, -1])  # 1 - z^2
    assert Z(-1) * Z(2) == Z(1)


def test_exact_zero_annihilates_truncated_series():
    a = series_for_rule(EXP_Z, prec=3)  # 1 + z + 1/2 z^2
    z = LaurentSeries.zero()
    assert a * z == z * a == z


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
    assert apply_A_repeated(P([0, 1]), P([5]), 1) == LaurentSeries.zero()


MIXED_U = URule({(0, 0): Q(1, 3), (1, 1): 2})  # u = 1/3 + 2z e^z
DECAYING_U = URule({(-1, -2): Q(1, 2), (2, 0): -1})  # u = e^(-2z) / (2z) - z^2


def test_series_for_rule():
    assert series_for_rule(polynomial_u([1, 0, 2])) == P([1, 0, 2])
    assert series_for_rule(INVERSE_Z) == Z(-1)
    # e^z cut below z^5: its Taylor polynomial of degree 4, exactly
    e = series_for_rule(EXP_Z, prec=5)
    assert e == P([1, 1, Q(1, 2), Q(1, 6), Q(1, 24)])
    assert str(e) == "1 + z + 1/2 z^2 + 1/6 z^3 + 1/24 z^4"
    assert series_for_rule(EXP_Z, prec=9) == TRUNCATED_EXP
    assert series_for_rule(EXP_Z, prec=0) == LaurentSeries.zero()
    with pytest.raises(ValueError):
        series_for_rule(EXP_Z)
    # prec matters only for exponential terms
    assert series_for_rule(INVERSE_Z, prec=3) == Z(-1)
    # 1/3 + 2z e^z cut below z^6 = 1/3 + 2z + 2z^2 + z^3 + 1/3 z^4 + 1/12 z^5
    mixed = series_for_rule(MIXED_U, prec=6)
    assert mixed == P([Q(1, 3), 2, 2, 1, Q(1, 3), Q(1, 12)])
    with pytest.raises(ValueError):
        series_for_rule(MIXED_U)
    # 1/2 z^-1 - 1 + z - 2/3 z^2 from the exponential term, and -z^2
    decaying = series_for_rule(DECAYING_U, prec=3)
    assert decaying == P([Q(1, 2), -1, 1, Q(-5, 3)], min_exp=-1)


def test_oracle_check_with_rules_and_random_inputs():
    assert oracle_check(3, u=INVERSE_Z, f=Z(10)).ok
    assert oracle_check(2, u=EXP_Z, f=P([0, 1, 1])).ok
    for k in range(1, 5):
        assert oracle_check(k, u=MIXED_U, seed=k).ok
        assert oracle_check(k, u=DECAYING_U, seed=k).ok
    assert oracle_check(4, seed=123).ok
    with pytest.raises(ValueError):
        oracle_check(0)


def test_random_polynomial_is_reproducible():
    a = random_polynomial(random.Random(99), 4)
    b = random_polynomial(random.Random(99), 4)
    assert a == b
    assert a.coeffs
    assert all(c.denominator == 1 and abs(c) <= 9 for c in a.coeffs)


def test_oracle_suite_counts_and_passes():
    report = oracle_suite(3, seed=7)
    assert report.ok
    assert report.checks == 150


def bump_coefficient(exp, s, i):
    """exp with the i-th coefficient of its P_s raised by one."""
    p = exp.coeffs[s]
    bumped = normalize((c + (j == i), exps) for j, (c, exps) in enumerate(p.terms))
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
    report = eigenfunction_report(5, 5)
    assert report.ok
    assert report.checks == 25


def test_str_rendering():
    assert str(P([1, -2])) == "1 - 2 z"
    assert str(Z(-3, Q(1, 2))) == "1/2 z^-3"
    assert str(LaurentSeries.zero()) == "0"
    assert str(P([Q(-3, 4), 1, -1], -1)) == "-3/4 z^-1 + 1 - z"
    assert str(LaurentSeries.from_terms({-2: -1, 1: Q(5, 3), 2: -2})) == "-z^-2 + 5/3 z - 2 z^2"


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
    "from_terms-float": lambda: LaurentSeries.from_terms({0: 1, 1: 0.25}),
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
    random_u = random_polynomial(rng, 4)
    f = P([rng.randint(1, 9) for _ in range(7)])  # degree 6 > 4: no f^(s) vanishes
    for u in (random_u, series_for_rule(EXP_Z, prec=12)):
        brute = apply_A_repeated(u, f, 4)
        assert apply_expansion(exp, u, f) == brute
        for s, p in exp.coeffs.items():
            for i in range(len(p.terms)):
                corrupted = bump_coefficient(exp, s, i)
                assert apply_expansion(corrupted, u, f) != brute, (u, s, i)


@pytest.mark.parametrize("k", range(1, 9))
def test_oracle_with_truncated_exponential(k):
    report = oracle_check(k, u=EXP_Z, seed=k)
    assert report.ok and report.checks == 1


@pytest.mark.parametrize("k", range(1, 9))
def test_oracle_with_mixed_exponential_rule(k):
    u = URule({(0, 1): 2, (1, 0): 1, (-1, -1): 3})  # 2 e^z + z + 3 e^(-z) / z
    report = oracle_check(k, u=u, seed=k)
    assert report.ok and report.checks == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_oracle_with_rational_polynomial(k):
    report = oracle_check(k, u=polynomial_u([Q(1, 2), 0, Q(-3, 4)]), seed=k)
    assert report.ok and report.checks == 1


# apply_expansion against the series-arithmetic evaluation it replaced --------

EXPANSIONS = {exp.k: exp for exp in expansions(7)}


def reference_apply_expansion(exp, u, f):
    """Term by term with LaurentSeries products and sums, jet powers built
    one factor at a time: the evaluation apply_expansion replaced."""
    max_jet = max((len(m.exps) - 1 for p in exp.coeffs.values() for m in p.terms), default=0)
    u_jets = [u]
    for _ in range(max_jet):
        u_jets.append(u_jets[-1].derivative())
    powers = {}

    def jet_power(j, e):
        if (j, e) not in powers:
            powers[j, e] = jet_power(j, e - 1) * u_jets[j] if e > 1 else u_jets[j]
        return powers[j, e]

    total = LaurentSeries.zero()
    f_der = f
    for s in range(1, exp.k + 1):
        f_der = f_der.derivative()
        poly = LaurentSeries.zero()
        for coeff, exps in exp.coeffs[s].terms:
            term = Z(0, coeff)
            for j, e in enumerate(exps):
                if e:
                    term = term * jet_power(j, e)
            poly = poly + term
        total = total + poly * f_der
    return total


def assert_matches_reference(exp, u, f):
    got = apply_expansion(exp, u, f)
    assert got == reference_apply_expansion(exp, u, f)
    as_ref(got)
    return got


oracle_values = st.one_of(exact_values, st.integers(-(10**40), 10**40))


@st.composite
def oracle_series(draw):
    min_exp = draw(st.integers(-3, 3))
    coeffs = tuple(draw(st.lists(oracle_values, max_size=6)))
    return LaurentSeries(min_exp, coeffs)


TRUNCATED_EXP = P([Q(1, math.factorial(n)) for n in range(9)])  # e^z cut below z^9


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), oracle_series(), oracle_series())
@example(5, TRUNCATED_EXP, P([1, 2, 3, 4, 5, 6, 7, 8]))
@example(4, TRUNCATED_EXP, LaurentSeries.from_terms({-1: 2, 3: Q(1, 3)}))
@example(3, LaurentSeries.zero(), P([1, 2, 3]))
@example(3, P([1, 2]), LaurentSeries.zero())
@example(1, LaurentSeries.zero(), LaurentSeries.zero())
@example(6, Z(-1), P([1, Q(-2, 3), 5], min_exp=-2))
@example(7, P([Q(1, 2), 0, Q(-3, 4)], min_exp=-1), P([Q(5, 6), 1, 0, 0, 2], min_exp=3))
@example(7, P([10**40, -(10**40) + 1, 3]), P([3 * 10**39, 0, -7, 10**40]))
def test_apply_expansion_matches_series_reference(k, u, f):
    assert_matches_reference(EXPANSIONS[k], u, f)


@pytest.mark.parametrize("k", range(1, 8))
def test_apply_expansion_at_its_l1_bound(k):
    # every coefficient is positive and the result is one term, so that
    # term, (2n)^k, is exactly the l1 bound the packing width is taken from
    n = k + 2
    u, f = Z(1, 2), Z(n)
    got = assert_matches_reference(EXPANSIONS[k], u, f)
    assert got == Z(n, (2 * n) ** k) == apply_A_repeated(u, f, k)


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
    exp = corrupted_expansions(4)[kind]
    assert_matches_reference(exp, u, f)
    agree = apply_A_repeated(u, f, 4) == apply_expansion(exp, u, f)
    # a zero jet hides the extra monomial; every other corruption must show
    assert agree == (kind == "jet-beyond-u")


def test_apply_expansion_on_cancelling_corruption():
    # for u = 1 + z^3 the two extra monomials have equal and opposite
    # coefficient-weighted norms (400 * 3^2 = 300 * 2 * 6), so only a bound
    # that takes |c| covers their sum, 1800 (z^4 - z)
    exp = with_extra_terms(EXPANSIONS[2], 1, [(400, (0, 2)), (-300, (1, 0, 1))])
    assert_matches_reference(exp, P([1, 0, 0, 1]), Z(3))


# one plan of several powers against one apply_expansion per power -----------

EVALUATED = [*EXPANSIONS.values(), *corrupted_expansions(4).values()]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(EVALUATED), max_size=6), oracle_series(), oracle_series())
@example([EXPANSIONS[k] for k in (7, 2, 7, 1)], TRUNCATED_EXP, P([1, 2, 3, 4, 5, 6, 7, 8]))
@example([EXPANSIONS[k] for k in (5, 3, 5)], P([Q(1, 2), 0, Q(-3, 4)], min_exp=-1), Z(4, Q(2, 3)))
@example([EXPANSIONS[3], EXPANSIONS[1]], TRUNCATED_EXP, P([1, 1]))
def test_apply_plan_is_apply_expansion_per_power(exps, u, f):
    got = series._apply_plan(series._plan(exps), u, f)
    assert got == [apply_expansion(exp, u, f) for exp in exps]


@settings(max_examples=100, deadline=None)
@given(oracle_series(), oracle_series())
def test_chained_literal_powers_are_repeated_application(u, f):
    # the oracle's literal route: one application per power on the last result
    g = f
    for k in range(1, 8):
        g = apply_A_repeated(u, g, 1)
        assert g == apply_A_repeated(u, f, k)
