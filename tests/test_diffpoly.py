import pytest
from hypothesis import given, strategies as st

from opow.diffpoly import (
    DiffMonomial,
    DiffPolynomial,
    degree,
    normalize,
    total_derivative,
    trim,
    weight,
)

U = DiffPolynomial.u_power(1)
U1 = DiffPolynomial.jet(1)  # u'
U2 = DiffPolynomial.jet(2)  # u''


def test_trim_and_measures():
    assert trim((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert trim(()) == ()
    assert degree((1, 0, 2)) == 3
    assert weight((1, 0, 2)) == 4
    with pytest.raises(ValueError):
        trim((1, -1))


def test_normalize_merges_like_terms():
    p = normalize([DiffMonomial(2, (1,)), DiffMonomial(3, (1,))])
    assert p == DiffPolynomial.monomial(5, (1,))


def test_normalize_cancellation_gives_zero():
    p = normalize([DiffMonomial(1, (1, 1)), DiffMonomial(-1, (1, 1))])
    assert not p
    assert p == DiffPolynomial.zero()


def test_normalize_graded_lex_order():
    # u'' has degree 1, u^2 degree 2, so u'' sorts first
    p = normalize([DiffMonomial(1, (2,)), DiffMonomial(1, (0, 0, 1))])
    assert [m.exps for m in p.terms] == [(0, 0, 1), (2,)]
    assert str(p) == "u'' + u^2"


def test_add_identity_and_like_terms():
    assert U + DiffPolynomial.zero() == U
    assert U * U1 + 2 * (U * U1) == 3 * (U * U1)
    s = U * U1 * U1 + U * U * U2
    assert [m.exps for m in s.terms] == [(1, 2), (2, 0, 1)]


def test_mul_examples():
    assert U * U == DiffPolynomial.u_power(2)
    assert DiffPolynomial.u_power(2) * U1 == DiffPolynomial.monomial(1, (2, 1))
    # (u + u')(u - u') = u^2 - (u')^2
    minus_u1 = DiffPolynomial.monomial(-1, (0, 1))
    minus_u1_squared = DiffPolynomial.monomial(-1, (0, 2))
    assert (U + U1) * (U + minus_u1) == DiffPolynomial.u_power(2) + minus_u1_squared


def test_total_derivative_examples():
    assert total_derivative(DiffPolynomial.u_power(2)) == 2 * (U * U1)
    assert total_derivative(U * U1) == U1 * U1 + U * U2
    # d/dz (u (u')^2) = (u')^3 + 2 u u' u''
    got = total_derivative(U * U1 * U1)
    assert got == U1 * U1 * U1 + 2 * (U * U1 * U2)


def test_scalar_multiplication():
    assert 0 * U == DiffPolynomial.zero()
    assert (-1) * U == DiffPolynomial.monomial(-1, (1,))


def test_str_rendering():
    assert str(DiffPolynomial.zero()) == "0"
    assert str(U * U1) == "u u'"
    assert str(3 * (DiffPolynomial.u_power(2) * U1)) == "3 u^2 u'"
    assert str(DiffPolynomial.jet(4)) == "u^(4)"
    # same degree, so lex on the exponent tuples puts u' first
    assert str(U + DiffPolynomial.monomial(-1, (0, 1))) == "-u' + u"  # u - u'


exps_st = st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(tuple)
polys_st = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=5), exps_st), max_size=6
).map(normalize)


@given(polys_st, polys_st)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys_st, polys_st, polys_st)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys_st, polys_st)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys_st, polys_st, polys_st)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys_st, polys_st)
def test_total_derivative_is_a_derivation(a, b):
    lhs = total_derivative(a * b)
    rhs = total_derivative(a) * b + a * total_derivative(b)
    assert lhs == rhs


@given(polys_st)
def test_normalize_is_idempotent(p):
    assert normalize(p.terms) == p


@given(st.integers(min_value=-5, max_value=5).filter(bool), exps_st)
def test_derivative_preserves_degree_raises_weight(coeff, exps):
    mono = DiffPolynomial.monomial(coeff, exps)
    d = total_derivative(mono)
    base_deg = degree(trim(exps))
    base_wt = weight(trim(exps))
    for m in d.terms:
        assert degree(m.exps) == base_deg
        assert weight(m.exps) == base_wt + 1
