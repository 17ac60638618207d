import pytest
from hypothesis import given, strategies as st

from opow.diffpoly import (
    DiffMonomial,
    DiffPolynomial,
    degree,
    normalize,
    order_key,
    total_derivative,
    trim,
    weight,
)


def jet(j, e=1):
    """The monomial (u^(j))^e."""
    return DiffPolynomial.monomial(1, (0,) * j + (e,))


def const(c):
    """The constant polynomial c."""
    return DiffPolynomial.monomial(c, ())


U = DiffPolynomial.u_power(1)
U1 = jet(1)  # u'
U2 = jet(2)  # u''


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


def test_monomial_is_canonical():
    # trailing zero exponents are trimmed and a zero coefficient is the zero polynomial
    assert DiffPolynomial.monomial(2, (1, 0, 0)) == DiffPolynomial.monomial(2, (1,))
    assert DiffPolynomial.monomial(2, (1, 0, 0)).terms == (DiffMonomial(2, (1,)),)
    assert DiffPolynomial.monomial(0, (0, 3)) == DiffPolynomial.zero()
    with pytest.raises(ValueError):
        DiffPolynomial.monomial(1, (-1,))
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(-1)


def test_normalize_graded_lex_order():
    # u'' has degree 1, u^2 degree 2, so u'' sorts first
    p = normalize([DiffMonomial(1, (2,)), DiffMonomial(1, (0, 0, 1))])
    assert [m.exps for m in p.terms] == [(0, 0, 1), (2,)]
    assert str(p) == "u'' + u^2"


def test_add_identity_and_like_terms():
    assert U + DiffPolynomial.zero() == U
    assert U * U1 + const(2) * (U * U1) == const(3) * (U * U1)
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
    assert total_derivative(DiffPolynomial.u_power(2)) == const(2) * (U * U1)
    assert total_derivative(U * U1) == U1 * U1 + U * U2
    # d/dz (u (u')^2) = (u')^3 + 2 u u' u''
    got = total_derivative(U * U1 * U1)
    assert got == U1 * U1 * U1 + const(2) * (U * U1 * U2)


def test_scalar_multiplication():
    assert const(0) * U == DiffPolynomial.zero()
    assert const(-1) * U == DiffPolynomial.monomial(-1, (1,))


def test_int_operand_is_a_type_error():
    # only a DiffPolynomial multiplies or adds to a DiffPolynomial, as with LaurentSeries
    with pytest.raises(TypeError):
        2 * U
    with pytest.raises(TypeError):
        U * 2
    with pytest.raises(TypeError):
        U + 2
    with pytest.raises(TypeError):
        2 + U
    with pytest.raises(TypeError):
        DiffPolynomial.zero() + 2


def test_str_rendering():
    assert str(DiffPolynomial.zero()) == "0"
    assert str(U * U1) == "u u'"
    assert str(const(3) * (DiffPolynomial.u_power(2) * U1)) == "3 u^2 u'"
    assert str(jet(4)) == "u^(4)"
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


def assert_canonical(p):
    """Every term is a DiffMonomial with a nonzero coefficient and a trimmed
    exponent tuple, and the terms run strictly up the graded lexicographic order."""
    for m in p.terms:
        assert type(m) is DiffMonomial
        assert type(m.exps) is tuple
        assert m.coeff != 0
        assert m.exps == trim(m.exps)
    keys = [order_key(m.exps) for m in p.terms]
    assert keys == sorted(set(keys))


@given(polys_st, polys_st)
def test_products_sums_and_derivatives_are_canonical(a, b):
    for p in (a * b, a + b, total_derivative(a), total_derivative(a * b)):
        assert_canonical(p)


pairs_st = st.lists(st.tuples(st.integers(min_value=-5, max_value=5), exps_st), max_size=6)


@given(pairs_st)
def test_normalize_takes_any_spelling_of_a_pair(pairs):
    p = normalize(pairs)
    assert_canonical(p)
    assert normalize([(c, list(e)) for c, e in pairs]) == p
    assert normalize([[c, e] for c, e in pairs]) == p
    assert normalize([DiffMonomial(c, e) for c, e in pairs]) == p
    assert normalize(iter(pairs)) == p


def test_normalize_rejects_a_negative_exponent_in_a_list():
    with pytest.raises(ValueError):
        normalize([(1, [2, -1, 0])])
    with pytest.raises(ValueError):
        normalize([(1, (1,)), (1, [0, 0, -1])])
