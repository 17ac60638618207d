import pickle
from fractions import Fraction
from math import perm

import pytest
from hypothesis import example, given, settings, strategies as st

from opow import special_u
from opow.expansion import expand, expansions
from opow.series import LaurentSeries, apply_A_repeated
from opow.special_u import (
    EXP_Z,
    IDENTITY_Z,
    INVERSE_Z,
    SpecialTerm,
    URule,
    a_closed_form,
    a_table_by_recurrence,
    expand_specialized,
    polynomial_u,
    specialize,
    verify_inverse_z_table,
    verify_specializations,
)

Q = Fraction


def terms(*quads):
    return tuple(SpecialTerm(Q(c), z, m, s) for c, z, m, s in quads)


def test_urule_validation():
    with pytest.raises(ValueError):
        URule({})
    with pytest.raises(ValueError):
        URule({(1, 0): 0, (0, 1): Q(0)})  # no nonzero term
    leading = "^polynomial substitution needs a nonzero leading coefficient$"
    with pytest.raises(ValueError, match=leading):
        polynomial_u([1, 0])
    with pytest.raises(ValueError):
        polynomial_u([])
    # inexact coefficients are rejected by the rule itself, not only by polynomial_u,
    # and before zero terms are dropped
    with pytest.raises(TypeError):
        URule({(0, 0): 0.5, (1, 0): 1.0})
    with pytest.raises(TypeError):
        URule({(0, 0): "1", (1, 0): 2})
    with pytest.raises(TypeError):
        URule({(0, 0): 0.0, (1, 0): 1})
    with pytest.raises(TypeError):
        URule({(Q(1, 2), 0): 1})  # z^(1/2)
    with pytest.raises(TypeError):
        URule({(0, 1.0): 1})
    with pytest.raises(TypeError):
        polynomial_u([1, 0.5])
    with pytest.raises(TypeError):
        polynomial_u([1, 0.0])
    # sorted, zero terms dropped, integral coefficients stored as int
    rule = URule({(1, 1): Q(4, 2), (0, 0): Q(1, 2), (3, 0): 0})
    assert rule.terms == (((0, 0), Q(1, 2)), ((1, 1), 2))
    assert [type(c) for _, c in rule.terms] == [Fraction, int]
    assert rule == URule(dict(rule.terms)) and hash(rule) == hash(URule(dict(rule.terms)))
    assert polynomial_u([1, Q(1, 2)]) == URule({(0, 0): 1, (1, 0): Q(1, 2)})
    assert polynomial_u([0, Q(3, 3)]) == IDENTITY_Z


def test_rule_is_an_immutable_value():
    rule = polynomial_u([Q(1, 2), 0, 3])
    assert repr(rule) == "URule(terms=(((0, 0), Fraction(1, 2)), ((2, 0), 3)))"
    assert rule != IDENTITY_Z and rule != rule.terms and {rule: 1}[polynomial_u([Q(1, 2), 0, 3])]
    with pytest.raises(AttributeError):
        rule.terms = None
    with pytest.raises(AttributeError):
        del rule.terms
    assert pickle.loads(pickle.dumps(rule)) == rule
    with pytest.raises(AttributeError):
        rule.extra = 1


def test_specialize_identity_z():
    got = specialize(expand(3), IDENTITY_Z)
    assert got == terms((1, 1, 0, 1), (3, 2, 0, 2), (1, 3, 0, 3))


def test_specialize_exp_z():
    got = specialize(expand(2), EXP_Z)
    assert got == terms((1, 0, 2, 1), (1, 0, 2, 2))


def test_specialize_inverse_z():
    got = specialize(expand(3), INVERSE_Z)
    assert got == terms((3, -5, 0, 1), (-3, -4, 0, 2), (1, -3, 0, 3))


def test_specialize_polynomial():
    # u = 1 + z: A^2 = (u u') D + u^2 D^2 with u' = 1
    got = specialize(expand(2), polynomial_u([1, 1]))
    assert got == terms((1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 0, 2), (2, 1, 0, 2), (1, 2, 0, 2))


def test_polynomial_route_matches_identity_z():
    assert polynomial_u([0, 1]) == IDENTITY_Z


def test_polynomial_rational_coefficients():
    # A^1 = u D, so the terms are u's own coefficients
    got = specialize(expand(1), polynomial_u([Q(1, 2), Q(3)]))
    assert got == (
        SpecialTerm(Q(1, 2), 0, 0, 1),
        SpecialTerm(Q(3), 1, 0, 1),
    )


def test_a_table_small_rows():
    table = a_table_by_recurrence(5)
    assert [table[2, s] for s in (1, 2)] == [-1, 1]
    assert [table[3, s] for s in (1, 2, 3)] == [3, -3, 1]
    assert [table[4, s] for s in (1, 2, 3, 4)] == [-15, 15, -6, 1]
    assert [table[5, s] for s in (1, 2, 3, 4, 5)] == [105, -105, 45, -10, 1]


def test_a_table_structure():
    table = a_table_by_recurrence(12)
    for k in range(1, 13):
        assert table[k, k] == 1
        for s in range(1, k + 1):
            v = table[k, s]
            assert v != 0
            assert (v > 0) == ((k - s) % 2 == 0), "sign must alternate with k-s"
    # one below the diagonal: minus the triangular numbers
    for k in range(2, 13):
        assert table[k, k - 1] == -(k - 1) * k // 2


def test_a_table_range_errors():
    table = a_table_by_recurrence(4)
    assert set(table) == {(k, s) for k in range(1, 5) for s in range(1, k + 1)}
    with pytest.raises(KeyError):
        table[5, 1]
    with pytest.raises(KeyError):
        table[3, 4]
    with pytest.raises(ValueError):
        a_table_by_recurrence(0)


def test_a_closed_form_matches_recurrence():
    table = a_table_by_recurrence(40)
    for k in range(1, 41):
        for s in range(1, k + 1):
            assert a_closed_form(k, s) == table[k, s]


def test_a_closed_form_examples_and_errors():
    assert a_closed_form(3, 1) == 3
    assert a_closed_form(3, 2) == -3
    assert all(a_closed_form(k, k) == 1 for k in range(1, 12))
    with pytest.raises(ValueError):
        a_closed_form(3, 0)
    with pytest.raises(ValueError):
        a_closed_form(3, 4)


def test_verify_inverse_z_table():
    report = verify_inverse_z_table(10)
    assert report.ok, report.render_lines()
    # two comparisons per (k, s) pair
    assert report.checks == 2 * sum(range(1, 11))


def test_verify_specializations():
    report = verify_specializations(8)
    assert report.ok, report.render_lines()


def test_a_corrupted_direct_route_fails_special_u_and_not_inverse_z(monkeypatch):
    # special-u checks u = 1/z on expand_specialized, inverse-z on specialize(expand(k))
    assert verify_specializations(7).ok and verify_inverse_z_table(7).ok
    next_row = special_u._next_row
    monkeypatch.setattr(
        special_u, "_next_row", lambda *rows: {key: c + 1 for key, c in next_row(*rows).items()}
    )
    failures = verify_specializations(7).failures
    assert len(failures) == 27 and all("u=1/z" in f.location for f in failures)
    assert verify_inverse_z_table(7).ok


# the direct route against specialize(expand(k)) -------------------------

FIXED_POLYS = {
    "poly:1/2,0,-3/4": polynomial_u([Q(1, 2), 0, Q(-3, 4)]),
    "poly:-3/2,2,-1,3": polynomial_u([Q(-3, 2), 2, -1, 3]),
    "poly:0,5/3,0,0,-1/7": polynomial_u([0, Q(5, 3), 0, 0, Q(-1, 7)]),
    "poly:7": polynomial_u([7]),
}
SPECIALIZED_RULES = {
    "z": IDENTITY_Z,
    "exp": EXP_Z,
    "inv-z": INVERSE_Z,
    **FIXED_POLYS,
    "1/3+2z*e^z": URule({(0, 0): Q(1, 3), (1, 1): 2}),
    "e^(-2z)/(2z)-z^2": URule({(-1, -2): Q(1, 2), (2, 0): -1}),
}


@pytest.mark.parametrize("rule", SPECIALIZED_RULES.values(), ids=list(SPECIALIZED_RULES))
def test_expand_specialized_matches_specialize(rule):
    for exp in expansions(10):
        got = expand_specialized(exp.k, rule)
        assert got == specialize(exp, rule), f"k={exp.k}"
        assert all(type(t.coeff) is Fraction for t in got)


small_q = st.builds(Q, st.integers(-6, 6), st.integers(1, 5))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_q, max_size=3),
    small_q.filter(bool),
    st.integers(1, 8),
)
@example([], Q(-2, 3), 8)  # constant u
@example([Q(0), Q(0)], Q(5, 2), 6)  # u = c z^2: zero c0 and an interior zero
@example([Q(0), Q(-1, 3), Q(0)], Q(4), 7)  # negative and non-integer coefficients
@example([Q(-2), Q(-2)], Q(1), 2)  # u u' has a z^1 coefficient that cancels to zero
@example([Q(-2), Q(-2), Q(0)], Q(-2), 2)  # terms do not arise in sorted order
def test_expand_specialized_matches_specialize_random(lower, leading, k):
    rule = polynomial_u([*lower, leading])
    assert expand_specialized(k, rule) == specialize(expand(k), rule)


def test_expand_specialized_rejects_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError):
            expand_specialized(k, IDENTITY_Z)


def test_expand_specialized_against_oracle_at_k16():
    # specialize(expand(16)) takes seconds for this u; the literal oracle does not
    coeffs = [Q(-3, 2), 2, -1, 3]
    k = 16
    got_terms = expand_specialized(k, polynomial_u(coeffs))
    u = LaurentSeries.polynomial(coeffs)
    for n in range(1, k + 1):
        applied: dict[int, Fraction] = {}
        for t in got_terms:
            assert t.exp_mult == 0
            if t.d_order <= n:
                e = t.z_exp + n - t.d_order
                applied[e] = applied.get(e, 0) + t.coeff * perm(n, t.d_order)
        applied = {e: c for e, c in applied.items() if c}
        oracle = apply_A_repeated(u, LaurentSeries.z_power(n), k)
        assert applied == dict(oracle.items()), f"A^{k} z^{n}"
