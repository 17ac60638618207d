import math

import pytest

from opow import expansion
from opow.diffpoly import DiffPolynomial, degree, weight
from opow.expansion import (
    OperatorExpansion,
    check_closed_forms,
    expand,
    expansions,
    extract_C,
    extract_F,
    step,
    verify_closed_forms,
)

U = DiffPolynomial.u_power


def J(j, e=1):
    """The monomial (u^(j))^e."""
    return DiffPolynomial.monomial(1, (0,) * j + (e,))


def poly(*monomials):
    from opow.diffpoly import normalize

    return normalize(monomials)


def test_expand_rejects_zeroth_power():
    with pytest.raises(ValueError):
        expand(0)
    with pytest.raises(ValueError):
        expand(-3)


def test_expand_base_case():
    assert expand(1).coeffs == {1: U(1)}


def test_expand_two():
    exp = expand(2)
    assert exp.coeffs == {1: poly((1, (1, 1))), 2: U(2)}


def test_expand_three():
    exp = expand(3)
    assert exp.coeffs == {
        1: poly((1, (1, 2)), (1, (2, 0, 1))),
        2: poly((3, (2, 1))),
        3: U(3),
    }


def test_expand_four():
    # frozen from hand computation cross-checked by the series oracle
    exp = expand(4)
    assert exp.coeffs == {
        1: poly((1, (1, 3)), (4, (2, 1, 1)), (1, (3, 0, 0, 1))),
        2: poly((7, (2, 2)), (4, (3, 0, 1))),
        3: poly((6, (3, 1))),
        4: U(4),
    }


@pytest.mark.parametrize("k", range(1, 11))
def test_degree_weight_and_positivity(k):
    exp = expand(k)
    assert sorted(exp.coeffs) == list(range(1, k + 1))
    for s, p in exp.coeffs.items():
        assert p.terms, f"empty coefficient at s={s}"
        for mono in p.terms:
            assert mono.coeff > 0
            assert degree(mono.exps) == k
            assert weight(mono.exps) == k - s


def test_expansions_walks_every_power():
    k = 7
    walked = list(expansions(k))
    assert len(walked) == k
    for j in range(1, k + 1):
        assert walked[j - 1] == expand(j)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            next(expansions(bad))


@pytest.mark.parametrize("k", range(1, 8))
def test_step_matches_fresh_expansion(k):
    assert step(expand(k)) == expand(k + 1)


def test_max_jet_is_read_from_the_monomials():
    assert [expand(k).max_jet for k in range(1, 9)] == list(range(8))
    exp = expand(3)
    stray = poly(*exp.coeffs[1].terms, (1, (0, 0, 0, 0, 0, 1)))
    assert OperatorExpansion(exp.k, {**exp.coeffs, 1: stray}).max_jet == 5


def test_sum_of_first_coefficient_is_factorial():
    # setting every jet variable to 1 in coeffs[1] counts all entries at
    # upper index k-1, which must total (k-1)!
    for k in range(2, 9):
        total = sum(m.coeff for m in expand(k).coeffs[1].terms)
        assert total == math.factorial(k - 1)


def test_extract_F_examples():
    exp = expand(3)
    assert extract_F(exp, m=1, s=1) == DiffPolynomial.monomial(3, (0, 1))
    assert extract_F(exp, m=1, s=2) == J(2)
    assert extract_F(exp, m=2, s=2) == J(1, 2)


def test_extract_F_range_checks():
    exp = expand(3)
    for m, s in [(0, 1), (2, 1), (1, 3), (1, 0)]:
        with pytest.raises(ValueError):
            extract_F(exp, m=m, s=s)


def test_extract_F_rejects_a_monomial_off_the_invariant():
    # 5 u^2 u'' has degree 3 in a power of degree 4; read off as m = 2 it
    # would pass for 5 u'' next to the true 7 (u')^2
    exp = expand(4)
    assert extract_F(exp, m=2, s=2) == DiffPolynomial.monomial(7, (0, 2))
    stray = DiffPolynomial.monomial(5, (2, 0, 1))
    corrupted = OperatorExpansion(exp.k, {**exp.coeffs, 2: exp.coeffs[2] + stray})
    with pytest.raises(ValueError, match="invariant violation"):
        extract_F(corrupted, m=2, s=2)


def test_extract_C_examples():
    entries = extract_C(expand(3))
    assert entries == [
        ((3, 1, 1, (1,)), 3),
        ((3, 2, 1, (0, 1)), 1),
        ((3, 2, 2, (2,)), 1),
    ]


def test_extract_C_requires_k_at_least_two():
    with pytest.raises(ValueError):
        extract_C(expand(1))


def test_extract_C_invariants():
    for k in range(2, 9):
        for (k_, s, m, alpha), value in extract_C(expand(k)):
            assert k_ == k
            assert sum(alpha) == m
            assert sum(i * a for i, a in enumerate(alpha, 1)) == s
            assert value > 0
            assert 1 <= m <= s <= k - 1


def test_check_closed_forms():
    for k in (2, 3, 4, 12):
        report = check_closed_forms(expand(k))
        assert report.ok and report.checks == 2
    with pytest.raises(ValueError):
        check_closed_forms(expand(1))


def test_verify_closed_forms_sweep():
    report = verify_closed_forms(12)
    assert report.ok
    assert report.checks == 2 * 11


def test_verify_closed_forms_checks_each_power_with_check_closed_forms(monkeypatch):
    seen = []
    real = expansion.check_closed_forms

    def recording(exp):
        seen.append(exp.k)
        return real(exp)

    monkeypatch.setattr(expansion, "check_closed_forms", recording)
    assert verify_closed_forms(6).checks == 2 * 5
    assert seen == [2, 3, 4, 5, 6]


def partition_numbers(n_max):
    """p(0..n_max) by the recurrence over partitions with parts <= m."""
    p = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for n in range(m, n_max + 1):
            p[n] += p[n - m]
    return p


def test_term_count_is_partition_number_to_k20():
    # every coefficient is positive, so no monomial cancels: the (d/dz)^(k-s)
    # coefficient of A^k has one monomial per partition of s
    p = partition_numbers(19)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    for exp in expansions(20):
        k = exp.k
        assert [len(exp.coeffs[k - s].terms) for s in range(1, k)] == p[1:k], k
