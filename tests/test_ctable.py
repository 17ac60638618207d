from itertools import islice

import pytest

from opow import ctable
from opow.ctable import (
    c_table_by_recurrence,
    c_table_from_expansions,
    c_table_powers,
    verify_binomial_column,
    verify_cross_check,
    verify_cycle_count_total,
    verify_factorial_weighted_total,
    verify_stirling1_total,
    verify_stirling2_corner,
)
from opow.expansion import expansions, extract_C


def test_rejects_small_k_max():
    with pytest.raises(ValueError):
        c_table_by_recurrence(1)
    with pytest.raises(ValueError):
        c_table_from_expansions(0)
    with pytest.raises(ValueError):
        next(c_table_powers(1))


def test_seed_and_small_entries():
    table = c_table_by_recurrence(4)
    assert table.value(3, 1, 1, (1,)) == 3
    assert table.value(3, 2, 1, (0, 1)) == 1
    assert table.value(3, 2, 2, (2,)) == 1
    assert table.value(4, 2, 1, (0, 1)) == 4
    assert table.value(4, 2, 2, (2,)) == 7
    assert table.value(4, 3, 2, (1, 1)) == 4
    # alpha is trimmed on lookup
    assert table.value(3, 2, 2, (2, 0, 0)) == 1
    # absent keys read as zero
    assert table.value(3, 2, 2, (1, 1)) == 0


def test_both_routes_agree_entry_for_entry():
    rec = c_table_by_recurrence(16)
    ext = c_table_from_expansions(16)
    assert rec.entries == ext.entries


def test_both_routes_yield_each_power_alike():
    # power by power and in order, not only as whole tables
    powers = c_table_powers(12)
    for exp, power in zip(islice(expansions(12), 1, None), powers, strict=True):
        assert extract_C(exp) == power, exp.k


def test_key_constraints_and_positivity():
    table = c_table_by_recurrence(9)
    for (k, s, m, alpha), v in table.entries.items():
        assert v > 0
        assert 1 <= m <= s <= k - 1
        assert sum(alpha) == m
        assert sum(i * a for i, a in enumerate(alpha, 1)) == s


@pytest.mark.parametrize("k_max", range(2, 13))
def test_powers_concatenate_to_the_sorted_table(k_max):
    powers = list(c_table_powers(k_max))
    assert [entry for power in powers for entry in power] == sorted(
        c_table_by_recurrence(k_max).entries.items()
    )
    assert [{k for (k, *_), _v in power} for power in powers] == [
        {k} for k in range(2, k_max + 1)
    ]


def test_powers_build_each_upper_index_only_when_needed(monkeypatch):
    # power k reads upper indices s <= k - 1 only, so taking it must not
    # enumerate the shapes of any larger s
    seen = []
    real = ctable.compositions

    def recording(s, m):
        seen.append(s)
        return real(s, m)

    monkeypatch.setattr(ctable, "compositions", recording)
    powers = c_table_powers(30)
    next(powers)
    assert max(seen, default=0) <= 2
    for k in range(3, 13):
        next(powers)
        assert max(seen) == k - 1


def test_verify_cross_check():
    report = verify_cross_check(c_table_from_expansions(7))
    assert report.ok
    assert report.checks == len(c_table_by_recurrence(7).entries)


def test_verifiers_pass():
    tables = (c_table_by_recurrence(10), c_table_from_expansions(10))
    for verifier in (
        verify_binomial_column,
        verify_stirling2_corner,
        verify_stirling1_total,
        verify_cycle_count_total,
        verify_factorial_weighted_total,
    ):
        rec, ext = (verifier(table) for table in tables)
        assert rec.ok, rec.render_lines()
        assert ext.ok, ext.render_lines()
        assert rec.checks == ext.checks > 0


def test_verifier_detects_corruption():
    table = c_table_by_recurrence(6)
    key = (3, 1, 1, (1,))
    corrupted = dict(table.entries)
    corrupted[key] = corrupted[key] + 1
    bad = type(table)(table.k_max, corrupted)
    report = verify_binomial_column(bad)
    assert not report.ok
    assert any("k+1=3" in f.location for f in report.failures)
