import pytest

from opow.ctable import (
    c_table_by_recurrence,
    c_table_from_expansions,
    verify_binomial_column,
    verify_cross_check,
    verify_cycle_count_total,
    verify_factorial_weighted_total,
    verify_stirling1_total,
    verify_stirling2_corner,
)


def test_rejects_small_k_max():
    with pytest.raises(ValueError):
        c_table_by_recurrence(1)
    with pytest.raises(ValueError):
        c_table_from_expansions(0)


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


def test_key_constraints_and_positivity():
    table = c_table_by_recurrence(9)
    for (k, s, m, alpha), v in table.entries.items():
        assert v > 0
        assert 1 <= m <= s <= k - 1
        assert sum(alpha) == m
        assert sum(i * a for i, a in enumerate(alpha, 1)) == s


def test_rows_are_sorted():
    rows = c_table_by_recurrence(5).rows()
    assert rows == sorted(rows)


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
