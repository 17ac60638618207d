"""Acceptance gate: every stated guarantee of the package, end to end.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
alongside the usual pytest output).  All comparisons are exact; the only
tolerances are the stated wall-clock budgets.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from opow.combinat import (
    compositions,
    cycle_type_count,
    permutations_by_cycle_count,
    stirling1_unsigned,
    stirling2,
)
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
from opow.expansion import verify_closed_forms
from opow.series import eigenfunction_report, oracle_suite
from opow.special_u import (
    EXP_Z,
    IDENTITY_Z,
    INVERSE_Z,
    SpecialTerm,
    a_table_by_recurrence,
    expand_specialized,
    verify_inverse_z_table,
    verify_specializations,
)

REPO = Path(__file__).resolve().parents[1]


def _conclude(name, ok, detail=""):
    print(f"acceptance: {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok


def test_closed_forms_to_k30():
    start = time.monotonic()
    report = verify_closed_forms(30)
    elapsed = time.monotonic() - start
    ok = report.ok and report.checks == 58 and elapsed < 10.0
    _conclude("closed forms for all k <= 30", ok, f" ({elapsed:.2f}s)")


def test_recurrence_extraction_cross_check():
    start = time.monotonic()
    report = verify_cross_check(c_table_from_expansions(8))
    elapsed = time.monotonic() - start
    ok = report.ok and report.checks > 0 and elapsed < 30.0
    _conclude("recurrence vs extraction, every entry, k <= 8", ok, f" ({elapsed:.2f}s)")


def _both_tables(k_max):
    return c_table_by_recurrence(k_max), c_table_from_expansions(k_max)


def test_binomial_column():
    reports = [verify_binomial_column(table) for table in _both_tables(10)]
    ok = all(r.ok and r.checks == 45 for r in reports)  # all 1 <= s <= k <= 9
    _conclude("m=1 column equals binomials, 1 <= s <= k <= 9, both tables", ok)


def test_stirling2_corner_and_its_recurrence():
    reports = [verify_stirling2_corner(table) for table in _both_tables(10)]
    ok = all(r.ok and r.checks >= 36 for r in reports)
    _conclude("m=s corner equals second-kind Stirling, k <= 9, both tables", ok)


def test_three_identities():
    # the cycle-count identity's index convention must itself survive
    # exhaustive permutation enumeration before the identity is trusted
    convention_ok = True
    for n in range(1, 9):
        by_count = permutations_by_cycle_count(n)
        for s in range(1, n + 1):
            lhs = sum(cycle_type_count(a) for a in compositions(n, s))
            convention_ok = convention_ok and lhs == by_count.get(s, 0)
    reports = [
        verify(table)
        for table in _both_tables(10)
        for verify in (
            verify_stirling1_total,
            verify_cycle_count_total,
            verify_factorial_weighted_total,
        )
    ]
    ok = convention_ok and all(r.ok for r in reports)
    _conclude("identity sums (first-kind, cycle-count, double-factorial), k <= 9, both tables", ok)


def test_identities_on_the_extraction_table_to_k20():
    # past the cross-check's reach: the engine's table at k_max = 20 against
    # every identity, each computed from combinat's independent references
    table = c_table_from_expansions(20)
    expected = {
        verify_binomial_column: 190,
        verify_stirling2_corner: 342,
        verify_stirling1_total: 190,
        verify_cycle_count_total: 190,
        verify_factorial_weighted_total: 190,
    }
    reports = {verify: verify(table) for verify in expected}
    ok = all(r.ok and r.checks == expected[verify] for verify, r in reports.items())
    _conclude("five identities on the extraction table, k <= 19", ok)


def test_inverse_z_three_way():
    report = verify_inverse_z_table(15)
    ok = report.ok and report.checks == 2 * sum(range(1, 16))
    _conclude("1/z table: recurrence = closed form = specialization, k <= 15", ok)


def test_specializations():
    report = verify_specializations(10)
    _conclude("u = z, e^z, 1/z specializations with row sums, k <= 10", report.ok)


@pytest.mark.parametrize("k", [40, 300])
def test_specializations_at_the_default_cap(k):
    # the direct z-function route against the independent tables, at the
    # default OPOW_MAX_K and far past it, where specialize(expand(k)) cannot reach
    inverse = a_table_by_recurrence(k)
    rows = {
        IDENTITY_Z: lambda s: SpecialTerm(Fraction(stirling2(k, s)), s, 0, s),
        EXP_Z: lambda s: SpecialTerm(Fraction(stirling1_unsigned(k, s)), 0, k, s),
        INVERSE_Z: lambda s: SpecialTerm(Fraction(inverse[k, s]), s - 2 * k, 0, s),
    }
    ok = all(
        expand_specialized(k, rule) == tuple(map(row, range(1, k + 1)))
        for rule, row in rows.items()
    )
    _conclude(f"u = z, e^z, 1/z at k = {k} against Stirling and double-factorial tables", ok)


def test_series_oracle():
    start = time.monotonic()
    random_part = oracle_suite(6, seed=42)
    eigen_part = eigenfunction_report()
    elapsed = time.monotonic() - start
    ok = (
        random_part.ok
        and random_part.checks == 300
        and eigen_part.ok
        and eigen_part.checks == 64
        and elapsed < 60.0
    )
    _conclude("series oracle: 50 random pairs through k <= 6 (300 checks) + eigenfunction law", ok, f" ({elapsed:.2f}s)")


def test_series_oracle_to_k10():
    start = time.monotonic()
    report = oracle_suite(10, seed=2023)
    elapsed = time.monotonic() - start
    ok = report.ok and report.checks == 500 and elapsed < 60.0
    _conclude("series oracle: 50 random pairs through k <= 10 (500 checks)", ok, f" ({elapsed:.2f}s)")


def test_cli_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable,
        "-m",
        "opow",
        "verify",
        "--suite",
        "all",
        "--k-max",
        "8",
        "--seed",
        "42",
    ]
    first = subprocess.run(cmd, capture_output=True, env=env, cwd=REPO)
    second = subprocess.run(cmd, capture_output=True, env=env, cwd=REPO)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stderr == second.stderr
        and b"overall: PASS" in first.stdout
    )
    _conclude("CLI verify --suite all twice: exit 0, byte-identical output", ok)
