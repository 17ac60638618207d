"""The coefficient table generated by its own recurrence, plus verifiers.

The table holds the positive integers C keyed by (k, s, m, alpha) with
1 <= m <= s <= k-1, sum(alpha) = m and sum(i * alpha_i) = s.  Two
independent construction routes exist:

* :func:`c_table_from_expansions` reads the entries off the
  normal-ordered expansion of A^k (the defining route), and
* :func:`c_table_powers` builds them from one recurrence that never
  touches the expansion engine, seeded at s = 1 by the triangular
  numbers t(t-1)/2, and :func:`c_table_by_recurrence` collects its
  powers into a table.

The recurrence raises the upper index s by one.  An entry at
(k, s, m, alpha) is a sum over intermediate powers t = s..k-1, carried
as a running sum so that each power adds only its own term t = k-1:

    C(k, s, m, alpha) = C(k-1, s, m, alpha)
                        + (k-m) * C(k-1, s-1, m-1, alpha - e1)
                        + sum_j (alpha_j + 1) * C(k-1, s-1, m, alpha + e_j - e_{j+1})

where any key outside the valid set contributes zero (so the carry is
zero at k = s+1).  The column m = 1 and the corner m = s need no rules
of their own.  For alpha = unit(s) the first source has no part of size
one and the only move is from slot s down to s-1, leaving
C(k, s, 1, unit(s)) = C(k-1, s, 1, unit(s)) + C(k-1, s-1, 1, unit(s-1)).
For alpha = (s,) no slot above the first is filled, leaving
C(k, s, s, (s,)) = C(k-1, s, s, (s,)) + (k-s) * C(k-1, s-1, s-1, (s-1,)).

Every term reads power k-1 alone, so the walk is over k: power k is
built from the previous power, the only one held, and is final as soon
as it is built.  ``opow ctable`` writes each power as it comes.

The verifiers at the bottom check a table against independent
combinatorial references: binomial coefficients on the m = 1 column,
second-kind Stirling numbers on the m = s corner, first-kind Stirling
numbers for whole-table sums, permutation cycle-type counts, and a
double-factorial weighted sum.  ``opow verify`` runs them on the
extraction table, so each one tests the engine; the recurrence table
meets the engine only in :func:`verify_cross_check`.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from . import _Value
from .combinat import (
    binomial,
    compositions,
    cycle_type_count,
    double_factorial_odd,
    stirling1_unsigned,
    stirling2,
)
from .diffpoly import ExponentVector, trim
from .expansion import CKey, expansions, extract_C
from .report import VerificationReport

import math


def _unit(s: int) -> ExponentVector:
    """The exponent tuple with a single 1 in slot s (1-based)."""
    return (0,) * (s - 1) + (1,)


class CTable(_Value):
    """Read-only table of coefficient entries keyed (k, s, m, alpha)."""

    __slots__ = ("k_max", "entries")

    k_max: int
    entries: dict[CKey, int]

    def __init__(self, k_max: int, entries: dict[CKey, int]) -> None:
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "entries", entries)

    def value(self, k: int, s: int, m: int, alpha: Iterable[int]) -> int:
        """Entry lookup; 0 for any key outside the table."""
        return self.entries.get((k, s, m, trim(alpha)), 0)


def _shapes(s: int) -> list[tuple]:
    """Each (s, m, alpha) of upper index s >= 2 in key order, with m and its
    sources at upper index s - 1: the alpha - e1 source, then one (weight,
    source) pair per unit of weight moved from slot j+1 down to slot j."""
    shapes = []
    for m in range(1, s + 1):
        for alpha in compositions(s, m):
            drop = (s - 1, m - 1, trim((alpha[0] - 1,) + alpha[1:])) if alpha[0] else None
            moves = []
            for j in range(1, s):
                if alpha[j]:
                    shifted = list(alpha)
                    shifted[j - 1] += 1
                    shifted[j] -= 1
                    moves.append((shifted[j - 1], (s - 1, m, trim(shifted))))
            shapes.append(((s, m, trim(alpha)), m, drop, moves))
    return shapes


def c_table_powers(k_max: int) -> Iterator[list[tuple[CKey, int]]]:
    """Yield the entries of each power k = 2..k_max in turn, as one list of
    ((k, s, m, alpha), value) pairs in key order, built by the one
    running-sum recurrence.

    Power k reads power k-1 alone, so only that power is held, keyed
    (s, m, alpha).  The shapes at upper index s = k-1 are built the first
    time power k needs them.  Raises ValueError (on the first ``next``)
    for k_max < 2, and ArithmeticError if some required key is reached by
    no term of the recurrence (it would come out non-positive); every key
    must receive a positive value.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    shapes: list[tuple] = []  # s = 2..k-1, in key order
    prev: dict[tuple[int, int, ExponentVector], int] = {}
    for k in range(2, k_max + 1):
        if k > 2:
            shapes += _shapes(k - 1)
        power = {(1, 1, (1,)): k * (k - 1) // 2}
        for key, m, drop, moves in shapes:
            val = prev.get(key, 0)
            if drop is not None:
                val += (k - m) * prev.get(drop, 0)
            for weight, src in moves:
                val += weight * prev.get(src, 0)
            if val <= 0:
                raise ArithmeticError(f"no recurrence reaches entry {(k, *key)}")
            power[key] = val
        prev = power
        yield [((k, *key), val) for key, val in power.items()]


def c_table_by_recurrence(k_max: int) -> CTable:
    """Build the table for all k <= k_max from :func:`c_table_powers`.

    Raises ValueError for k_max < 2 and ArithmeticError as
    :func:`c_table_powers` does.
    """
    return CTable(k_max, dict(chain.from_iterable(c_table_powers(k_max))))


def c_table_from_expansions(k_max: int) -> CTable:
    """Build the same table by extraction from the expansion engine."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    entries: dict[CKey, int] = {}
    for exp in islice(expansions(k_max), 1, None):
        entries.update(extract_C(exp))
    return CTable(k_max, entries)


def verify_cross_check(ext: CTable) -> VerificationReport:
    """Entry-for-entry agreement of the two construction routes: the
    extraction table ``ext`` against the recurrence table built here for
    the same k_max."""
    report = VerificationReport(suite="cross-check", k_max=ext.k_max)
    rec = c_table_by_recurrence(ext.k_max)
    for key in sorted(set(rec.entries) | set(ext.entries)):
        k, s, m, alpha = key
        loc = f"k={k} s={s} m={m} alpha={alpha}"
        report.expect_equal(loc, ext.entries.get(key, "absent"), rec.entries.get(key, "absent"))
    return report


def verify_binomial_column(table: CTable) -> VerificationReport:
    """The m = 1 column: the entry at (k+1, s, 1, unit(s)) must equal
    binomial(k+1, s+1), for all 1 <= s <= k <= k_max - 1."""
    k_max = table.k_max
    report = VerificationReport(suite="binomial", k_max=k_max)
    for k in range(1, k_max):
        for s in range(1, k + 1):
            loc = f"k+1={k + 1} s={s}"
            report.expect_equal(loc, binomial(k + 1, s + 1), table.value(k + 1, s, 1, _unit(s)))
    return report


def verify_stirling2_corner(table: CTable) -> VerificationReport:
    """The m = s corner: the entry at (k+1, s+1, s+1, (s+1,)) must equal
    stirling2(k+1, k-s); the same corner must also satisfy its own
    one-term recurrence sum over intermediate powers."""
    k_max = table.k_max
    report = VerificationReport(suite="stirling2", k_max=k_max)
    for k in range(2, k_max):
        for s in range(1, k):
            loc = f"k+1={k + 1} s={s}"
            report.expect_equal(
                loc, stirling2(k + 1, k - s), table.value(k + 1, s + 1, s + 1, (s + 1,))
            )
    for s in range(2, k_max):
        for k in range(s + 1, k_max + 1):
            want = sum(
                (t - s + 1) * table.value(t, s - 1, s - 1, (s - 1,)) for t in range(s, k)
            )
            report.expect_equal(
                f"corner recurrence k={k} s={s}", want, table.value(k, s, s, (s,))
            )
    return report


def _slice_sums(table: CTable, weight: Callable[[ExponentVector], int]) -> dict[tuple[int, int], int]:
    """Sum of weight(alpha) * C over m and alpha at each (k, s)."""
    sums: dict[tuple[int, int], int] = {}
    for (k, s, _m, alpha), v in table.entries.items():
        sums[(k, s)] = sums.get((k, s), 0) + weight(alpha) * v
    return sums


def verify_stirling1_total(table: CTable) -> VerificationReport:
    """Summing the table over m and alpha at fixed (k, s) gives the
    unsigned first-kind Stirling number for (k, k-s)."""
    k_max = table.k_max
    report = VerificationReport(suite="stirling1-sum", k_max=k_max)
    sums = _slice_sums(table, lambda alpha: 1)
    for k in range(2, k_max + 1):
        for s in range(1, k):
            loc = f"k={k} s={s}"
            report.expect_equal(loc, stirling1_unsigned(k, k - s), sums.get((k, s), 0))
    return report


def verify_cycle_count_total(table: CTable) -> VerificationReport:
    """Cycle-type counts against table sums: the number of permutations
    of k elements with exactly s cycles, computed as a sum of
    k! / prod(i^alpha_i alpha_i!) over cycle types, equals the table sum
    at upper index k - s."""
    k_max = table.k_max
    report = VerificationReport(suite="cycle-count", k_max=k_max)
    sums = _slice_sums(table, lambda alpha: 1)
    for k in range(2, k_max + 1):
        for s in range(1, k):
            lhs = sum(cycle_type_count(alpha) for alpha in compositions(k, s))
            loc = f"k={k} s={s}"
            report.expect_equal(loc, lhs, sums.get((k, k - s), 0))
    return report


def verify_factorial_weighted_total(table: CTable) -> VerificationReport:
    """Weighting each entry by prod((i!)^alpha_i) and summing over m and
    alpha at fixed (k+1, s) gives (2s-1)!! * binomial(k+s, 2s)."""
    k_max = table.k_max
    report = VerificationReport(suite="doublefact", k_max=k_max)
    weighted = _slice_sums(
        table, lambda alpha: math.prod(math.factorial(i) ** a for i, a in enumerate(alpha, 1))
    )
    for kk in range(2, k_max + 1):  # kk = k + 1 in the statement
        k = kk - 1
        for s in range(1, kk):
            rhs = double_factorial_odd(2 * s - 1) * binomial(k + s, 2 * s)
            loc = f"k+1={kk} s={s}"
            report.expect_equal(loc, rhs, weighted.get((kk, s), 0))
    return report
