"""Combinatorial number kernel: exact, independent reference values.

Everything here is computed from first principles (standard recurrences
or explicit products) so that the verifiers elsewhere in the package
never check a table against itself.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable


def binomial(n: int, r: int) -> int:
    """Binomial coefficient; 0 whenever r is outside 0..n."""
    if n < 0:
        raise ValueError("binomial needs n >= 0")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def double_factorial_odd(n: int) -> int:
    """n!! for odd n >= 1, extended by (-1)!! = 1."""
    if n == -1:
        return 1
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double_factorial_odd needs odd n >= -1, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# Rows 1, 2, ... of the two Stirling triangles built so far.  Each new row
# is built from the last, so a cold call at large n does not recurse.
_STIRLING2_ROWS: list[tuple[int, ...]] = [(1,)]
_STIRLING1_ROWS: list[tuple[int, ...]] = [(1,)]


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the second-kind Stirling triangle: values for m = 1..n."""
    if n < 1:
        raise ValueError("stirling2_row needs n >= 1")
    rows = _STIRLING2_ROWS
    for k in range(len(rows) + 1, n + 1):
        prev = (0, *rows[-1], 0)  # prev[m] = S2(k-1, m) for 0 <= m <= k
        rows.append(tuple(prev[m - 1] + m * prev[m] for m in range(1, k + 1)))
    return rows[n - 1]


def stirling2(n: int, m: int) -> int:
    """Partitions of an n-set into m blocks; 0 outside 1..n."""
    if n < 1:
        raise ValueError("stirling2 needs n >= 1")
    if m < 1 or m > n:
        return 0
    return stirling2_row(n)[m - 1]


def stirling1_row(n: int) -> tuple[int, ...]:
    """Row n of the unsigned first-kind Stirling triangle: m = 1..n."""
    if n < 1:
        raise ValueError("stirling1_row needs n >= 1")
    rows = _STIRLING1_ROWS
    for k in range(len(rows) + 1, n + 1):
        prev = (0, *rows[-1], 0)  # prev[m] = S1(k-1, m) for 0 <= m <= k
        rows.append(tuple(prev[m - 1] + (k - 1) * prev[m] for m in range(1, k + 1)))
    return rows[n - 1]


def stirling1_unsigned(n: int, m: int) -> int:
    """Permutations of n elements with m cycles; 0 outside 1..n."""
    if n < 1:
        raise ValueError("stirling1_unsigned needs n >= 1")
    if m < 1 or m > n:
        return 0
    return stirling1_row(n)[m - 1]


def bell(n: int) -> int:
    """Bell number B(n) via the Bell triangle (independent of stirling2)."""
    if n < 0:
        raise ValueError("bell needs n >= 0")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def compositions(s: int, m: int) -> list[tuple[int, ...]]:
    """All alpha = (alpha_1, ..., alpha_s) with sum(alpha_i) = m and
    sum(i * alpha_i) = s, in lexicographic order.

    Equivalently: multiplicity vectors of the partitions of s into
    exactly m parts.  Empty when m > s.
    """
    if s < 1 or m < 1:
        raise ValueError("compositions needs s >= 1 and m >= 1")
    out: list[tuple[int, ...]] = []

    def fill(i: int, parts_left: int, weight_left: int, prefix: list[int]) -> None:
        if i > s:
            if parts_left == 0 and weight_left == 0:
                out.append(tuple(prefix))
            return
        cap = min(parts_left, weight_left // i)
        for a in range(cap + 1):
            prefix.append(a)
            fill(i + 1, parts_left - a, weight_left - a * i, prefix)
            prefix.pop()

    fill(1, m, s, [])
    return out


def cycle_type_count(alpha: Iterable[int]) -> int:
    """Permutations of n = sum(i * alpha_i) elements whose cycle type has
    alpha_i cycles of length i: n! / prod(i^alpha_i * alpha_i!)."""
    alpha = tuple(alpha)
    n = sum(i * a for i, a in enumerate(alpha, start=1))
    denom = 1
    for i, a in enumerate(alpha, start=1):
        denom *= i**a * math.factorial(a)
    return math.factorial(n) // denom


def permutations_by_cycle_count(n: int) -> dict[int, int]:
    """Count the permutations of n elements by number of cycles, by full
    enumeration.  Brute-force oracle; intended for n <= 9."""
    if n < 1:
        raise ValueError("needs n >= 1")
    counts: dict[int, int] = {}
    for p in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
        counts[cycles] = counts.get(cycles, 0) + 1
    return counts
