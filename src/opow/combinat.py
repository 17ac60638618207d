"""Combinatorial number kernel: exact, independent reference values.

Everything here is computed from first principles (standard recurrences
or explicit products) so that the verifiers elsewhere in the package
never check a table against itself.

The Stirling triangles S(n, m) and c(n, m) and the signed 1/z table of
``special_u`` share one row step, :func:`_triangle_rows`: row n is
new(j) = old(j-1) + w(n, j) old(j) of row n - 1, with w = j, n - 1 and
j + 2 - 2n, the u = z, e^z and 1/z cases of boson normal ordering.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable


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


_Row = tuple[int, ...]


def _triangle_rows(weight: Callable[[int, int], int], rows: list[_Row], n: int) -> list[_Row]:
    """Extend rows (rows[i] is row i + 1) through row n and return them:
    row r is new(j) = old(j-1) + weight(r, j) old(j) of row r - 1 for
    1 <= j <= r, old(0) = old(r) = 0, so large n does not recurse."""
    for r in range(len(rows) + 1, n + 1):
        old = (0, *rows[-1], 0)
        rows.append(tuple(old[j - 1] + weight(r, j) * old[j] for j in range(1, r + 1)))
    return rows


# Rows 1, 2, ... of the two Stirling triangles built so far.
_STIRLING2_ROWS: list[_Row] = [(1,)]
_STIRLING1_ROWS: list[_Row] = [(1,)]


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the second-kind Stirling triangle: values for m = 1..n."""
    if n < 1:
        raise ValueError("stirling2_row needs n >= 1")
    return _triangle_rows(lambda r, m: m, _STIRLING2_ROWS, n)[n - 1]


def stirling2(n: int, m: int) -> int:
    """Partitions of an n-set into m blocks; 0 outside 1..n."""
    row = stirling2_row(n)  # a ValueError for n < 1
    return row[m - 1] if 1 <= m <= n else 0


def stirling1_row(n: int) -> tuple[int, ...]:
    """Row n of the unsigned first-kind Stirling triangle: m = 1..n."""
    if n < 1:
        raise ValueError("stirling1_row needs n >= 1")
    return _triangle_rows(lambda r, m: r - 1, _STIRLING1_ROWS, n)[n - 1]


def stirling1_unsigned(n: int, m: int) -> int:
    """Permutations of n elements with m cycles; 0 outside 1..n."""
    row = stirling1_row(n)  # a ValueError for n < 1
    return row[m - 1] if 1 <= m <= n else 0


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
