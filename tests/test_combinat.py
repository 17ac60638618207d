import math
from itertools import product

import pytest

from opow.combinat import (
    bell,
    binomial,
    compositions,
    cycle_type_count,
    double_factorial_odd,
    permutations_by_cycle_count,
    stirling1_row,
    stirling1_unsigned,
    stirling2,
    stirling2_row,
)


def test_binomial():
    assert binomial(3, 2) == 3
    assert binomial(4, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_double_factorial_odd():
    assert double_factorial_odd(-1) == 1
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(5) == 15
    assert double_factorial_odd(7) == 105
    for bad in (0, 4, -3):
        with pytest.raises(ValueError):
            double_factorial_odd(bad)


def test_stirling2_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2_row(4) == (1, 7, 6, 1)
    assert all(stirling2(n, n) == 1 for n in range(1, 10))
    assert all(stirling2(n, 1) == 1 for n in range(1, 10))
    assert stirling2(3, 5) == 0 and stirling2(3, 0) == 0
    with pytest.raises(ValueError):
        stirling2(0, 1)


def test_stirling1_values():
    assert stirling1_unsigned(3, 1) == 2
    assert stirling1_unsigned(3, 2) == 3
    assert stirling1_row(4) == (6, 11, 6, 1)
    assert all(stirling1_unsigned(n, n) == 1 for n in range(1, 10))
    assert stirling1_unsigned(4, 9) == 0


def test_row_sums_against_bell_and_factorial():
    for n in range(1, 41):
        assert sum(stirling2_row(n)) == bell(n)
        assert sum(stirling1_row(n)) == math.factorial(n)


def test_stirling_rows_far_past_the_recursion_limit():
    assert stirling2(600, 3) == (3**599 - 2**600 + 1) // 2
    assert stirling1_unsigned(600, 1) == math.factorial(599)


def test_bell_sequence():
    assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_compositions_examples():
    assert compositions(3, 1) == [(0, 0, 1)]
    assert compositions(3, 2) == [(1, 1, 0)]
    assert compositions(3, 3) == [(3, 0, 0)]
    assert compositions(2, 3) == []  # m > s has no solutions


def brute_compositions(s, m):
    out = [
        alpha
        for alpha in product(range(s + 1), repeat=s)
        if sum(alpha) == m and sum(i * a for i, a in enumerate(alpha, 1)) == s
    ]
    return sorted(out)


@pytest.mark.parametrize("s", range(1, 8))
def test_compositions_against_brute_force(s):
    for m in range(1, s + 1):
        assert compositions(s, m) == brute_compositions(s, m)


def partitions_into_parts(s, m):
    # count partitions of s into exactly m parts, by direct recursion
    def count(n, k, largest):
        if k == 0:
            return 1 if n == 0 else 0
        return sum(count(n - p, k - 1, p) for p in range(1, min(n, largest) + 1))

    return count(s, m, s)


@pytest.mark.parametrize("s", range(1, 9))
def test_composition_count_is_partition_count(s):
    for m in range(1, s + 1):
        assert len(compositions(s, m)) == partitions_into_parts(s, m)


def test_cycle_type_count_small():
    # 3-cycles on 3 elements: two of them
    assert cycle_type_count((0, 0, 1)) == 2
    # one fixed point plus one 2-cycle on 3 elements
    assert cycle_type_count((1, 1)) == 3
    assert cycle_type_count((3,)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_counts_match_enumeration(n):
    by_count = permutations_by_cycle_count(n)
    for s in range(1, n + 1):
        total = sum(cycle_type_count(a) for a in compositions(n, s))
        assert total == by_count.get(s, 0)
    assert sum(by_count.values()) == math.factorial(n)
