"""A fixed piece of pure-Python work that shares no code with ``opow``.

Usage:  python3 perfbench/reference.py

run.py starts it before each command of a timed run, to measure how fast
the machine runs Python at that moment.  It prints the seconds its work
took, without the interpreter's start-up.  The work is of the kinds opow
does: exact rational and big-integer arithmetic, and dicts keyed by
tuples.
"""

from __future__ import annotations

import time
from fractions import Fraction


def work() -> int:
    total = Fraction(0)
    for i in range(1, 1600):
        total += Fraction(i % 7 + 1, i)
    counts: dict[tuple[int, int], int] = {}
    for i in range(800_000):
        key = (i % 613, i % 17)
        counts[key] = counts.get(key, 0) + i
    power = 1
    for i in range(1, 6000):
        power = power * 3 + i
    return total.numerator % 1_000_003 + len(counts) + power % 1_000_003


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
