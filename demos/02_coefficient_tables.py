# The coefficient table has a life of its own: one running-sum recurrence
# builds it without ever touching the expansion engine, and its slices
# land on classical combinatorial numbers.
#
# Run after installing the package:  python demos/02_coefficient_tables.py

from opow import (
    binomial,
    c_table_by_recurrence,
    c_table_from_expansions,
    stirling1_unsigned,
    stirling2,
)

K_MAX = 8

rec = c_table_by_recurrence(K_MAX)
ext = c_table_from_expansions(K_MAX)
print(f"recurrence route and extraction route agree on all {len(rec.entries)} "
      f"entries up to k = {K_MAX}:", rec.entries == ext.entries)

# The m = 1 column is a binomial coefficient in disguise.
print()
print("m = 1 column vs binomial(k+1, s+1):")
for k in range(1, 6):
    row = [rec.value(k + 1, s, 1, (0,) * (s - 1) + (1,)) for s in range(1, k + 1)]
    ref = [binomial(k + 1, s + 1) for s in range(1, k + 1)]
    print(f"  k+1={k + 1}: {row} == {ref}")

# The m = s corner is a second-kind Stirling number.
print()
print("m = s corner vs stirling2(k+1, k-s):")
for k in range(2, 7):
    row = [rec.value(k + 1, s + 1, s + 1, (s + 1,)) for s in range(1, k)]
    ref = [stirling2(k + 1, k - s) for s in range(1, k)]
    print(f"  k+1={k + 1}: {row} == {ref}")

# Summing a whole (k, s) slice gives unsigned first-kind Stirling numbers.
print()
print("slice sums vs stirling1_unsigned(k, k-s):")
for k in range(2, 7):
    sums = {}
    for (kk, s, _m, _alpha), v in rec.entries.items():
        if kk == k:
            sums[s] = sums.get(s, 0) + v
    row = [sums[s] for s in sorted(sums)]
    ref = [stirling1_unsigned(k, k - s) for s in sorted(sums)]
    print(f"  k={k}: {row} == {ref}")
