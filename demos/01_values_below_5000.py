"""Print every integer below 5000 expressible as a sum of squares of
consecutive primes, then cross-check the list against the embedded
reference table.

Run:  python demos/01_values_below_5000.py
"""

from math import isqrt

from cpsq import (
    REFERENCE_VALUES,
    count_sums,
    find_representations,
    sieve_primes,
    values_up_to,
)

LIMIT = 5000

table = sieve_primes(isqrt(LIMIT))
values = values_up_to(LIMIT, table).tolist()

print(f"{len(values)} values below {LIMIT}:\n")
for row in range(0, len(values), 7):
    print("  " + "".join(f"{v:>7}" for v in values[row : row + 7]))

report = count_sums(LIMIT, table)
print(f"\ndistinct values:      {report.distinct_count}")
print(f"windows (with m, n):  {report.multiplicity_count}")
print(f"longest window:       {report.max_length_seen} primes "
      f"(4 + 9 + 25 + ... fits below {LIMIT})")
print("windows per length:   "
      + " ".join(f"{m}:{c}" for m, c in report.per_length.items()))

# every count agrees, so no value below 5000 has two representations;
# show the longest window explicitly
(longest,) = find_representations(
    table.square_prefix[report.max_length_seen], table
)
primes = table.primes[: longest.length]
print(f"\nS_{longest.length} = "
      + " + ".join(f"{int(p)}^2" for p in primes)
      + f" = {longest.value}")

assert values == list(REFERENCE_VALUES)
print(f"\nmatches the embedded reference table: yes ({len(values)} values)")
