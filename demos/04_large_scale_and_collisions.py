"""Counts up to 10^12 and the first repeated value.

Below 10^7 every representable integer has exactly one window, so the
distinct and multiplicity counts agree. Somewhere past that they split.
This script times the counting at each decade, then pins down the
smallest integer with two representations.

Run:  python demos/04_large_scale_and_collisions.py
"""

import time

from cpsq import (
    count_sums,
    enumerate_representations,
    find_representations,
    sieve_primes,
    upper_bound,
)

table = sieve_primes(10**6)  # covers x up to 10^12

print(f"{'x':>14} {'distinct':>9} {'windows':>9} {'repeats':>8} "
      f"{'vs upper':>9} {'seconds':>8}")
for e in range(7, 13):
    x = 10**e
    t0 = time.perf_counter()
    r = count_sums(x, table)
    dt = time.perf_counter() - t0
    repeats = r.multiplicity_count - r.distinct_count
    print(f"{x:>14} {r.distinct_count:>9} {r.multiplicity_count:>9} "
          f"{repeats:>8} {r.multiplicity_count / upper_bound(x):>9.1%} {dt:>8.2f}")

# hunt down the smallest repeated value (it lives below 10^8)
small = sieve_primes(10**4)
values = sorted(rep.value for rep in enumerate_representations(10**8, small))
first = min(a for a, b in zip(values, values[1:]) if a == b)

print(f"\nsmallest value with two representations: {first}")
for rep in find_representations(first, small):
    i = rep.start_index - 1
    run = small.primes[i : i + rep.length]
    print(f"  {rep.length:>3} primes: {int(run[0])}^2 + ... + {int(run[-1])}^2"
          f"  (p_{rep.start_index} through p_{rep.start_index + rep.length - 1})")
