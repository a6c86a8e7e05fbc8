"""Tour of the explicit bounds: how the counts actually grow against the
two-sided estimate

    2 sqrt(x)/ln x  <  pi(sqrt x)  <=  C(x)  <  10.9558 x^(2/3)/(ln x)^(4/3)

and what holds the upper bound up underneath (per-length caps, window
caps, and the three summation lemmas).

Run:  python demos/03_bounds_tour.py
"""

from math import isqrt

from cpsq import (
    analytic_max_window,
    check_length_count_bound,
    check_partial_sum,
    check_pyramid,
    check_weighted_square,
    count_sums,
    lower_bound,
    prime_count,
    serialize_report,
    sieve_primes,
    upper_bound,
)

table = sieve_primes(10**5)

print("growth of the counts against the theorem bounds")
print(f"{'x':>12} {'lower':>10} {'pi(sqrt x)':>10} {'distinct':>9} "
      f"{'windows':>9} {'upper':>12} {'used':>6}")
for e in range(3, 11):
    x = 10**e
    r = count_sums(x, table)
    lo, up = lower_bound(x), upper_bound(x)
    print(f"{x:>12} {lo:>10.1f} {prime_count(isqrt(x), table):>10} "
          f"{r.distinct_count:>9} {r.multiplicity_count:>9} {up:>12.1f} "
          f"{r.multiplicity_count / up:>6.1%}")

print("\nwindow-length caps (analytic formula vs the exact prefix-sum cap)")
for x in (100, 5000, 10**6, 10**9):
    cap = analytic_max_window(x)
    print(f"  x={x:<12} analytic M={cap.analytic_m:<5} exact M={cap.exact_m}")

print("\nper-length counting chain at x = 10^5 "
      "(count <= pi cap < Dusart majorant):")
chain = check_length_count_bound(10**5, table)  # one report per length
print(serialize_report([chain[m - 1] for m in (1, 2, 3, 5, 10)], "text"))

print("\nthe three summation lemmas at M = 10^4:")
lemmas = [
    check_partial_sum(10**4, 0.5),
    check_weighted_square(10**4),
    check_pyramid(10**4),
]
print(serialize_report(lemmas, "text"))
