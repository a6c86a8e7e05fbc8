"""Slow, independent reference implementations the tests trust.

Everything here is deliberately naive: trial division for primality, a
doubly nested loop over window starts for the enumeration. No sieve, no
prefix sums, no two-pointer tricks, so a bug in the package cannot hide
in its oracle.
"""

from __future__ import annotations

import json
from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_primes(limit: int) -> list[int]:
    """All primes <= limit, each certified by trial division."""
    return [n for n in range(2, limit + 1) if is_prime(n)]


def prime_count_naive(n: int) -> int:
    return len(trial_division_primes(n))


def oracle_windows(x: int) -> list[tuple[int, int, int]]:
    """Every (length, start, value) window of consecutive primes whose
    squares sum to at most x, sorted by (length, start).

    The prime list is generated with headroom past sqrt(x) (Bertrand puts
    a prime in (sqrt(x), 2 sqrt(x)]), so every run is terminated by an
    actual too-large prime rather than by exhausting the candidates.
    """
    if x < 4:
        return []
    primes = trial_division_primes(2 * isqrt(x) + 10)
    reps: list[tuple[int, int, int]] = []
    for start in range(len(primes)):
        total = 0
        for stop in range(start, len(primes)):
            total += primes[stop] * primes[stop]
            if total > x:
                break
            reps.append((stop - start + 1, start + 1, total))
    reps.sort()
    return reps


def oracle_distinct_values(x: int) -> list[int]:
    return sorted({value for _, _, value in oracle_windows(x)})


def printed_values(values: list[int], fmt: str) -> str:
    """A value list as one print per value (text; csv under a ``value``
    header) or one print of json.dumps (json)."""
    lines = "".join(f"{v}\n" for v in values)
    return {
        "text": lines,
        "csv": "value\n" + lines,
        "json": json.dumps(values) + "\n",
    }[fmt]
