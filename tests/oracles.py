"""Slow, independent reference implementations the tests trust.

Everything here is deliberately naive: trial division for primality, a
doubly nested loop over window starts for the enumeration. No sieve, no
prefix sums, no two-pointer tricks, so a bug in the package cannot hide
in its oracle.

The scalar bound checks get references of another kind: the plain first
forms of ``compare_strict``, ``check_dusart`` and ``check_rosser``, with
their keyword-built records, so that faster forms can be held to the same
arithmetic bit for bit. The two checks that sum (n ln n)^2 keep their
first forms too, each summing a fresh generator per series; the window
cap M(x) is this module's own copy of the closed form, S_M a sum of
squares over primes found by trial division, and the square pyramid a
direct sum. From the package this module takes record classes, verdict
strings and constants only.
"""

from __future__ import annotations

import json
import math
from math import fsum, isqrt, log

from cpsq.primes import DUSART_LOWER_MIN_N, DUSART_UPPER_FACTOR, DusartCheck
from cpsq.reports import FAIL, INCONCLUSIVE, PASS, BoundReport


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


#: the first primes, in order; first_primes extends it by trial division
_FIRST_PRIMES: list[int] = []


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes. Each is found once by trial division:
    the list is kept, and a later call that asks for more extends it."""
    n = _FIRST_PRIMES[-1] + 1 if _FIRST_PRIMES else 2
    while len(_FIRST_PRIMES) < count:
        if is_prime(n):
            _FIRST_PRIMES.append(n)
        n += 1
    return _FIRST_PRIMES[:count]


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


def reference_walk(x: int, table) -> list[int]:
    """c_m for m = 1, 2, ... until c_m = 0, one length at a time: each c_m
    gallops down from c_{m-1} over the table's prefix sums, then bisects.

    A probe (n, m) with n <= c_{m-1} is a window of value <= x plus one
    prime <= limit, below 2^64 for every x the table covers, so each
    uint64 difference is exact.
    """
    item = table.square_prefix.item
    k = len(table)

    def last_start(m: int, hi: int) -> int:
        def fits(n: int) -> bool:
            return (item(n + m - 1) - item(n - 1)) % (1 << 64) <= x

        lo, step = hi, 1
        while lo > 0 and not fits(lo):
            hi = lo - 1
            lo = max(hi - step, 0)
            step *= 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    counts: list[int] = []
    c = int(table.primes.searchsorted(isqrt(x), "right"))
    while c > 0:
        counts.append(c)
        m = len(counts) + 1
        c = last_start(m, min(c, k - m + 1))
    return counts


def printed_values(values: list[int], fmt: str) -> str:
    """A value list as one print per value (text; csv under a ``value``
    header) or one print of json.dumps (json)."""
    lines = "".join(f"{v}\n" for v in values)
    return {
        "text": lines,
        "csv": "value\n" + lines,
        "json": json.dumps(values) + "\n",
    }[fmt]


def reference_compare_strict(lhs: float, rhs: float) -> str:
    """``lhs < rhs`` with a margin of max(4 ulp, 1e-12 relative) of the
    larger operand, as two builtin max calls compute it."""
    lhs = float(lhs)
    rhs = float(rhs)
    scale = max(abs(lhs), abs(rhs))
    margin = max(4.0 * math.ulp(scale), 1e-12 * scale)
    if rhs - lhs > margin:
        return PASS
    if lhs - rhs > margin:
        return FAIL
    return INCONCLUSIVE


def reference_check_dusart(n: int, table) -> DusartCheck:
    """N/ln N < pi(N) < 1.2551 N/ln N at N = n, pi read off ``table``."""
    n = int(n)
    pi_n = int(table.primes.searchsorted(n, "right"))
    log_n = math.log(n)
    lower = n / log_n
    upper = DUSART_UPPER_FACTOR * n / log_n
    lower_applicable = n >= DUSART_LOWER_MIN_N
    passed = reference_compare_strict(pi_n, upper) == PASS and (
        not lower_applicable or reference_compare_strict(lower, pi_n) == PASS
    )
    return DusartCheck(
        n=n,
        lower_value=lower,
        pi_value=pi_n,
        upper_value=upper,
        lower_applicable=lower_applicable,
        passed=passed,
    )


def reference_check_rosser(n: int, table) -> BoundReport:
    """p_n > n ln n, p_n read off ``table``; ``n`` must be a Python int."""
    p_n = int(table.primes[n - 1])
    lhs = n * math.log(n)
    return BoundReport(
        label="rosser",
        x_or_m=n,
        lhs=lhs,
        rhs=float(p_n),
        observed=p_n,
        applicable=True,
        verdict=reference_compare_strict(lhs, float(p_n)),
    )


def reference_check_window_cap_substitution(x: int, table) -> BoundReport:
    """sum_{2<=n<=M(x)} (n ln n)^2 against x, the sum taken term by term.

    M(x) = floor(108^(1/3) x^(1/3) / (ln x)^(2/3)), in the package's float
    operations and order, so that the two agree bit for bit. ``table`` is
    taken for the package's signature and not read: S_M is summed over
    this module's own primes.
    """
    x = int(x)
    m_cap = math.floor(108 ** (1 / 3) * float(x) ** (1 / 3) / log(x) ** (2 / 3))
    substituted = fsum((n * log(n)) ** 2 for n in range(2, m_cap + 1))
    return BoundReport(
        label="window-cap-substitution",
        x_or_m=x,
        lhs=float(x),
        rhs=substituted,
        observed=sum(p * p for p in first_primes(m_cap)),
        applicable=True,
        verdict=reference_compare_strict(float(x), substituted),
    )


def reference_check_weighted_square(m_cap: int) -> BoundReport:
    """sum_{2<=n<=M} (n ln n)^2 >= M^3 (ln M)^2 / 12 for M >= 4, with the
    full sum and its tail from ceil(sqrt M) each summed on its own."""
    m_cap = int(m_cap)
    cut = math.isqrt(m_cap - 1) + 1
    log_m = log(m_cap)
    full = fsum((n * log(n)) ** 2 for n in range(2, m_cap + 1))
    tail = fsum((n * log(n)) ** 2 for n in range(cut, m_cap + 1))
    sq_tail = sum(n * n for n in range(cut, m_cap + 1))
    halved = (0.5 * log_m) ** 2 * sq_tail
    rhs = m_cap**3 * log_m**2 / 12.0
    links_hold = (
        reference_compare_strict(tail, full) != FAIL
        and reference_compare_strict(halved, tail) != FAIL
        and 3 * sq_tail >= m_cap**3
    )
    verdict = reference_compare_strict(rhs, full) if links_hold else FAIL
    return BoundReport(
        label="weighted-square",
        x_or_m=m_cap,
        lhs=rhs,
        rhs=full,
        observed=None,
        applicable=True,
        verdict=verdict,
    )
