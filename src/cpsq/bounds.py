"""Explicit bounds on the counting function and their supporting lemmas.

Writing C(x) for either count (distinct values or windows) of sums of
squares of consecutive primes up to x, the headline two-sided bound is

    2 sqrt(x) / ln x  <  pi(sqrt x)  <=  C(x)  <  10.9558 x^(2/3) / (ln x)^(4/3)

with the far left valid from x = 289 on and everything else for x > 1 (all
logarithms natural). The upper constant 10.9558 is the rounded form of
5.0204 * 108^(1/6) ~ 10.955754; both are evaluated so that the rounding
direction itself is under test.

Supporting checks, each exposed as an operation returning a BoundReport:

* per-length counting cap: the number of length-m windows below x is at
  most pi(sqrt(x/m)), which Dusart majorizes by 1.2551 sqrt(x/m) over
  (1/2) ln(x/m), i.e. 2.5102 sqrt(x/m)/ln(x/m); the enumerated count, the
  walk's and never capped, is checked against the pi cap in exact
  integers, and the pi cap against that majorant, which then bounds the
  count as well. Do not "simplify"
  the denominator to ln x: that variant is smaller for every m >= 2 and
  the enumerated count genuinely crosses it (first at x = 10^5, m = 3,
  where 40 windows stand against 39.81).
* window cap: lengths are capped analytically by
  M(x) = floor(108^(1/3) x^(1/3) (ln x)^(-2/3)); the exact cap is the
  largest m with S_m <= x, which ``PrimeTable.prefix_index`` reads off
  the prefix sums, never from the analytic formula. ``analytic_max_window``,
  behind ``cpsq maxlen``, sieves the table it reads.
* substitution check behind the cap: sum_{2<=n<=M} (n ln n)^2 should exceed
  x at M = M(x) (by Rosser, prime squares only grow faster); its verdict is
  recorded, not asserted. It reads S_M(x) from the table it is given,
  which ``full_verification``, behind ``cpsq verify``, sieves.
* partial sums: sum_{1<=m<=M} m^(-alpha) < (M^(1-alpha) - alpha)/(1 - alpha)
  for 0 < alpha < 1 and M >= 2 (equality at M = 1).
* weighted squares: sum_{2<=n<=M} (n ln n)^2 >= M^3 (ln M)^2 / 12 for
  M >= 4, via the sqrt(M) tail cutoff and the square-pyramid identity.
* reference values: the enumeration below 5000 equals the frozen list of
  91 values in ``reference``, exactly.

Every BoundReport here comes from ``reports.strict_report``, the one home
of the verdict rule: a verdict passed in wins (FAIL for a broken exact
link, or the verdict of an equality check), else a check outside its
range is INCONCLUSIVE, else the verdict is ``compare_strict(lhs, rhs)``.
"""

from __future__ import annotations

import math
import sys
from math import fsum, isqrt, log
from typing import NamedTuple, Sequence

from .errors import ResourceLimitError, brief
from .primes import (
    DUSART_LOWER_MIN_N,
    DUSART_UPPER_FACTOR,
    MAX_LIMIT,
    DusartCheck,
    PrimeTable,
    check_dusart,
    check_rosser,
    prime_count,
    sieve_primes,
)
from .reference import REFERENCE_LIMIT, REFERENCE_VALUES
from .reports import FAIL, PASS, BoundReport, compare_strict, strict_report
from .windows import count_sums, count_windows, values_up_to

#: the headline lower bound is 2 sqrt(x) / ln x, valid from here on
LOWER_MIN_X = 289

#: rounded upper constant as published, and its unrounded source
UPPER_COEFF = 10.9558
UPPER_COEFF_SHARP = 5.0204 * 108 ** (1 / 6)

#: per-length majorant constant, 2.5102
PER_LENGTH_COEFF = 2 * DUSART_UPPER_FACTOR

#: analytic window cap constant 108^(1/3)
CAP_COEFF = 108 ** (1 / 3)

#: labels whose verdict is recorded but intentionally not asserted anywhere
INFORMATIONAL_LABELS = frozenset({"window-cap-substitution"})


class WindowCap(NamedTuple):
    """Analytic and exact caps on the window length at threshold x.

    ``exact_m`` satisfies S_exact_m <= x < S_{exact_m + 1}, as
    ``PrimeTable.prefix_index(x)`` finds it; ``analytic_m`` is the
    closed-form cap.
    """

    x: int
    analytic_m: int
    exact_m: int


def lower_bound(x: int) -> float:
    """2 sqrt(x) / ln x for 1 < x <= the largest double (compare from 289 on)."""
    if not 1 < x <= sys.float_info.max:
        raise ValueError(f"lower bound needs 1 < x <= {sys.float_info.max:g}, got {brief(x)}")
    return 2.0 * math.sqrt(x) / log(x)


def upper_bound(x: int, *, sharp: bool = False) -> float:
    """c x^(2/3) / (ln x)^(4/3), c = 10.9558 or unrounded if sharp; 1 < x <= max double."""
    if not 1 < x <= sys.float_info.max:
        raise ValueError(f"upper bound needs 1 < x <= {sys.float_info.max:g}, got {brief(x)}")
    coeff = UPPER_COEFF_SHARP if sharp else UPPER_COEFF
    return coeff * float(x) ** (2 / 3) / log(x) ** (4 / 3)


def _window_cap(x: int) -> int:
    """M(x) = floor(108^(1/3) x^(1/3) (ln x)^(-2/3)) for 2 <= x <= MAX_LIMIT^3."""
    if x < 2:
        raise ValueError(f"window cap needs x >= 2, got {x}")
    if x > MAX_LIMIT**3:
        # L >= M ln M > x^(1/3) > MAX_LIMIT there, float(x) may overflow, and
        # once M ln L passes 2^53 the climb to L can stall in rounding
        raise ResourceLimitError(f"the window cap at x={brief(x)} needs primes past {MAX_LIMIT}")
    return math.floor(CAP_COEFF * float(x) ** (1 / 3) / log(x) ** (2 / 3))


def analytic_max_window(x: int) -> WindowCap:
    """Both window caps at x: closed-form M(x) and the exact S_m bracket.

    This entry point sieves its own table, four times larger each try until
    its last prefix sum passes x, so that a longer window always witnesses
    the bracket; the exact cap is that table's ``prefix_index(x)``. The
    first try is the least L >= 17 with L / ln L >= M(x), which holds M(x)
    primes by Dusart, so a huge x is refused before anything is allocated.
    Nothing downstream of the enumerator ever consumes ``analytic_m``; it
    exists to be checked.
    """
    x = int(x)
    need = _window_cap(x)
    # L <- ceil(M ln L) climbs from below to the least such L
    limit = DUSART_LOWER_MIN_N
    while limit / log(limit) < need:
        limit = math.ceil(need * log(limit))
    table = sieve_primes(limit)
    while table.prefix_sum(len(table)) <= x:
        limit *= 4
        table = sieve_primes(limit)
    return WindowCap(x=x, analytic_m=need, exact_m=table.prefix_index(x))


def check_length_count_bound(x: int, table: PrimeTable) -> list[BoundReport]:
    """Cap the count of length-m windows below x along the counting chain,
    one report for every length m the walk finds at x.

    Verified links: the walk's count c_m, which nothing caps, is at most
    pi(floor(sqrt(x/m))) in exact integers, and the pi cap stays strictly
    below the Dusart majorant 2.5102 sqrt(x/m)/ln(x/m). The first link
    carries the second over to c_m: both are integers below 2^53, so
    floats hold them exactly, and compare_strict's margin only grows with
    the larger operand, so c_m <= pi cap never gets a worse verdict against
    the majorant than the pi cap does. Each report carries the pi cap as
    lhs, the majorant as rhs, and c_m in ``observed``. Every such m has
    x >= S_m >= 4m > m, so ln(x/m) > 0.

    A seemingly harmless weakening replaces ln(x/m) by ln x in the
    denominator. The resulting quantity is not a majorant of the count
    (40 length-3 windows fit below 10^5 but 2.5102 sqrt(10^5/3)/ln(10^5)
    is 39.81), so nothing here evaluates it.
    """
    x = int(x)
    reports: list[BoundReport] = []
    for m, observed in enumerate(count_windows(x, table), 1):
        pi_cap = prime_count(isqrt(x // m), table)
        ratio = x / m
        majorant = PER_LENGTH_COEFF * math.sqrt(ratio) / log(ratio)
        reports.append(
            strict_report(
                f"length-count-bound[m={m}]", x, pi_cap, majorant, observed,
                verdict=FAIL if observed > pi_cap else None,
            )
        )
    return reports


def _weighted_square_terms(m_cap: int) -> list[float]:
    """The terms (n ln n)^2 for n = 2, ..., M, in that order."""
    return [(n * log(n)) ** 2 for n in range(2, m_cap + 1)]


def check_window_cap_substitution(x: int, table: PrimeTable) -> BoundReport:
    """Record whether sum_{2<=n<=M(x)} (n ln n)^2 exceeds x.

    This is the Rosser-side consequence that makes the analytic cap safe:
    since p_n > n ln n, the sum of the first M(x) prime squares S_M(x)
    (carried in ``observed``) exceeds the same threshold whenever the
    substituted sum does. It needs M(x) >= 4, which always holds: the real
    function under the floor has its minimum 5.84 at x = e^2, so M(x) >= 5
    for every x >= 2. The verdict is informational: consumers report it but
    do not gate on it.

    S_M(x) is read from ``table`` and nothing is sieved here, so a table of
    fewer than M(x) primes raises ValueError. ``full_verification``, behind
    ``cpsq verify``, sieves the table it passes, which holds M(x) primes at
    every grid point.
    """
    x = int(x)
    m_cap = _window_cap(x)
    substituted = fsum(_weighted_square_terms(m_cap))
    return strict_report("window-cap-substitution", x, x, substituted, table.prefix_sum(m_cap))


def check_partial_sum(m_cap: int, alpha: float) -> BoundReport:
    """sum_{1<=m<=M} m^(-alpha) < (M^(1-alpha) - alpha)/(1-alpha), M >= 2.

    The left side is a direct summation; the right is the closed form. At
    M = 1 the two sides coincide exactly, so the check is marked not
    applicable there rather than pretending a strict inequality.
    """
    m_cap = int(m_cap)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if m_cap < 1:
        raise ValueError(f"M must be >= 1, got {m_cap}")
    lhs = fsum(m ** -alpha for m in range(1, m_cap + 1))
    rhs = (m_cap ** (1.0 - alpha) - alpha) / (1.0 - alpha)
    return strict_report(f"partial-sum[alpha={alpha:g}]", m_cap, lhs, rhs, applicable=m_cap >= 2)


def check_weighted_square(m_cap: int) -> BoundReport:
    """sum_{2<=n<=M} (n ln n)^2 >= M^3 (ln M)^2 / 12 for M >= 4.

    The chain behind it: restricting the sum to n >= ceil(sqrt(M)) can only
    shrink it, which holds by construction, since the tail sums a subset of
    the same non-negative terms and fsum rounds each sum correctly; on that
    tail ln n >= ln(M)/2, so the tail dominates (ln(M)/2)^2 * sum n^2,
    which is checked; and the square-pyramid identity gives
    sum_{ceil(sqrt M)<=n<=M} n^2 >= M^3/3, checked in exact integers.
    M < 4 would put the cutoff below 2 and is rejected.
    """
    m_cap = int(m_cap)
    if m_cap < 4:
        raise ValueError(f"weighted-square bound needs M >= 4, got {m_cap}")
    cut = math.isqrt(m_cap - 1) + 1  # ceil(sqrt(M))
    log_m = log(m_cap)
    terms = _weighted_square_terms(m_cap)
    full = fsum(terms)
    tail = fsum(terms[cut - 2 :])  # terms[i] is the n = i + 2 term
    sq_tail = square_pyramid(m_cap) - square_pyramid(cut - 1)
    halved = (0.5 * log_m) ** 2 * sq_tail
    rhs = m_cap**3 * log_m**2 / 12.0
    links_hold = (
        compare_strict(halved, tail) != FAIL
        and 3 * sq_tail >= m_cap**3  # exact-integer form of halved >= rhs
    )
    return strict_report("weighted-square", m_cap, rhs, full, verdict=None if links_hold else FAIL)


def square_pyramid(m_cap: int) -> int:
    """1^2 + 2^2 + ... + M^2 = M(M+1)(2M+1)/6, exactly."""
    m_cap = int(m_cap)
    if m_cap < 0:
        raise ValueError(f"M must be >= 0, got {m_cap}")
    return m_cap * (m_cap + 1) * (2 * m_cap + 1) // 6


def check_pyramid(m_cap: int) -> BoundReport:
    """Exact-equality report: closed form against direct summation.

    One of the two labels, with "reference-values", whose verdict asserts
    lhs == rhs instead of lhs < rhs.
    """
    m_cap = int(m_cap)
    if m_cap < 1:
        raise ValueError(f"M must be >= 1, got {m_cap}")
    direct = sum(n * n for n in range(1, m_cap + 1))
    closed = square_pyramid(m_cap)
    return strict_report(
        "pyramid", m_cap, direct, closed, closed, verdict=PASS if direct == closed else FAIL
    )


def check_reference_values(table: PrimeTable) -> BoundReport:
    """Exact-equality report: the enumeration below REFERENCE_LIMIT against
    the frozen REFERENCE_VALUES.

    lhs is the expected count of values and rhs the computed one;
    ``observed`` is the number of leading values that agree, 91 when all
    do. The verdict passes only when the two lists are equal.
    """
    expected = REFERENCE_VALUES
    computed = tuple(values_up_to(REFERENCE_LIMIT, table).tolist())
    agree = next(
        (i for i, (e, c) in enumerate(zip(expected, computed)) if e != c),
        min(len(expected), len(computed)),
    )
    return strict_report(
        "reference-values", REFERENCE_LIMIT, len(expected), len(computed), agree,
        verdict=PASS if computed == expected else FAIL,
    )


def dusart_reports(check: DusartCheck) -> tuple[BoundReport, BoundReport]:
    """Split a DusartCheck into uniform lower/upper BoundReports."""
    n, pi_n = check.n, check.pi_value
    return (
        strict_report("dusart-lower", n, check.lower_value, pi_n, pi_n, check.lower_applicable),
        strict_report("dusart-upper", n, pi_n, check.upper_value, pi_n),
    )


def verify_count_bounds(
    x_values: list[int], table: PrimeTable
) -> list[BoundReport]:
    """Evaluate the headline bounds at each x, one report per inequality.

    Per x: the lower bound against pi(sqrt x) and against both counts
    (applicable from x >= 289), and both counts against the upper bound in
    its rounded and unrounded forms. The exact counts ride along in
    ``observed``.
    """
    reports: list[BoundReport] = []
    for x in x_values:
        x = int(x)
        counts = count_sums(x, table)
        pi_sqrt = prime_count(isqrt(x), table)
        low = lower_bound(x)
        uppers = (
            ("count-upper", upper_bound(x)),
            ("count-upper-sharp", upper_bound(x, sharp=True)),
        )
        found = (("distinct", counts.distinct_count), ("multiplicity", counts.multiplicity_count))
        for name, observed in (("pi-sqrt", pi_sqrt), *found):
            reports.append(
                strict_report(f"count-lower/{name}", x, low, observed, observed, x >= LOWER_MIN_X)
            )
        for name, observed in found:
            for tag, bound in uppers:
                reports.append(strict_report(f"{tag}/{name}", x, observed, bound, observed))
    return reports


DEFAULT_VERIFY_GRID = (289, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9)

_DUSART_POINTS = (2, 3, 4, 10, 16, 17, 18, 100, 10**3, 10**4, 10**5, 10**6)
_ROSSER_POINTS = (1, 2, 3, 4, 5, 10, 100, 10**3, 10**4, 10**5)
_PARTIAL_SUM_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
_PARTIAL_SUM_POINTS = (2, 4, 10, 100, 10**3, 10**4)
_WEIGHTED_POINTS = (4, 5, 10, 100, 10**3, 10**4)
_PYRAMID_POINTS = (1, 2, 3, 10, 100, 10**3)


def full_verification(grid: Sequence[int] | None = None) -> list[BoundReport]:
    """The whole battery: headline bounds on a grid plus every lemma check.

    Used by the CLI ``verify`` command. The grid defaults to 289 and the
    powers of ten from 1e3 to 1e9; per-length caps are checked for every
    length the walk finds at each grid point, up to the exact cap, the
    named lemmas run at representative evaluation points (their exhaustive
    sweeps live in the test suite, where the runtime budget is bigger), and
    the enumeration below 5000 is checked against its frozen list once.
    """
    xs = sorted(int(x) for x in (grid if grid else DEFAULT_VERIFY_GRID))
    # one table for the grid and the lemma points: 1.3e6 covers pi to 1e6
    # and p_n to n = 1e5
    table = sieve_primes(max(isqrt(xs[-1]), 1_300_000))
    reports = verify_count_bounds(xs, table)
    for x in xs:
        reports.extend(check_length_count_bound(x, table))
        reports.append(check_window_cap_substitution(x, table))
    for n_val in _DUSART_POINTS:
        reports.extend(dusart_reports(check_dusart(n_val, table)))
    for n_val in _ROSSER_POINTS:
        reports.append(check_rosser(n_val, table))
    for alpha in _PARTIAL_SUM_ALPHAS:
        for m_cap in _PARTIAL_SUM_POINTS:
            reports.append(check_partial_sum(m_cap, alpha))
    for m_cap in _WEIGHTED_POINTS:
        reports.append(check_weighted_square(m_cap))
    for m_cap in _PYRAMID_POINTS:
        reports.append(check_pyramid(m_cap))
    reports.append(check_reference_values(table))
    return reports
