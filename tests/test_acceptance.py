"""Acceptance battery: nine criteria, one printed pass/fail line each.

Each test times itself against the stated budget; the verdict lines are
printed with capture suspended so they stay visible in a plain pytest run.
"""

import json
import random
import time
from collections import Counter
from math import isqrt, log

import numpy as np
import pytest

from cpsq import (
    REFERENCE_VALUES,
    analytic_max_window,
    check_dusart,
    check_partial_sum,
    check_pyramid,
    check_rosser,
    check_weighted_square,
    count_sums,
    count_windows,
    enumerate_representations,
    find_representations,
    lower_bound,
    prime_count,
    sieve_primes,
    square_pyramid,
    upper_bound,
    verify_count_bounds,
)
from cpsq.cli import main
from cpsq.reports import PASS
from oracles import oracle_windows

GRID = (289, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9)


@pytest.fixture()
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(
                f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
                flush=True,
            )

    return _announce


def test_criterion_1_reference_table_byte_exact(capsys, announce):
    t0 = time.perf_counter()
    code = main(["list", "5000"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    expected = "".join(f"{v}\n" for v in REFERENCE_VALUES)
    ok = code == 0 and out == expected and elapsed < 0.1
    announce(1, ok, f"91 values byte-exact in {elapsed * 1000:.1f} ms (budget 100 ms)")
    assert code == 0
    assert out == expected
    assert elapsed < 0.1


def test_criterion_2_named_representations(capsys, table_small, announce):
    reps_2020 = find_representations(2020, table_small)
    reps_2189 = find_representations(2189, table_small)

    def primes_of(rep):
        i = rep.start_index - 1
        return [int(p) for p in table_small.primes[i : i + rep.length]]

    ok = (
        len(reps_2020) == 1
        and primes_of(reps_2020[0]) == [17, 19, 23, 29]
        and len(reps_2189) == 1
        and primes_of(reps_2189[0]) == [13, 17, 19, 23, 29]
    )
    code = main(["find", "2020"])
    out_2020 = capsys.readouterr().out
    code2 = main(["find", "2189"])
    out_2189 = capsys.readouterr().out
    ok = (
        ok
        and code == 0
        and out_2020 == "2020 = 17^2 + 19^2 + 23^2 + 29^2\n"
        and code2 == 0
        and out_2189 == "2189 = 13^2 + 17^2 + 19^2 + 23^2 + 29^2\n"
    )
    announce(2, ok, "2020 and 2189 each have exactly one representation")
    assert ok


def test_criterion_3_oracle_equivalence_to_1e5(table_small, announce):
    """Two-pointer enumeration against the nested-loop oracle, x <= 10^5.

    Representation-for-representation list equality is checked at every
    x <= 5000, at every x where the output changes (each representable
    value v and v - 1), at the midpoints between consecutive values, at
    1500 seeded random thresholds, and at 10^5 itself; in between, the
    counting side (distinct, multiplicity, and every per-length count)
    is compared for every single x <= 10^5.
    """
    t0 = time.perf_counter()
    top = 10**5
    oracle = oracle_windows(top)

    def package_reps(x):
        return [
            (r.length, r.start_index, r.value)
            for r in enumerate_representations(x, table_small)
        ]

    assert package_reps(top) == oracle

    for x in range(1, 5001):
        expected = [t for t in oracle if t[2] <= x]
        assert package_reps(x) == expected, f"x={x}"

    values = sorted({v for _, _, v in oracle})
    checkpoints = set()
    for v in values:
        checkpoints.update((v - 1, v))
    for a, b in zip(values, values[1:]):
        checkpoints.add((a + b) // 2)
    rng = random.Random(8314)
    checkpoints.update(rng.randint(5001, top) for _ in range(1500))
    for x in sorted(c for c in checkpoints if 5000 < c <= top):
        expected = [t for t in oracle if t[2] <= x]
        assert package_reps(x) == expected, f"x={x}"

    xs = np.arange(top + 1)
    per_m = {}
    for m, _, v in oracle:
        per_m.setdefault(m, []).append(v)
    expected_counts = {
        m: np.searchsorted(np.array(vs), xs, side="right") for m, vs in per_m.items()
    }
    all_values = np.sort(np.array([v for _, _, v in oracle]))
    distinct_values = np.array(values)
    expected_mult = np.searchsorted(all_values, xs, side="right")
    expected_distinct = np.searchsorted(distinct_values, xs, side="right")
    for x in range(1, top + 1):
        report = count_sums(x, table_small)
        assert report.multiplicity_count == expected_mult[x], f"x={x}"
        assert report.distinct_count == expected_distinct[x], f"x={x}"
        for m, arr in expected_counts.items():
            assert report.per_length.get(m, 0) == arr[x], f"x={x} m={m}"

    elapsed = time.perf_counter() - t0
    announce(
        3,
        elapsed < 30,
        f"{len(oracle)} oracle windows; lists at ~8.5k thresholds, "
        f"counts at all 10^5, in {elapsed:.1f} s (budget 30 s)",
    )
    assert elapsed < 30


def test_criterion_4_theorem_grid(table_big, announce):
    t0 = time.perf_counter()
    reports = verify_count_bounds(list(GRID), table_big)
    elapsed = time.perf_counter() - t0
    applicable = [r for r in reports if r.applicable]
    bad = [r for r in applicable if r.verdict != PASS]
    lower_labels = [r for r in applicable if r.label.startswith("count-lower")]
    ok = not bad and len(lower_labels) == 3 * len(GRID) and elapsed < 60
    announce(
        4,
        ok,
        f"{len(applicable)} strict inequalities on the 8-point grid "
        f"in {elapsed:.2f} s (budget 60 s)",
    )
    assert bad == []
    assert len(lower_labels) == 3 * len(GRID)  # x >= 289 everywhere on the grid
    assert elapsed < 60


def test_criterion_5_scp1_identity(table_small, announce):
    rng = random.Random(55001)
    xs = [rng.randint(1, 10**8) for _ in range(200)]
    mismatches = [
        x
        for x in xs
        if count_sums(x, table_small).per_length[1]
        != prime_count(isqrt(x), table_small)
    ]
    announce(5, not mismatches, "per_length[1] = pi(isqrt(x)) on 200 random x <= 1e8")
    assert mismatches == []


def test_criterion_6_explicit_prime_bounds(table_big, announce):
    t0 = time.perf_counter()
    dusart_failures = [
        n for n in range(2, 10**6 + 1) if not check_dusart(n, table_big).passed
    ]
    rosser_table = sieve_primes(1_300_000)  # holds p_n for n up to 10^5
    rosser_failures = [
        n
        for n in range(1, 10**5 + 1)
        if check_rosser(n, rosser_table).verdict != PASS
    ]
    elapsed = time.perf_counter() - t0
    ok = not dusart_failures and not rosser_failures and elapsed < 10
    announce(
        6,
        ok,
        f"Dusart at every N <= 1e6, Rosser at every n <= 1e5, "
        f"in {elapsed:.1f} s (budget 10 s)",
    )
    assert dusart_failures == []
    assert rosser_failures == []
    assert elapsed < 10


def test_criterion_7_lemma_suite(announce):
    """Each lemma inequality at every M in its stated range.

    The sweeps accumulate the sums incrementally (evaluating the checking
    operations at every M would redo O(M) work each and blow the budget);
    the operations themselves are then spot-called across each range to
    tie their verdicts to the swept inequality.
    """
    from cpsq.reports import compare_strict

    t0 = time.perf_counter()
    failures = []

    alphas = (0.1, 0.25, 0.5, 0.75, 0.9)
    for alpha in alphas:
        running = 1.0
        for m_cap in range(2, 10**4 + 1):
            running += m_cap**-alpha
            rhs = (m_cap ** (1.0 - alpha) - alpha) / (1.0 - alpha)
            if compare_strict(running, rhs) != PASS:
                failures.append(("partial-sum", alpha, m_cap))

    running = (2.0 * log(2.0)) ** 2  # the n = 2 term of sum (n ln n)^2
    for n in range(3, 10**4 + 1):
        running += (n * log(n)) ** 2
        if n >= 4:
            rhs = n**3 * log(n) ** 2 / 12.0
            if compare_strict(rhs, running) != PASS:
                failures.append(("weighted-square", n))

    direct = 0
    for m_cap in range(1, 10**4 + 1):
        direct += m_cap * m_cap
        if direct != square_pyramid(m_cap):
            failures.append(("pyramid", m_cap))

    spots = (2, 3, 4, 5, 17, 100, 999, 5000, 10**4)
    for m_cap in spots:
        for alpha in alphas:
            if check_partial_sum(m_cap, alpha).verdict != PASS:
                failures.append(("partial-sum-op", alpha, m_cap))
        if m_cap >= 4 and check_weighted_square(m_cap).verdict != PASS:
            failures.append(("weighted-square-op", m_cap))
        if check_pyramid(m_cap).verdict != PASS:
            failures.append(("pyramid-op", m_cap))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5
    announce(
        7,
        ok,
        f"partial sums (5 alphas), weighted squares, pyramid identity "
        f"at every M <= 1e4, in {elapsed:.2f} s (budget 5 s)",
    )
    assert failures == []
    assert elapsed < 5


def test_criterion_8_decomposition(table_big, announce):
    oracle = oracle_windows(GRID[-1])
    for x in GRID:
        per_length = Counter(m for m, _, value in oracle if value <= x)
        expected = [per_length[m] for m in range(1, len(per_length) + 1)]
        assert count_windows(x, table_big) == expected, f"x={x}"
        report = count_sums(x, table_big)
        assert report.multiplicity_count == sum(expected), f"x={x}"
        exact_m = analytic_max_window(x, table_big).exact_m
        assert report.max_length_seen == exact_m == len(expected), f"x={x}"
    announce(
        8,
        True,
        "per-length counts = the oracle's, multiplicity = their sum, "
        "cap = exact_M, on the grid",
    )


def test_criterion_9_count_at_1e12(capsys, announce):
    t0 = time.perf_counter()
    code = main(["count", "10^12", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    (data,) = json.loads(out)
    distinct = data["distinct_count"]
    mult = data["multiplicity_count"]
    cap = upper_bound(10**12)
    ok = (
        code == 0
        and elapsed < 10
        and distinct <= mult < cap
        and mult < upper_bound(10**12, sharp=True)
        and lower_bound(10**12) < distinct
    )
    announce(
        9,
        ok,
        f"count 10^12 -> {mult} windows ({distinct} distinct) < {cap:.0f} "
        f"in {elapsed:.1f} s (budget 10 s)",
    )
    assert code == 0
    assert distinct <= mult < cap
    assert elapsed < 10
