"""Prefix sums past 2^64: lookups and caps on a table whose S_K wraps.

sieve_primes(10**7) ends at S_K ~ 2.07e19, past 2^64 ~ 1.84e19, so its
square_prefix wraps once; of the two synthetic MAX_LIMIT tables of the
walk tests below, one wraps twice and one at its last sum. Every answer
here is compared against exact Python-int prefix sums of the same primes.
"""

import copy
import pickle
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpsq import (
    PrimeTable,
    count_windows,
    find_representations,
    sieve_primes,
)
from cpsq.primes import MAX_LIMIT
from oracles import reference_walk


@pytest.fixture(scope="module")
def wrapped():
    table = sieve_primes(10**7)
    exact = [0, *accumulate(p * p for p in table.primes.tolist())]
    assert exact[-1] >= 1 << 64
    return table, exact


def last_start(exact, x, m):
    """Largest n with exact window (n, m) <= x, 0 when there is none."""
    lo, hi = 0, len(exact) - m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if exact[mid + m - 1] - exact[mid - 1] <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def exact_representations(exact, target):
    out = []
    m = 1
    while m < len(exact) and exact[m] <= target:
        n = last_start(exact, target, m)
        if exact[n + m - 1] - exact[n - 1] == target:
            out.append((n, m))
        m += 1
    return out


def test_find_windows_that_start_past_the_first_wrap(wrapped):
    table, exact = wrapped
    first_wrap = bisect_right(exact, (1 << 64) - 1)
    rng = random.Random(20210119)
    starts = rng.sample(range(first_wrap + 1, len(table) + 1), 20)
    for n in starts:
        target = exact[n] - exact[n - 1]  # a one-prime window: p_n^2 < 10^14
        reps = find_representations(target, table)
        assert (n, 1) in [(r.start_index, r.length) for r in reps]
        assert [(r.start_index, r.length) for r in reps] == exact_representations(
            exact, target
        )
        assert all(r.value == target for r in reps)


def test_count_windows_at_1e14(wrapped):
    table, exact = wrapped
    x = 10**14
    rng = random.Random(14)
    lengths = [1, 2, 3, *rng.sample(range(4, 20_000), 12)]
    counts = count_windows(x, table)
    assert len(counts) == bisect_right(exact, x) - 1  # S_m <= x < S_{m+1}
    for m in lengths:
        got = counts[m - 1] if m <= len(counts) else 0
        assert got == last_start(exact, x, m), f"m={m}"


@given(st.integers(min_value=1, max_value=10**14))
@example(10**14)
@example(10**14 - 1)
@settings(max_examples=40)
def test_count_windows_equals_the_sequential_walk_to_1e14(wrapped, x):
    table, _ = wrapped
    assert count_windows(x, table) == reference_walk(x, table)


def test_max_window_length_past_the_wrap(wrapped):
    table, exact = wrapped
    assert table.prefix_index(10**19) == 524136
    for x in (1 << 64, 2 * 10**19, exact[-2], exact[-2] - 1, exact[-1] - 1):
        assert table.prefix_index(x) == bisect_right(exact, x) - 1, x
    assert table.prefix_sum(len(table)) == exact[-1]


def test_count_windows_falls_back_to_the_walk():
    # not primes: PrimeTable never checks, and these squares put some
    # length-4 windows past 2^64 at starts below pi(sqrt(x / 4))
    values = [10**9, 11 * 10**8, 12 * 10**8, 3 * 10**9, 301 * 10**7, 302 * 10**7, 303 * 10**7]
    table = PrimeTable(MAX_LIMIT, np.array(values))
    exact = [0, *accumulate(v * v for v in values)]
    x = 9 * 10**18
    expected = [last_start(exact, x, m) for m in range(1, 8)]
    assert expected[3] == 0
    counts = count_windows(x, table)
    assert counts == expected[: len(counts)]
    assert not any(expected[len(counts) :])


def test_count_windows_ends_a_block_before_its_probes_wrap():
    # not primes: the walk at x goes in two blocks of two lengths, because
    # room // 3 = (2^64 - 1 - x) // 3 < 2.5e9^2 <= room // 2; one block
    # would probe the length-4 window from the 4th value, whose sum passes
    # 2^64 and wraps to 1.65e18 <= x
    values = [25 * 10**7, 61 * 10**7, 93 * 10**7, 189 * 10**7, 202 * 10**7, 249 * 10**7, 25 * 10**8]
    table = PrimeTable(MAX_LIMIT, np.array(values))
    exact = [0, *accumulate(v * v for v in values)]
    x = 5 * 10**18
    room = (1 << 64) - 1 - x
    assert room // 3 < values[-1] ** 2 <= room // 2
    assert exact[7] - exact[3] > 1 << 64 and exact[7] - exact[3] - (1 << 64) <= x
    expected = [last_start(exact, x, m) for m in range(1, 8)]
    assert expected == [5, 3, 2, 1, 0, 0, 0]
    assert count_windows(x, table) == expected[:4]


# the values of the two synthetic tables above: seven squares each, up to
# 9.2e18, whose sums pass 2^64 at S_5 and S_7, and at S_7 alone
SYNTHETIC = {
    "falls-back": [10**9, 11 * 10**8, 12 * 10**8, 3 * 10**9, 301 * 10**7, 302 * 10**7, 303 * 10**7],
    "block-ends": [25 * 10**7, 61 * 10**7, 93 * 10**7, 189 * 10**7, 202 * 10**7, 249 * 10**7, 25 * 10**8],
}


@pytest.mark.parametrize("name", ["sieve", *SYNTHETIC])
def test_the_wrap_index_answers_as_the_exact_sums(request, name):
    if name == "sieve":
        table, exact = request.getfixturevalue("wrapped")
    else:
        table = PrimeTable(MAX_LIMIT, np.array(SYNTHETIC[name]))
        exact = [0, *accumulate(v * v for v in SYNTHETIC[name])]
    size = len(exact) - 1
    wraps = [k for k in range(1, size + 1) if exact[k] >> 64 > exact[k - 1] >> 64]
    assert len(wraps) == {"sieve": 1, "falls-back": 2, "block-ends": 1}[name]
    near = sorted({k for w in wraps for k in range(w - 2, w + 3) if 0 <= k <= size})
    probes = {x for k in near for x in (exact[k] - 1, exact[k], exact[k] + 1) if x >= 0}
    probes |= {0, exact[-1], 10**30, *((1 << 64) * q for q in range(len(wraps) + 2))}
    duplicates = [pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)]
    for t in [table, *duplicates]:
        assert [t.prefix_sum(k) for k in near] == [exact[k] for k in near]
        for x in sorted(probes):
            assert t.prefix_index(x) == bisect_right(exact, x) - 1, x
        with pytest.raises(ValueError, match="x must be >= 0"):
            t.prefix_index(-1)
