"""Window enumeration, counting under both semantics, and exact lookups."""

import io
import sys
import threading
import tracemalloc
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cpsq.cli
import cpsq.windows
from cpsq import (
    REFERENCE_VALUES,
    Representation,
    ResourceLimitError,
    analytic_max_window,
    count_sums,
    count_windows,
    enumerate_representations,
    find_representations,
    prime_count,
    sieve_primes,
    values_up_to,
)
from cpsq.serialize import FORMATS, VALUE_CHUNK, write_values
from oracles import oracle_distinct_values, oracle_windows, reference_walk


def as_tuples(reps):
    return [(r.length, r.start_index, r.value) for r in reps]


def test_enumerate_x_50_exact(table_small):
    got = as_tuples(enumerate_representations(50, table_small))
    assert got == [
        (1, 1, 4),
        (1, 2, 9),
        (1, 3, 25),
        (1, 4, 49),
        (2, 1, 13),
        (2, 2, 34),
        (3, 1, 38),
    ]


def test_values_up_to_100(table_small):
    assert values_up_to(100, table_small).tolist() == [4, 9, 13, 25, 34, 38, 49, 74, 83, 87]


def test_values_up_to_is_a_read_only_uint64_array(table_small):
    values = values_up_to(5000, table_small)
    assert values.dtype == np.uint64
    assert not values.flags.writeable
    assert values_up_to(3, table_small).dtype == np.uint64


def test_values_below_4_are_empty(table_small):
    assert values_up_to(1, table_small).tolist() == []
    assert values_up_to(3, table_small).tolist() == []
    with pytest.raises(ValueError):
        values_up_to(0, table_small)


def test_count_windows_examples(table_small):
    assert count_windows(50, table_small) == [4, 2, 1]  # S_4 = 87 > 50
    assert count_windows(2397, table_small)[9:] == [1]  # S_10 itself
    assert count_windows(3, table_small) == []
    with pytest.raises(ValueError):
        count_windows(0, table_small)


def test_count_sums_at_5000(table_small):
    report = count_sums(5000, table_small)
    assert report.distinct_count == 91
    assert report.multiplicity_count == 91  # no value collides below 5000
    assert report.max_length_seen == 12
    assert report.per_length[1] == prime_count(isqrt(5000), table_small)
    assert sum(report.per_length.values()) == 91


def test_count_sums_below_first_value(table_small):
    report = count_sums(3, table_small)
    assert report.distinct_count == 0
    assert report.multiplicity_count == 0
    assert report.per_length == {1: 0}
    assert report.max_length_seen == 0


@pytest.mark.parametrize("x", [1, 3, 4, 50, 5000, 12345, 10**6, 10**8])
def test_multiplicity_count_matches_count_sums(x, table_small):
    expected = count_sums(x, table_small).multiplicity_count
    assert sum(count_windows(x, table_small)) == expected


def test_dedup_refuses_past_the_byte_ceiling(table_small, monkeypatch):
    windows = count_sums(10**6, table_small).multiplicity_count
    lengths = len(count_windows(10**6, table_small))
    # 9 bytes a window and 40 a length to count and to list; both refused
    # before allocating
    estimate = 9 * windows + 40 * lengths
    monkeypatch.setattr(cpsq.windows, "MAX_DEDUP_BYTES", estimate - 1)
    with pytest.raises(ResourceLimitError, match=f"{windows} window values"):
        count_sums(10**6, table_small)
    with pytest.raises(ResourceLimitError, match=f"{estimate} bytes"):
        values_up_to(10**6, table_small)
    assert sum(count_windows(10**6, table_small)) == windows
    monkeypatch.setattr(cpsq.windows, "MAX_DEDUP_BYTES", estimate)
    report = count_sums(10**6, table_small)
    assert report.multiplicity_count == windows
    assert values_up_to(10**6, table_small).size == report.distinct_count


def test_find_named_targets(table_small):
    assert find_representations(2020, table_small) == [Representation(7, 4, 2020)]
    assert find_representations(2189, table_small) == [Representation(6, 5, 2189)]
    assert find_representations(6, table_small) == []
    assert find_representations(4, table_small) == [Representation(1, 1, 4)]


def test_find_resolves_to_real_primes(table_small):
    (rep,) = find_representations(2020, table_small)
    run = table_small.primes[rep.start_index - 1 : rep.start_index - 1 + rep.length]
    assert list(run) == [17, 19, 23, 29]
    assert sum(int(p) ** 2 for p in run) == 2020


@given(st.integers(min_value=1, max_value=10**12))
@example(10**12)
@example(10**12 - 1)
def test_count_windows_equals_the_sequential_walk(table_big, x):
    assert count_windows(x, table_big) == reference_walk(x, table_big)


def test_max_window_length(table_small):
    # S_3 = 38 <= 50 < S_4 = 87; 2397 is S_10 exactly
    for x, m in [(50, 3), (5000, 12), (2397, 10), (4, 1), (3, 0)]:
        assert table_small.prefix_index(x) == m, x
        assert analytic_max_window(x).exact_m == m, x


def test_coverage_guard_names_the_needed_limit():
    tiny = sieve_primes(5)
    with pytest.raises(ValueError, match="sieve to at least 10"):
        count_sums(100, tiny)
    with pytest.raises(ValueError, match="sieve to at least 10"):
        list(enumerate_representations(100, tiny))


def test_reference_table_is_reproduced(table_small):
    assert values_up_to(5000, table_small).tolist() == list(REFERENCE_VALUES)


# ---------------------------------------------------------------------------
# oracle equivalence at fixed points (the exhaustive sweep is an acceptance
# test; these keep the unit suite fast but honest)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [1, 3, 4, 5, 9, 13, 49, 50, 100, 1000, 2397, 4999, 5000, 12345])
def test_enumeration_matches_oracle(x, table_small):
    assert as_tuples(enumerate_representations(x, table_small)) == oracle_windows(x)


@pytest.mark.parametrize("x", [4, 13, 50, 100, 5000, 12345])
def test_distinct_values_match_oracle(x, table_small):
    assert values_up_to(x, table_small).tolist() == oracle_distinct_values(x)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=10**6))
def test_count_report_internal_consistency(table_small, x):
    report = count_sums(x, table_small)
    assert report.distinct_count <= report.multiplicity_count
    assert sum(report.per_length.values()) == report.multiplicity_count
    assert report.per_length[1] == prime_count(isqrt(x), table_small)
    counts = [report.per_length[m] for m in sorted(report.per_length)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))  # longer is rarer
    if report.max_length_seen:
        assert report.max_length_seen == max(report.per_length)
        assert report.max_length_seen == table_small.prefix_index(x)


@given(st.integers(min_value=1, max_value=50_000))
@settings(max_examples=50)
def test_every_enumerated_window_re_verifies(table_small, x):
    seen = []
    for rep in enumerate_representations(x, table_small):
        i = rep.start_index - 1
        run = table_small.primes[i : i + rep.length]
        assert len(run) == rep.length
        assert sum(int(p) ** 2 for p in run) == rep.value
        assert rep.value <= x
        seen.append((rep.length, rep.start_index))
    assert seen == sorted(set(seen))  # canonical (length, start) order, no dupes


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=50)
def test_values_are_sorted_distinct_and_findable(table_small, x):
    values = values_up_to(x, table_small).tolist()
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values == sorted({r.value for r in enumerate_representations(x, table_small)})
    report = count_sums(x, table_small)
    assert len(values) == report.distinct_count
    for v in values[:3] + values[-3:]:
        reps = find_representations(v, table_small)
        assert reps and all(r.value == v for r in reps)


@given(st.integers(min_value=1, max_value=40_000))
@settings(max_examples=40)
def test_counts_match_oracle(table_small, x):
    oracle = oracle_windows(x)
    report = count_sums(x, table_small)
    assert report.multiplicity_count == len(oracle)
    assert report.distinct_count == len({v for _, _, v in oracle})


@given(st.integers(min_value=4, max_value=10**6))
@settings(max_examples=50)
def test_monotone_in_x(table_small, x):
    lo = count_sums(x - 1, table_small)
    hi = count_sums(x, table_small)
    assert lo.distinct_count <= hi.distinct_count
    assert lo.multiplicity_count <= hi.multiplicity_count
    gained = hi.multiplicity_count - lo.multiplicity_count
    assert gained == len(find_representations(x, table_small))


# ---------------------------------------------------------------------------
# the dedup split by residue class mod 24 (SPLIT_WINDOWS patched low, so that
# small x take the split path)
# ---------------------------------------------------------------------------

def test_windows_past_the_second_prime_have_value_equal_to_length_mod_24(table_big):
    checked = 0
    for rep in enumerate_representations(10**9, table_big):
        if rep.start_index >= 3:
            assert rep.value % 24 == rep.length % 24
            checked += 1
    assert checked > 10**5


@pytest.mark.parametrize("split", [1, 2, 3])
def test_split_counts_match_oracle(table_small, split, monkeypatch):
    # at 4, 13 and 100 the windows from 2 and 3 are alone in their classes;
    # x = 4 has one window and x = 13 three, so from split 2 on the one at 4
    # is deduped in one piece and those at 13 by class; S_24 = 56,387, so
    # only 10^5 has windows of length 24, which fill class 0
    monkeypatch.setattr(cpsq.windows, "SPLIT_WINDOWS", split)
    for x in (1, 3, 4, 13, 100, 5000, 10**5):
        report = count_sums(x, table_small)
        assert report.distinct_count == len(oracle_distinct_values(x))
        assert report.multiplicity_count == len(oracle_windows(x))


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_split_distinct_count_matches_oracle(table_small, x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpsq.windows, "SPLIT_WINDOWS", 1)
        assert count_sums(x, table_small).distinct_count == len(oracle_distinct_values(x))


def test_each_class_holds_the_windows_of_its_residue(table_small, monkeypatch):
    # no value repeats below 10^6, so only the classes themselves show a
    # window placed in the wrong one
    real = cpsq.windows._sort
    classes = []

    def recording(values):
        classes.append(values.tolist())
        return real(values)

    monkeypatch.setattr(cpsq.windows, "SPLIT_WINDOWS", 1)
    monkeypatch.setattr(cpsq.windows, "_sort", recording)
    count_sums(10**6, table_small)
    assert len(classes) == 24
    for r, values in enumerate(classes):
        assert all(v % 24 == r for v in values)
    windows = sorted(rep.value for rep in enumerate_representations(10**6, table_small))
    assert sorted(v for values in classes for v in values) == windows


def test_an_error_in_one_class_reaches_the_caller(table_small, monkeypatch):
    real = cpsq.windows._sort
    sorted_classes = []

    def failing(values):
        sorted_classes.append({v % 24 for v in values.tolist()})
        if len(sorted_classes) == 6:
            raise MemoryError("class 5")
        return real(values)

    monkeypatch.setattr(cpsq.windows, "SPLIT_WINDOWS", 1)
    monkeypatch.setattr(cpsq.windows, "_sort", failing)
    with pytest.raises(MemoryError, match="class 5"):
        count_sums(10**6, table_small)
    # no class is sorted after the one that failed
    assert sorted_classes == [{r} for r in range(6)]


def test_split_counts_at_1e12_and_1e13(table_big):
    assert cpsq.windows.SPLIT_WINDOWS < 8_867_094  # both take the split path
    report = count_sums(10**12, table_big)
    assert (report.distinct_count, report.multiplicity_count) == (8_867_054, 8_867_094)
    report = count_sums(10**13, sieve_primes(isqrt(10**13)))
    assert (report.distinct_count, report.multiplicity_count) == (37_153_148, 37_153_225)


def test_every_repeat_at_1e12_is_re_derived_in_exact_integers(table_big):
    # the repeats _sort finds, one per repeated value, each found again as
    # at least two windows whose prime squares sum to it in Python ints; the
    # windows past the first add up to the count's repeats, so a dedup that
    # invents a repeat, or a class split that loses one, fails
    x = 10**12
    values = cpsq.windows._window_values(count_windows(x, table_big), table_big)
    repeated = np.unique(values[cpsq.windows._sort(values)]).tolist()
    primes = table_big.primes.tolist()
    extra = 0
    for v in repeated:
        reps = find_representations(v, table_big)
        assert len(reps) >= 2, v
        for rep in reps:
            window = primes[rep.start_index - 1 : rep.start_index - 1 + rep.length]
            assert len(window) == rep.length and sum(p * p for p in window) == v
        extra += len(reps) - 1
    report = count_sums(x, table_big)
    assert extra == report.multiplicity_count - report.distinct_count == 40


def test_nothing_starts_a_thread(table_big, monkeypatch, tmp_path):
    def refused(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refused)
    assert cpsq.windows.SPLIT_WINDOWS < 8_867_094  # the class split
    assert count_sums(10**12, table_big).distinct_count == 8_867_054
    values = values_up_to(10**10, table_big)
    assert values.size > 4 * VALUE_CHUNK
    for fmt in FORMATS:
        write_values(values, fmt, io.BytesIO())
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert cpsq.cli.main(["list", "99000000000"]) == 0


def test_split_refuses_on_the_classes_held_at_once(table_small, monkeypatch):
    sizes = [0] * 24
    heads = 0
    lengths = 0
    for rep in enumerate_representations(10**6, table_small):
        sizes[rep.value % 24] += 1
        heads += rep.start_index <= 2
        lengths = max(lengths, rep.length)
    windows = sum(sizes)
    distinct = len(oracle_distinct_values(10**6))
    # 9 bytes a window of the largest class, the one held at once, 32 a
    # head and 40 a length
    estimate = 9 * max(sizes) + 32 * heads + 40 * lengths
    assert estimate < 9 * windows + 40 * lengths
    monkeypatch.setattr(cpsq.windows, "SPLIT_WINDOWS", 1)
    monkeypatch.setattr(cpsq.windows, "MAX_DEDUP_BYTES", estimate)
    report = count_sums(10**6, table_small)
    assert (report.distinct_count, report.multiplicity_count) == (distinct, windows)
    monkeypatch.setattr(cpsq.windows, "MAX_DEDUP_BYTES", estimate - 1)
    with pytest.raises(ResourceLimitError, match=f"{windows} window values .* {estimate} bytes"):
        count_sums(10**6, table_small)


# ---------------------------------------------------------------------------
# the dedup past the first repeated value: every window value below
# 14,720,439 is distinct, so only past it can a dedup that splits equal
# values apart miss the distinct count
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_to_1e9():
    """Every window value <= 10^9 from the naive oracle, sorted, and the
    distinct ones (126,689 windows, 6 values reached twice)."""
    values = np.array(sorted(v for _, _, v in oracle_windows(10**9)), dtype=np.uint64)
    return values, np.unique(values)


def assert_dedup_matches_oracle(x, table, oracle):
    values, distinct = oracle
    k = int(np.searchsorted(distinct, x, side="right"))
    windows = int(np.searchsorted(values, x, side="right"))
    assert windows < cpsq.windows.SPLIT_WINDOWS  # one piece unless patched
    report = count_sums(x, table)
    assert (report.distinct_count, report.multiplicity_count) == (k, windows)
    assert np.array_equal(values_up_to(x, table), distinct[:k])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpsq.windows, "SPLIT_WINDOWS", 1)
        report = count_sums(x, table)
    assert (report.distinct_count, report.multiplicity_count) == (k, windows)
    return windows - k


def test_dedup_at_every_repeated_value(table_big, oracle_to_1e9):
    values = oracle_to_1e9[0]
    repeated = values[1:][values[1:] == values[:-1]].tolist()
    assert repeated[0] == 14_720_439 and len(repeated) == 6
    for seen, v in enumerate(repeated):
        assert assert_dedup_matches_oracle(v - 1, table_big, oracle_to_1e9) == seen
        assert assert_dedup_matches_oracle(v, table_big, oracle_to_1e9) == seen + 1


@given(st.integers(min_value=15 * 10**6, max_value=10**9))
@settings(max_examples=40)
def test_dedup_past_the_first_repeat_matches_oracle(table_big, oracle_to_1e9, x):
    assert assert_dedup_matches_oracle(x, table_big, oracle_to_1e9) >= 1


# ---------------------------------------------------------------------------
# values_up_to: one sort of its whole value buffer, then the repeats closed
# up in place
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_banded_values_at_every_repeated_value(table_big, oracle_to_1e9, k, monkeypatch):
    # SPLIT_WINDOWS at the windows up to the k-th repeated value: count_sums
    # dedups in one piece just below it and by class at it, and values_up_to
    # sorts in one piece whatever it says
    values, distinct = oracle_to_1e9
    repeated = values[1:][values[1:] == values[:-1]].tolist()
    split = int(np.searchsorted(values, repeated[k - 1], side="right"))
    monkeypatch.setattr(cpsq.windows, "SPLIT_WINDOWS", split)
    for v in repeated:
        for x in (v - 1, v):
            got = values_up_to(x, table_big)
            assert np.array_equal(got, distinct[: np.searchsorted(distinct, x, side="right")])
            assert not got.flags.writeable
            assert count_sums(x, table_big).distinct_count == got.size


@given(st.integers(min_value=15 * 10**6, max_value=10**9))
@settings(max_examples=40)
def test_values_up_to_past_the_first_repeat_matches_oracle(table_big, oracle_to_1e9, x):
    values, distinct = oracle_to_1e9
    got = values_up_to(x, table_big)
    assert np.array_equal(got, distinct[: np.searchsorted(distinct, x, side="right")])


def traced_peak(call):
    """Bytes ``call`` allocates at its peak, by tracemalloc (which numpy
    reports its buffers to), and what it returns."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def test_values_up_to_keeps_to_9_bytes_a_window_on_one_thread(table_big):
    for x in (10**10, 5 * 10**10, 10**11):
        report = count_sums(x, table_big)
        windows = report.multiplicity_count
        # the guard's estimate: 9 bytes a window, 40 a length for the walk's counts
        estimate = 9 * windows + 40 * report.max_length_seen
        peak, values = traced_peak(lambda: values_up_to(x, table_big))
        assert peak <= estimate <= 1.25 * peak, (x, peak, estimate)
        assert values.size == report.distinct_count
    # one piece even past the windows at which count_sums splits
    assert windows > cpsq.windows.SPLIT_WINDOWS


def test_count_sums_in_one_piece_keeps_to_9_bytes_a_window(table_big):
    for x in (10**9, 10**10):
        counts = count_windows(x, table_big)
        windows = sum(counts)
        assert windows < cpsq.windows.SPLIT_WINDOWS  # one piece
        # the guard's estimate: 9 bytes a window, 40 a length for the walk's counts
        estimate = 9 * windows + 40 * len(counts)
        peak, report = traced_peak(lambda: count_sums(x, table_big))
        assert report.multiplicity_count == windows
        assert peak <= estimate <= 1.25 * peak, (x, peak, estimate)


def test_count_sums_holds_one_class_at_a_time():
    for x, distinct in ((5 * 10**10, 1_391_118), (10**12, 8_867_054), (10**13, 37_153_148)):
        table = sieve_primes(isqrt(x))
        counts = count_windows(x, table)
        sp = table.square_prefix.tolist()  # every value here is below 2^64
        # the windows from p_1 = 2 and p_2 = 3 go to the class of their
        # value, the rest of length m to class m mod 24
        heads = [sp[m] for m in range(1, len(counts) + 1)]
        heads += [sp[m + 1] - sp[1] for m, c in enumerate(counts, 1) if c >= 2]
        sizes = Counter(v % 24 for v in heads)
        for m, c in enumerate(counts, 1):
            sizes[m % 24] += max(c - 2, 0)
        assert sum(sizes.values()) == sum(counts) > cpsq.windows.SPLIT_WINDOWS
        # the guard's estimate: 9 bytes a window of the largest class, 32 a
        # head, 40 a length for the walk's counts
        estimate = 9 * max(sizes.values()) + 32 * len(heads) + 40 * len(counts)
        peak, report = traced_peak(lambda: count_sums(x, table))
        assert report.distinct_count == distinct
        assert peak <= estimate <= 1.25 * peak, (x, peak, estimate)


# ---------------------------------------------------------------------------
# the dedup sort: uint64 values sorted as doubles, checked as integers
# ---------------------------------------------------------------------------

# finite non-negative doubles order as their bit patterns do; from
# 0x7FF0000000000000 come inf and the NaNs, and past 2^63 the sign bit
# reverses the order
uint64_draws = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=2**62, max_value=2**63 - 1),
    st.integers(min_value=0x7FF0000000000000, max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=100),
)


@given(st.lists(uint64_draws, max_size=200))
@example([0, 0x7FF0000000000001])  # a NaN the float sort would rewrite
@example([2**63, 1, 0])
@example([])
@example([7])
@example([5, 3, 5, 5, 0x7FF0000000000001, 0x7FF0000000000001])
@settings(max_examples=300)
def test_dedup_sort_is_the_integer_order(values):
    got = np.array(values, dtype=np.uint64)
    repeats = cpsq.windows._sort(got)
    expected = np.sort(np.array(values, dtype=np.uint64))
    assert np.array_equal(got, expected)
    assert np.array_equal(repeats, np.flatnonzero(np.diff(expected) == 0) + 1)


def test_dedup_sort_mends_a_float_order_that_is_not_the_integer_order(monkeypatch):
    def reversed_order(values):
        values.sort()
        values[:] = values[::-1].copy()

    monkeypatch.setattr(cpsq.windows, "_sort_as_doubles", reversed_order)
    values = np.random.default_rng(5).integers(0, 2**52, 1000, dtype=np.uint64)
    expected = np.sort(values)
    cpsq.windows._sort(values)
    assert np.array_equal(values, expected)


def test_dedup_sort_finds_the_repeats_after_mending_a_float_order(monkeypatch):
    # the float order steps down from 7 to 2 between two repeats (7, 7 and
    # 3, 3): taking every value at most the one before it for a repeat
    # gives [2, 3, 5], where the integer order has its repeats at [3, 5]
    def with_a_step_down(values):
        values[:] = [1, 7, 7, 2, 3, 3]

    monkeypatch.setattr(cpsq.windows, "_sort_as_doubles", with_a_step_down)
    values = np.array([3, 7, 2, 3, 1, 7], dtype=np.uint64)
    repeats = cpsq.windows._sort(values)
    assert values.tolist() == [1, 2, 3, 3, 7, 7]
    assert repeats.tolist() == [3, 5]


def test_dedup_sort_skips_doubles_where_denormals_compare_as_zero(monkeypatch):
    def refused(values):
        raise AssertionError("sorted as doubles")

    monkeypatch.setattr(cpsq.windows, "_sort_as_doubles", refused)
    monkeypatch.setattr(cpsq.windows, "_LEAST_DOUBLE", np.float64(0))
    values = np.array([3, 1, 2, 1], dtype=np.uint64)
    cpsq.windows._sort(values)
    assert values.tolist() == [1, 1, 2, 3]


@pytest.mark.parametrize("run", [2, 3, 4])
def test_banded_values_with_equal_values_across_a_band_edge(table_small, monkeypatch, run):
    # each ``run`` window values made equal to the first of them, so that the
    # compaction closes up runs of two and more equal values
    real = cpsq.windows._window_values

    def in_runs(*args):
        values = real(*args)
        return values[np.arange(values.size) // run * run]

    monkeypatch.setattr(cpsq.windows, "_window_values", in_runs)
    x = 10**5
    windows = [value for _, _, value in oracle_windows(x)]  # by (length, start), as filled
    crafted = np.array(windows, dtype=np.uint64)[np.arange(len(windows)) // run * run]
    assert max(Counter(crafted.tolist()).values()) == run
    got = values_up_to(x, table_small)
    assert got.tolist() == sorted(set(crafted.tolist()))
