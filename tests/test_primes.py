"""Sieve, prefix sums, explicit prime bounds, and the on-disk cache."""

import copy
import json
import math
import pickle
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpsq.primes
from cpsq import (
    DusartCheck,
    PrimeTable,
    ResourceLimitError,
    check_dusart,
    check_rosser,
    load_table,
    nth_prime,
    prime_count,
    save_table,
    sieve_primes,
)
from cpsq.primes import MAX_LIMIT
from oracles import prime_count_naive, trial_division_primes

ORACLE_PRIMES_2048 = trial_division_primes(2048)


def test_sieve_empty_and_tiny_limits():
    for limit in (0, 1):
        t = sieve_primes(limit)
        assert list(t.primes) == []
        assert t.square_prefix == (0,)
    assert list(sieve_primes(2).primes) == [2]
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]


def test_sieve_thirty_primes_and_prefix():
    t = sieve_primes(30)
    assert len(t) == 10
    assert int(t.primes[-1]) == 29
    assert t.square_prefix[10] == 2397


def test_sieve_matches_trial_division_every_limit_to_2048():
    for limit in range(2049):
        expected = [p for p in ORACLE_PRIMES_2048 if p <= limit]
        assert list(sieve_primes(limit).primes) == expected, f"limit={limit}"


@pytest.mark.parametrize("segment_odds", [1, 2, 3, 5, 16, 64])
def test_sieve_segment_size_never_changes_output(monkeypatch, segment_odds):
    monkeypatch.setattr(cpsq.primes, "ODDS_PER_SEGMENT", segment_odds)
    for limit in (0, 1, 2, 3, 9, 10, 100, 289, 541):
        expected = [p for p in ORACLE_PRIMES_2048 if p <= limit]
        got = list(sieve_primes(limit).primes)
        assert got == expected, f"limit={limit} segment={segment_odds}"


def test_sieve_sampled_limits_to_1e5():
    big = sieve_primes(10**5)
    assert len(big) == 9592  # pi(10^5)
    for limit in (4096, 10_000, 31_337, 65_536, 99_991):
        t = sieve_primes(limit)
        k = prime_count(limit, big)
        assert np.array_equal(t.primes, big.primes[:k])


def test_square_prefix_invariants(table_small):
    sp = table_small.square_prefix
    assert sp.dtype == np.uint64
    assert not sp.flags.writeable
    assert sp[0] == 0
    squares = [int(p) ** 2 for p in table_small.primes]
    assert np.diff(sp).tolist() == squares
    assert all(a < b for a, b in zip(sp.tolist(), sp.tolist()[1:]))
    exact = 0
    for k, square in enumerate(squares, 1):
        exact += square
        assert table_small.prefix_sum(k) == exact


@pytest.mark.parametrize("k", [-1, 26])
def test_prefix_sum_outside_the_table_names_the_range(k):
    table = sieve_primes(100)  # 25 primes: S_0 .. S_25
    assert table.prefix_sum(0) == 0 and table.prefix_sum(25) == 65796
    with pytest.raises(ValueError, match=rf"must be in 0\.\.25 .*got {k}$"):
        table.prefix_sum(k)


def test_primes_array_is_read_only(table_small):
    with pytest.raises(ValueError):
        table_small.primes[0] = 9


def test_prime_count_small_values(table_small):
    assert prime_count(1, table_small) == 0
    assert prime_count(2, table_small) == 1
    assert prime_count(10, table_small) == 4
    assert prime_count(100, table_small) == 25
    assert prime_count(10**4, table_small) == 1229


def test_prime_count_matches_oracle_everywhere_to_500(table_small):
    for n in range(1, 501):
        assert prime_count(n, table_small) == prime_count_naive(n)


def test_prime_count_beyond_limit_names_the_limit(table_small):
    with pytest.raises(ValueError, match="10000"):
        prime_count(10**4 + 1, table_small)


def test_nth_prime(table_small):
    assert nth_prime(1, table_small) == 2
    assert nth_prime(10, table_small) == 29
    assert nth_prime(100, table_small) == 541
    with pytest.raises(ValueError):
        nth_prime(0, table_small)
    with pytest.raises(ValueError, match="cannot produce"):
        nth_prime(len(table_small) + 1, table_small)


@pytest.mark.parametrize(
    "n, message",
    [
        (0, "prime index must be >= 1, got 0"),
        (-1, "prime index must be >= 1, got -1"),
        (1230, "table holds only 1229 primes (limit 10000), cannot produce p_1230"),
    ],
)
def test_nth_prime_outside_the_table_names_why(table_small, n, message):
    assert len(table_small) + 1 == 1230
    with pytest.raises(ValueError) as raised:
        nth_prime(n, table_small)
    assert str(raised.value) == message


def test_nth_prime_reads_every_prime_of_the_table(table_small):
    got = [nth_prime(n, table_small) for n in range(1, len(table_small) + 1)]
    assert got == [int(table_small.primes[n - 1]) for n in range(1, len(table_small) + 1)]


@pytest.mark.parametrize("n", [7, np.int64(7), np.int32(7), True], ids=repr)
def test_nth_prime_returns_a_python_int(table_small, n):
    assert type(nth_prime(n, table_small)) is int
    # so a Rosser record's observed p_n always serializes as JSON
    report = check_rosser(n, table_small)
    assert type(report.observed) is int
    assert json.loads(json.dumps(report._asdict()))["observed"] == report.observed


@pytest.mark.parametrize(
    "duplicate",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("limit", [0, 1000])
def test_a_table_survives_pickle_and_copy(duplicate, limit):
    table = sieve_primes(limit)
    got = duplicate(table)
    assert type(got) is PrimeTable and got.limit == table.limit
    for name in ("primes", "square_prefix"):
        old, new = getattr(table, name), getattr(got, name)
        assert new.dtype == old.dtype and np.array_equal(new, old)
        assert not new.flags.writeable and not old.flags.writeable
    assert [nth_prime(n, got) for n in range(1, len(got) + 1)] == table.primes.tolist()


@given(st.integers(min_value=0, max_value=2048))
@settings(max_examples=200)
def test_prime_count_consistent_with_membership(n):
    t = sieve_primes(2048)
    expected = sum(1 for p in ORACLE_PRIMES_2048 if p <= n)
    assert prime_count(n, t) == expected


# ---------------------------------------------------------------------------
# Dusart and Rosser
# ---------------------------------------------------------------------------

def test_dusart_at_17_first_applicable_lower(table_small):
    c = check_dusart(17, table_small)
    assert c.lower_applicable
    assert c.pi_value == 7
    assert c.lower_value == pytest.approx(6.000254, abs=1e-6)
    assert c.passed


def test_dusart_below_17_skips_lower(table_small):
    c = check_dusart(16, table_small)
    assert not c.lower_applicable
    assert c.passed  # only the upper inequality counts here
    c2 = check_dusart(2, table_small)
    assert not c2.lower_applicable
    assert c2.passed


def test_dusart_rejects_n_below_2(table_small):
    with pytest.raises(ValueError):
        check_dusart(1, table_small)


def test_dusart_sweep_to_2000_against_oracle(table_small):
    primes = iter(ORACLE_PRIMES_2048)
    next_p = next(primes)
    pi = 0
    for n in range(2, 2001):
        if next_p is not None and n == next_p:
            pi += 1
            next_p = next(primes, None)
        c = check_dusart(n, table_small)
        assert c.pi_value == pi, f"pi({n})"
        assert c.passed, f"Dusart failed at N={n}"


def test_rosser_examples(table_small):
    r = check_rosser(100, table_small)
    assert r.observed == 541
    assert r.lhs == pytest.approx(460.517, abs=1e-3)
    assert r.verdict == "pass"
    assert check_rosser(1, table_small).verdict == "pass"  # 2 > 1 ln 1 = 0


def test_rosser_sweep_to_1229(table_small):
    for n in range(1, len(table_small) + 1):
        assert check_rosser(n, table_small).verdict == "pass", f"n={n}"


# ---------------------------------------------------------------------------
# resource ceiling
# ---------------------------------------------------------------------------

def test_oversized_sieve_is_refused_before_allocating():
    # MAX_LIMIT is the sieve's only cap, checked before anything is made
    for limit in (10**15, 10**700):
        with pytest.raises(ResourceLimitError, match="above the supported"):
            sieve_primes(limit)


def test_limit_cap_is_refused_before_allocating(monkeypatch):
    assert MAX_LIMIT**2 < 2**63 <= (MAX_LIMIT + 1) ** 2
    with pytest.raises(ResourceLimitError, match="above the supported"):
        PrimeTable(MAX_LIMIT + 1, np.empty(0, dtype=np.int64))
    # a lowered cap, so that a sieve which ignored it would stay small
    monkeypatch.setattr(cpsq.primes, "MAX_LIMIT", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="above the supported"):
            sieve_primes(10**6 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # sieving to 10^6 peaks near 2.4 MB


def test_sieve_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sieve_primes(-1)


# ---------------------------------------------------------------------------
# binary cache round trip
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    t = sieve_primes(10**5)
    path = tmp_path / "primes.cpsq"
    save_table(t, path)
    back = load_table(path)
    assert back.limit == t.limit
    assert np.array_equal(back.primes, t.primes)
    assert np.array_equal(back.square_prefix, t.square_prefix)


def test_cache_round_trip_empty_table(tmp_path):
    t = sieve_primes(1)
    path = tmp_path / "empty.cpsq"
    save_table(t, path)
    back = load_table(path)
    assert back.limit == 1 and len(back) == 0


def test_cache_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.cpsq"
    save_table(sieve_primes(100), path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="not a CPSQ2"):
        load_table(path)


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "short.cpsq"
    save_table(sieve_primes(100), path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_table(path)


def test_cache_rejects_a_changed_prime_with_its_header_intact(tmp_path):
    # p_4 = 7 rewritten as 9 keeps the primes odd, increasing and as many as
    # Dusart allows, so of all the checks only the checksum can see it
    path = tmp_path / "edited.cpsq"
    save_table(sieve_primes(10**5), path)
    raw = bytearray(path.read_bytes())
    head = 5 + 16 + 4
    assert raw[head + 24 : head + 32] == (7).to_bytes(8, "little")
    raw[head + 24 : head + 32] = (9).to_bytes(8, "little")
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="checksum"):
        load_table(path)


def test_cache_checksum_covers_the_header_fields(tmp_path):
    path = tmp_path / "limit.cpsq"
    save_table(sieve_primes(10**5), path)
    raw = bytearray(path.read_bytes())
    raw[5] ^= 1  # limit 10^5 becomes 10^5 + 1, still a valid pi for the count
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="checksum"):
        load_table(path)


def test_cache_rejects_the_earlier_format(tmp_path):
    path = tmp_path / "old.cpsq"
    t = sieve_primes(10**5)
    # the earlier layout: the same header fields without a CRC
    header = b"CPSQ1" + struct.pack("<QQ", t.limit, len(t))
    path.write_bytes(header + t.primes.astype("<u8").tobytes())
    with pytest.raises(ValueError, match="not a CPSQ2"):
        load_table(path)


# the structural checks stay behind the checksum: a file with a matching CRC
# can still come from outside the program, so these tables are written whole


def test_cache_rejects_non_ascending_primes(tmp_path):
    primes = sieve_primes(100).primes.copy()
    primes[[1, 2]] = primes[[2, 1]]  # swap p_2 and p_3
    path = tmp_path / "swapped.cpsq"
    save_table(PrimeTable(100, primes), path)
    with pytest.raises(ValueError, match="increasing"):
        load_table(path)


def test_cache_rejects_prime_past_limit(tmp_path):
    primes = sieve_primes(100).primes.copy()
    primes[-1] = 10**6
    path = tmp_path / "outside.cpsq"
    save_table(PrimeTable(100, primes), path)
    with pytest.raises(ValueError, match="outside limit"):
        load_table(path)


def test_cache_rejects_primes_that_do_not_start_at_2(tmp_path):
    # 24 primes are still a plausible pi(100), so only the first entry shows it
    path = tmp_path / "no-two.cpsq"
    save_table(PrimeTable(100, sieve_primes(100).primes[1:]), path)
    with pytest.raises(ValueError, match="does not start at p_1 = 2"):
        load_table(path)


def test_cache_rejects_an_even_entry_past_2(tmp_path):
    primes = np.insert(sieve_primes(100).primes, 2, 4)  # 2, 3, 4, 5, ...
    path = tmp_path / "four.cpsq"
    save_table(PrimeTable(100, primes), path)
    with pytest.raises(ValueError, match="even entry > 2"):
        load_table(path)


def test_cache_rejects_too_few_primes_for_its_limit(tmp_path):
    # a header claiming limit 10^6 over the primes to 1000 once counted
    # 14196 values below 10^12 instead of 8867054
    path = tmp_path / "short-payload.cpsq"
    save_table(PrimeTable(10**6, sieve_primes(1000).primes), path)
    with pytest.raises(ValueError, match="cannot be pi"):
        load_table(path)


def test_concurrent_writers_leave_one_whole_table(tmp_path):
    path = tmp_path / "primes.cpsq"
    tables = [sieve_primes(limit) for limit in (10**5, 2 * 10**5, 3 * 10**5, 4 * 10**5)]
    errors = []

    def write(table):
        try:
            for _ in range(10):
                save_table(table, path)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(t,)) for t in tables]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    back = load_table(path)
    assert any(np.array_equal(back.primes, t.primes) for t in tables)
    assert [p.name for p in tmp_path.iterdir()] == ["primes.cpsq"]
