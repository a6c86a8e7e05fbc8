"""Enumeration of sums of squares of consecutive primes.

A *window* (n, m) is the run p_n, p_{n+1}, ..., p_{n+m-1} of m consecutive
primes (1-based start); its value is the sum of their squares, computed as
the prefix-sum difference S_{n+m-1} - S_{n-1}. For a fixed length m the
value is strictly increasing in n, so the windows with value <= x form a
prefix n = 1..c_m, and the minimal value over n is S_m itself, which is
strictly increasing in m. Those two monotonicities drive everything here:

* the walk finds c_m for every m with S_m <= x in blocks of lengths: c_m
  never exceeds c_{m-1}, so a block m0..m1 is one bisection over starts
  1..c_{m0-1}, vectorized over its lengths. It is the one source of every
  c_m, so nothing here caps c_m by pi(sqrt(x / m)) and bounds can check
  that cap against it;
* counting never materializes the representations: _sort sorts the window
  values, one uint64 each, through their float64 view, and one integer
  compare of each value with the one before both checks that order and
  finds the repeats, which the distinct count leaves out; the number of
  windows alone needs no values at all, only the walk;
* past SPLIT_WINDOWS windows, count_sums dedups 24 residue classes apart,
  one after another: p^2 = 1 (mod 24) for every prime p >= 5, so a window
  (n, m) with n >= 3 has value = m (mod 24) and equal values share a class
  of value mod 24. _distinct_by_class fills each class itself, at the size
  its guard counted, and each class is a cache-sized sort of its own; only
  one class buffer is held at a time.
* below SPLIT_WINDOWS, and in values_up_to at any size, _window_values
  fills every window in one piece and refuses first when that piece would
  pass MAX_DEDUP_BYTES. values_up_to sorts its one buffer whole with _sort
  and closes up the repeats inside it, for one ascending array.

Prefix sums are held mod 2^64, so a difference is a window's true value
only below 2^64; the walk states why its probes stay there. Where a sum
itself is compared with x (the longest window, S_m <= x), the table's
``prefix_index`` answers from its wrap index, so nothing here counts wraps.

Counts come in two flavors and both are always computed: the number of
distinct representable values (set semantics) and the number of windows
(multiplicity semantics). Distinct values could in principle collide across
different windows; nothing here assumes they do or do not.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ResourceLimitError, brief
from .primes import PrimeTable


class Representation(NamedTuple):
    """One window of consecutive primes whose squares sum to ``value``."""

    start_index: int
    length: int
    value: int


class CountReport(NamedTuple):
    """Counting summary at a threshold x.

    ``per_length`` maps every window length m = 1..max(1, max_length_seen)
    to the number of windows of that length with value <= x; its values sum
    to ``multiplicity_count``. ``distinct_count`` counts distinct values and
    so never exceeds the multiplicity count.
    """

    x: int
    distinct_count: int
    multiplicity_count: int
    per_length: dict[int, int]
    max_length_seen: int


def _covered(x: int, table: PrimeTable, name: str = "x") -> int:
    """x as an int, checked positive and covered (windows <= x use primes <= sqrt x)."""
    x = int(x)
    if x < 1:
        raise ValueError(f"{name} must be a positive integer, got {x}")
    need = isqrt(x)
    if table.limit < need:
        raise ValueError(
            f"table limit {table.limit} is below floor(sqrt({brief(x)})) = "
            f"{brief(need)}; sieve to at least {brief(need)} first"
        )
    return x


def _walk(x: int, table: PrimeTable) -> list[int]:
    """c_m at index m - 1 for every length m with S_m <= x.

    A block of lengths m0..m1 bisects starts 1..c, c = c_{m0-1} (c_0 =
    pi(sqrt(x))). Its probe (n, m) is the window (n, m0 - 1) <= x plus
    m - m0 + 1 squares <= p_{c+m-1}^2, so a block whose squares fit in
    2^64 - 1 - x has exact uint64 differences. PrimeTable's limit cap keeps
    x + limit^2 below 2^64, so every block holds at least one length.
    """
    sp = table.square_prefix
    k = len(table)
    lengths = table.prefix_index(x)
    room = np.uint64((1 << 64) - 1 - x)
    counts: list[int] = []
    c = int(table.primes.searchsorted(isqrt(x), "right"))
    while len(counts) < lengths:
        m = np.arange(len(counts) + 1, lengths + 1)
        squares = table.primes[np.minimum(c + m, k + 1) - 2] ** 2  # p_{c+m-1}^2, or p_K^2
        fits = squares.view(np.uint64) <= room // np.arange(1, m.size + 1, dtype=np.uint64)
        m = m[: np.count_nonzero(fits)]  # a prefix: squares rise, room // i falls
        hi = np.minimum(c, k + 1 - m)
        n = np.zeros(m.size, dtype=np.int64)
        # n climbs to the last start <= hi whose window is <= x; a probe
        # clamped to hi that fits is that start
        step = 1 << (c.bit_length() - 1)
        while step:
            probe = np.minimum(n + step, hi)
            n = np.where(sp[probe + m - 1] - sp[probe - 1] <= np.uint64(x), probe, n)
            step >>= 1
        counts += n.tolist()
        c = counts[-1]
    return counts


def enumerate_representations(
    x: int, table: PrimeTable
) -> Iterator[Representation]:
    """Yield every window with value <= x, ordered by (length, start_index).

    The table must cover floor(sqrt(x)). Yields lazily; the per-length
    counts are found up front, the windows one length at a time.
    """
    x = _covered(x, table)
    sp = table.square_prefix
    for m, c in enumerate(_walk(x, table), 1):
        # windows counted by the walk are <= x: exact differences
        values = (sp[m : m + c] - sp[:c]).tolist()
        for n, value in enumerate(values, 1):
            yield Representation(n, m, value)


def count_windows(x: int, table: PrimeTable) -> list[int]:
    """c_m at index m - 1, the number of length-m windows with value <= x,
    for every length m that has one: the walk's counts as they stand.
    Every c_m is positive and the list ends where S_m first exceeds x."""
    return _walk(_covered(x, table), table)


SPLIT_WINDOWS = 1 << 20
"""count_sums dedups fewer windows than this in one piece; more, one
residue class at a time."""

_CLASSES = 24

#: refuse a dedup whose estimated value arrays would pass this many bytes
MAX_DEDUP_BYTES = 4 << 30

#: bytes a length of the walk's list of c_m, alive at every dedup's peak:
#: a 28 B int and an 8 B pointer, and the list's spare room
_LENGTH_BYTES = 40


def _refuse_past_ceiling(counts: list[int], held: int) -> None:
    """ResourceLimitError, before anything is allocated, when a dedup of
    the windows the walk counted in ``counts`` needs more than
    MAX_DEDUP_BYTES: ``held`` bytes of values and marks, plus
    _LENGTH_BYTES a length for ``counts`` itself."""
    need = held + _LENGTH_BYTES * len(counts)
    if need > MAX_DEDUP_BYTES:
        raise ResourceLimitError(
            f"deduplicating {sum(counts)} window values needs an estimated "
            f"{need} bytes, above the {MAX_DEDUP_BYTES} byte ceiling"
        )


def _window_values(counts: list[int], table: PrimeTable) -> np.ndarray:
    """The values of every window the walk counted (all <= x, so exact),
    8 bytes each, one ascending run per length, in one piece; refused
    past MAX_DEDUP_BYTES at 9 bytes a window, before anything is allocated.
    """
    total = sum(counts)
    _refuse_past_ceiling(counts, 9 * total)
    sp = table.square_prefix
    values = np.empty(total, dtype=np.uint64)
    end = 0
    for m, c in enumerate(counts, 1):
        np.subtract(sp[m : m + c], sp[:c], out=values[end : end + c])
        end += c
    return values


#: the least uint64 whose float64 view is not finite: inf, then the NaNs,
#: which numpy's sort may rewrite as one canonical NaN
_NOT_FINITE = np.uint64(0x7FF0000000000000)

#: the least positive double, a denormal: it compares as 0 where the FPU
#: treats denormals as zero, and such an FPU may zero them while sorting
_LEAST_DOUBLE = np.uint64(1).view(np.float64)


def _sort_as_doubles(values: np.ndarray) -> None:
    """Sort uint64 ``values`` in place through their float64 view, which
    numpy sorts faster: finite non-negative doubles order as their bit
    patterns do."""
    values.view(np.float64).sort()


def _sort(values: np.ndarray) -> np.ndarray:
    """Sort uint64 ``values`` in place; the ascending indices of the values
    that equal the one before them, the repeats.

    As doubles when every value is below _NOT_FINITE and this thread's FPU
    compares denormals (the patterns below 2^52) as themselves: then one
    integer compare finds every value at most the one before it, and when
    each of those equals it the order is the integer order and they are the
    repeats. As integers otherwise, or if one is less. One bool a value
    while compared, and 8 bytes a repeat.
    """
    if values.size and values.max() < _NOT_FINITE and _LEAST_DOUBLE > 0:
        _sort_as_doubles(values)
        hits = np.flatnonzero(values[1:] <= values[:-1]) + 1
        if (values[hits] == values[hits - 1]).all():
            return hits
    values.sort()
    return np.flatnonzero(values[1:] == values[:-1]) + 1


def _distinct_by_class(counts: list[int], table: PrimeTable) -> int:
    """The number of distinct window values, as the sum over the 24 residue
    classes of each class's own distinct count.

    Each class r fills a buffer of its own size: the heads, the windows
    from p_1 = 2 and p_2 = 3 whose value is r mod 24, then the windows
    from starts n >= 3 of every length m = r (mod 24). The classes are
    sorted one after another, so at most 9 bytes a window of the largest
    class are held at once, plus 32 bytes a head and 40 a length for the
    walk's counts; past MAX_DEDUP_BYTES this refuses before any class is
    allocated.
    """
    sp = table.square_prefix
    c = np.array(counts, dtype=np.int64)
    # windows (1, m) for every length, (2, m) for the lengths with c_m >= 2,
    # a prefix since c_m never grows
    twos = np.count_nonzero(c >= 2)
    heads = np.concatenate((sp[1 : c.size + 1] - sp[0], sp[2 : twos + 2] - sp[1]))
    residues = (heads % _CLASSES).astype(np.uint8)
    # the lengths with windows from starts n >= 3, c_m - 2 of them: a prefix too
    threes = int(np.count_nonzero(c >= 3))
    sizes = np.bincount(np.arange(1, threes + 1) % _CLASSES, c[:threes] - 2, _CLASSES)
    sizes = sizes.astype(np.int64) + np.bincount(residues, minlength=_CLASSES)
    _refuse_past_ceiling(counts, 9 * int(sizes.max()) + 32 * heads.size)

    def distinct(r: int) -> int:
        # a class's values die with this frame, before the next class is made
        values = np.empty(sizes[r], dtype=np.uint64)
        mine = heads[residues == r]
        values[: mine.size] = mine
        end = mine.size
        for m in range(r or _CLASSES, threes + 1, _CLASSES):
            n = counts[m - 1]
            np.subtract(sp[m + 2 : m + n], sp[2:n], out=values[end : end + n - 2])
            end += n - 2
        return values.size - _sort(values).size

    return sum(distinct(r) for r in range(_CLASSES))


def count_sums(x: int, table: PrimeTable) -> CountReport:
    """Count representable values <= x under both semantics in one pass.

    Multiplicity is the sum of the per-length counts; the distinct count is
    that less the repeats _sort finds in the window values, 8 bytes each,
    with the one compare that checks their sorted order, so nothing
    per-object survives the pass. Past SPLIT_WINDOWS windows the sort runs
    per residue class mod 24, one class at a time. Raises
    ResourceLimitError when the values and repeat marks held at once, with
    the walk's counts, would pass MAX_DEDUP_BYTES.
    """
    x = _covered(x, table)
    counts = _walk(x, table)
    total = sum(counts)
    if total < SPLIT_WINDOWS:
        distinct = total - _sort(_window_values(counts, table)).size
    else:
        distinct = _distinct_by_class(counts, table)
    return CountReport(
        x=x,
        distinct_count=distinct,
        multiplicity_count=total,
        per_length=dict(enumerate(counts, 1)) or {1: 0},
        max_length_seen=len(counts),
    )


def find_representations(target: int, table: PrimeTable) -> list[Representation]:
    """All windows whose value equals ``target`` exactly, ordered by length.

    For each length the window value is strictly increasing in the start
    index, so there is at most one hit per length: the last window with
    value <= target, which the walk finds. Returns [] when the target is
    not representable.
    """
    target = _covered(target, table, "target")
    sp = table.square_prefix
    counts = np.array(_walk(target, table), dtype=np.int64)
    lengths = np.arange(1, counts.size + 1)
    # window (c_m, m) has value <= target, so the difference is exact
    hits = np.flatnonzero(sp[counts + lengths - 1] - sp[counts - 1] == target)
    return [Representation(int(counts[i]), int(i) + 1, target) for i in hits]


def values_up_to(x: int, table: PrimeTable) -> np.ndarray:
    """The distinct representable values <= x, ascending, as a read-only
    uint64 array: a prefix of the one value buffer, sorted in place by _sort
    on the calling thread, 9 bytes a window and 40 a length in all, refused
    past MAX_DEDUP_BYTES.
    """
    values = _window_values(_walk(_covered(x, table), table), table)
    total = values.size
    # each run between repeats moves left past the repeats before it (numpy
    # copies an overlapping 1-D slice in order, without a temporary)
    ends = [*_sort(values).tolist(), total]
    for shift, (r, end) in enumerate(zip(ends, ends[1:]), 1):
        values[r + 1 - shift : end - shift] = values[r + 1 : end]
    distinct = values[: total + 1 - len(ends)]
    distinct.flags.writeable = False
    return distinct

