"""Correctness references built without the program under test.

Everything here uses its own numpy sieve and its own prefix sums, so a bug
in ``cpsq.primes`` or ``cpsq.windows`` cannot hide by also being in the
reference. All of it runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import importlib.util
from bisect import bisect_right
from itertools import accumulate
from math import isqrt
from pathlib import Path

import numpy as np

#: published counts at x = 10^12 (distinct values, windows)
PUBLISHED_1E12 = (8_867_054, 8_867_094)


def sieve(limit: int) -> np.ndarray:
    """Ascending int64 array of the primes <= limit (plain boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    is_prime[4::2] = False
    for p in range(3, isqrt(limit) + 1, 2):
        if is_prime[p]:
            is_prime[p * p :: 2 * p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def _prefix(primes: np.ndarray, x: int) -> np.ndarray:
    """int64 square prefix sums over the primes <= sqrt(x), S_0 = 0."""
    base = primes[: int(np.searchsorted(primes, isqrt(x), side="right"))]
    as_float = base.astype(np.float64)
    if float(np.dot(as_float, as_float)) >= 2.0**62:
        raise ValueError(f"x = {x} is too large for int64 reference prefix sums")
    return np.concatenate(([0], np.cumsum(base * base)))


def _windows(primes: np.ndarray, x: int, want_values: bool):
    """Per-length counts (and optionally values) of the windows <= x."""
    s = _prefix(primes, x)
    k = s.size - 1
    counts: dict[int, int] = {}
    chunks = []
    c, m = k, 1
    while c > 0:
        vals = s[m : m + c] - s[:c]
        c = int(np.searchsorted(vals, x, side="right"))
        if c:
            counts[m] = c
            if want_values:
                chunks.append(vals[:c])
        m += 1
        c = min(c, k - m + 1)
    values = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return counts, values


class CountReference:
    """Exact counts for every x up to ``x_max`` from one sort of all windows."""

    def __init__(self, primes: np.ndarray, x_max: int) -> None:
        self.primes = primes
        self.x_max = x_max
        _, values = _windows(primes, x_max, want_values=True)
        values.sort()
        self.sorted_values = values
        keep = np.ones(values.size, dtype=bool)
        keep[1:] = values[1:] != values[:-1]
        self.unique_values = values[keep]

    def counts(self, x: int) -> dict:
        """distinct, multiplicity, per-length counts and max length at x."""
        per_length, _ = _windows(self.primes, x, want_values=False)
        return {
            "distinct": int(np.searchsorted(self.unique_values, x, side="right")),
            "multiplicity": int(np.searchsorted(self.sorted_values, x, side="right")),
            "per_length": per_length,
            "max_length": max(per_length, default=0),
        }

    def values(self, x: int) -> np.ndarray:
        """Sorted distinct values <= x."""
        return self.unique_values[: int(np.searchsorted(self.unique_values, x, side="right"))]


def digest(values) -> str:
    """sha256 of the values as little-endian int64, the list workload's check."""
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def load_reference_values(root: Path) -> tuple[int, ...]:
    """The package's frozen REFERENCE_VALUES, read without importing cpsq."""
    path = root / "src" / "cpsq" / "reference.py"
    spec = importlib.util.spec_from_file_location("_cpsq_reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.REFERENCE_VALUES)


def check_anchors(ref: "CountReference", root: Path) -> None:
    """Refuse to run with a reference that disagrees with the frozen list
    below 5000 or, when it reaches that far, the published counts at 10^12."""
    if tuple(ref.values(5000).tolist()) != load_reference_values(root):
        raise RuntimeError("reference enumeration below 5000 differs from REFERENCE_VALUES")
    if ref.x_max >= 10**12:
        got = ref.counts(10**12)
        if (got["distinct"], got["multiplicity"]) != PUBLISHED_1E12:
            raise RuntimeError(
                f"reference gives {got['distinct']} / {got['multiplicity']} at 10^12, "
                f"published {PUBLISHED_1E12}"
            )


class PrefixInts:
    """Exact Python-int square prefix sums, for find targets past int64."""

    def __init__(self, primes: np.ndarray) -> None:
        self.primes = primes.tolist()
        self.s = [0, *accumulate(p * p for p in self.primes)]

    def window(self, start: int, length: int) -> int:
        return self.s[start + length - 1] - self.s[start - 1]

    def max_length(self, v: int) -> int:
        return bisect_right(self.s, v) - 1

    def last_start(self, v: int, length: int) -> int:
        """Largest start whose window of this length is <= v (0 if none)."""
        lo, hi = 0, len(self.primes) - length + 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.window(mid, length) <= v:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def slice_sum(self, start: int, length: int) -> int:
        """The window value recomputed from the prime slice, not the prefix."""
        return sum(p * p for p in self.primes[start - 1 : start - 1 + length])
