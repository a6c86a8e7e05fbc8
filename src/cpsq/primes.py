"""Prime tables: segmented sieve, exact square prefix sums, explicit bounds.

The sieve is an odd-only segmented sieve of Eratosthenes; its working set
beyond the output is O(sqrt(limit) + segment). Alongside the primes, every
table carries the prefix sums S_k = p_1^2 + ... + p_k^2 (1-based, S_0 = 0)
as uint64 values mod 2^64, and the index of the k where that array wraps
past a multiple of 2^64, found once when the table is built. From the two
a table answers both directions exactly: the true S_k (``prefix_sum``)
and the largest k with S_k <= x (``prefix_index``). The windowed
enumeration downstream otherwise only takes differences of these sums, and
a difference mod 2^64 is exact whenever the true window value is below
2^64; the walk in ``windows`` states why its probes stay below that.

Two classical explicit bounds are wrapped as checks here:

* Dusart:  N/ln N < pi(N) for N >= 17, and pi(N) < 1.2551 N/ln N for N > 1.
* Rosser:  p_n > n ln n for every n >= 1.

``check_dusart`` returns a ``DusartCheck`` and ``check_rosser`` a
``reports.BoundReport``, both immutable ``NamedTuple`` records.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from functools import partial
from math import isqrt, log
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError, brief
from .reports import PASS, BoundReport, compare_strict

#: builds a BoundReport from one tuple of its fields, skipping the Python
#: frame of the generated ``__new__``; ``tuple.__new__`` checks nothing, so
#: the tuple must hold exactly the record's fields, in ``_fields`` order
_bound_report = partial(tuple.__new__, BoundReport)

#: odd candidates per sieve segment, which keeps a segment's mask ~1 MiB
ODDS_PER_SEGMENT = 1 << 20

#: pi(N) < DUSART_UPPER_FACTOR * N / ln N for all N > 1
DUSART_UPPER_FACTOR = 1.2551

#: N / ln N < pi(N) holds from this N on
DUSART_LOWER_MIN_N = 17

#: largest table limit: every p <= MAX_LIMIT has p^2 < 2^63
MAX_LIMIT = isqrt(2**63 - 1)

CACHE_MAGIC = b"CPSQ2"


class PrimeTable:
    """Immutable table of the primes up to ``limit`` plus square prefix sums.

    ``primes`` is an ascending read-only int64 array; the k-th prime
    (1-based, p_1 = 2) is ``primes[k - 1]``. ``square_prefix`` is the
    read-only uint64 array (S_0, S_1, ..., S_K) of the prefix sums mod 2^64,
    so ``square_prefix[k] - square_prefix[k - 1]`` is p_k^2 in uint64
    arithmetic. A contiguous int64 ``primes`` passed in becomes the table's
    own array, not a copy, with its ``writeable`` flag cleared; the caller
    must not set the flag back and write to it, which would change
    ``primes`` and ``nth_prime`` but not ``square_prefix``. ``sieve_primes``
    and ``load_table`` pass arrays of their own. Kept so, a table never
    changes after construction and is safe to share between threads.

    The constructor trusts its caller: it checks ``limit`` against
    ``MAX_LIMIT`` and nothing of ``primes``, neither that they are the
    primes, nor their order, nor ``primes[-1] <= limit``. ``sieve_primes``
    builds them so and ``load_table`` validates a file's list before it
    builds a table; any other list gives a table whose answers follow that
    list (``PrimeTable(2, np.array([2, 3, 5]))`` has ``nth_prime(3) == 5``).

    The constructor also finds the wrap index once: the ascending k with
    ``square_prefix[k] < square_prefix[k - 1]``, where the true S_k passes
    a multiple of 2^64, 8 bytes a wrap (a table to 10^6 has none, to 10^7
    one, to 10^8 999). ``prefix_sum`` counts the wraps up to k with one
    binary search of it; ``prefix_index`` takes the run of
    ``square_prefix`` between the two wraps that x's quotient by 2^64
    names and bisects that run alone. Neither scans ``square_prefix``.

    A private read-only ``memoryview`` of ``primes`` sits beside the array:
    it copies nothing, and indexing it returns a Python int in about half the
    time of ``ndarray.item``, which ``nth_prime`` reads through. A
    memoryview cannot be pickled, so a table pickles and copies as its
    ``(limit, primes)``, from which it is rebuilt, its sums and wrap index
    with it.
    """

    __slots__ = ("limit", "primes", "square_prefix", "_wraps", "_prime_view")

    def __init__(self, limit: int, primes: np.ndarray) -> None:
        limit = _check_limit(limit)
        arr = np.ascontiguousarray(primes, dtype=np.int64)
        arr.flags.writeable = False
        prefix = np.zeros(arr.size + 1, dtype=np.uint64)
        # p <= MAX_LIMIT keeps p*p exact in int64, which shares uint64's bits
        np.multiply(arr, arr, out=prefix[1:].view(np.int64))
        np.cumsum(prefix, out=prefix)
        prefix.flags.writeable = False
        self.limit = limit
        self.primes = arr
        self.square_prefix = prefix
        # every p^2 < 2^63, so no step wraps twice: the k where S_k passes a
        # multiple of 2^64 are exactly those where the stored sum falls
        self._wraps = np.flatnonzero(prefix[1:] < prefix[:-1]) + 1
        self._prime_view = memoryview(arr)

    def __reduce__(self):
        return PrimeTable, (self.limit, self.primes)

    def __len__(self) -> int:
        return int(self.primes.size)

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, primes={len(self)})"

    def prefix_sum(self, k: int) -> int:
        """The exact S_k: ``square_prefix[k]`` plus 2^64 for each wrap up to k.

        ``k`` runs over 0..len(self); outside it a ValueError names the range.
        """
        sp = self.square_prefix
        if not 0 <= k < sp.size:
            raise ValueError(
                f"prefix sum index must be in 0..{sp.size - 1} for this table "
                f"(limit {self.limit}), got {k}"
            )
        return (int(self._wraps.searchsorted(k, "right")) << 64) + int(sp[k])

    def prefix_index(self, x: int) -> int:
        """The largest k in 0..len(self) with S_k <= x, for an integer x >= 0.

        The S_k with x's quotient by 2^64 as their wrap count are one rising
        run of ``square_prefix``; only that run is searched for x's remainder.
        Every S_k before the run is below x and every one after it above.
        """
        if x < 0:
            raise ValueError(f"prefix sums start at S_0 = 0, so x must be >= 0, got {x}")
        quotient, rest = divmod(x, 1 << 64)
        if quotient > self._wraps.size:
            return len(self)
        lo = int(self._wraps[quotient - 1]) if quotient else 0
        hi = int(self._wraps[quotient]) if quotient < self._wraps.size else len(self) + 1
        return lo + int(self.square_prefix[lo:hi].searchsorted(np.uint64(rest), "right")) - 1


def _check_limit(limit: int) -> int:
    limit = int(limit)
    if limit > MAX_LIMIT:
        raise ResourceLimitError(f"limit={brief(limit)} is above the supported {MAX_LIMIT}")
    return limit


def _odd_sieve(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, as int64: 2, then the odd primes one
    segment of ODDS_PER_SEGMENT odd candidates at a time, crossed off by the
    odd primes <= sqrt(limit), which this same routine sieves first."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd_base = _odd_sieve(isqrt(limit))[1:].tolist()
    chunks = [np.array([2], dtype=np.int64)]
    span = 2 * ODDS_PER_SEGMENT
    for low in range(3, limit + 1, span):
        high = min(low + span, limit + 1)  # exclusive
        mask = np.ones((high - low + 1) // 2, dtype=bool)
        for p in odd_base:
            if p * p >= high:
                break
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            mask[(start - low) // 2 :: p] = False
        chunks.append(low + 2 * np.flatnonzero(mask))
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes ``p <= limit`` into a PrimeTable.

    An odd-only segmented sieve. A limit above MAX_LIMIT, the sieve's only
    cap, raises ResourceLimitError before anything is allocated.
    """
    limit = int(limit)
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    _check_limit(limit)
    return PrimeTable(limit, _odd_sieve(limit))


def prime_count(n: int, table: PrimeTable) -> int:
    """pi(n): the number of primes <= n, answered from the table.

    ``n`` may be anything up to ``table.limit``; beyond that the table
    cannot answer and a ValueError names its limit.
    """
    n = int(n)
    if n > table.limit:
        raise ValueError(
            f"pi({n}) is beyond this table (limit {table.limit}); "
            f"sieve to at least {n} first"
        )
    # the array method skips np.searchsorted's dispatch, ~1 us a call less
    return int(table.primes.searchsorted(n, "right"))


def nth_prime(n: int, table: PrimeTable) -> int:
    """The n-th prime, 1-based (p_1 = 2), as a Python int.

    ``check_rosser`` calls this once a check, so it reads through the
    table's memoryview of ``primes``, which skips ``ndarray.item``'s
    dispatch, and lets the view's own bounds check find an n past the
    table: ~85 against ~155 ns a call.
    """
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    view = table._prime_view
    try:
        return view[n - 1]
    except IndexError:
        raise ValueError(
            f"table holds only {len(view)} primes (limit {table.limit}), "
            f"cannot produce p_{n}"
        ) from None


class DusartCheck(NamedTuple):
    """Evaluation of the two Dusart inequalities at a single N.

    ``passed`` is True iff every *applicable* strict inequality holds; the
    lower bound only applies from N = 17 on, the upper for all N >= 2,
    which is every N the check accepts.
    """

    n: int
    lower_value: float
    pi_value: int
    upper_value: float
    lower_applicable: bool
    passed: bool


#: builds a DusartCheck as ``_bound_report`` builds a BoundReport, under the
#: same condition: exactly the record's fields, in ``_fields`` order
_dusart_check = partial(tuple.__new__, DusartCheck)


def check_dusart(n: int, table: PrimeTable) -> DusartCheck:
    """Check N/ln N < pi(N) < 1.2551 N/ln N at N = n."""
    n = int(n)
    if n < 2:
        raise ValueError(f"Dusart check needs N >= 2, got {n}")
    pi_n = prime_count(n, table)
    log_n = log(n)
    lower = n / log_n
    upper = DUSART_UPPER_FACTOR * n / log_n
    lower_applicable = n >= DUSART_LOWER_MIN_N
    passed = compare_strict(pi_n, upper) == PASS and (
        not lower_applicable or compare_strict(lower, pi_n) == PASS
    )
    return _dusart_check((n, lower, pi_n, upper, lower_applicable, passed))


def check_rosser(n: int, table: PrimeTable) -> BoundReport:
    """Check p_n > n ln n (trivially true at n = 1 where ln 1 = 0)."""
    n = int(n)
    p_n = nth_prime(n, table)
    lhs = n * log(n)
    rhs = float(p_n)
    # label, x_or_m, lhs, rhs, observed, applicable, verdict
    return _bound_report(("rosser", n, lhs, rhs, p_n, True, compare_strict(lhs, rhs)))


# ---------------------------------------------------------------------------
# binary cache: "CPSQ2" | limit u64le | count u64le | crc32 u32le | primes u64le...
# ---------------------------------------------------------------------------

def save_table(table: PrimeTable, path: str | Path) -> None:
    """Write the table's primes to ``path`` in the CPSQ2 cache format.

    The header carries a CRC-32 of the limit, the count and the payload.
    Each writer goes through a temporary file of its own in the same
    directory, so concurrent writers never interleave their bytes; the last
    rename wins.
    """
    path = Path(path)
    payload = table.primes.astype("<u8").tobytes()
    fields = struct.pack("<QQ", table.limit, len(table))
    crc = zlib.crc32(payload, zlib.crc32(fields))
    header = CACHE_MAGIC + fields + struct.pack("<I", crc)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(header + payload)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)  # left only if the rename failed


def load_table(path: str | Path) -> PrimeTable:
    """Read a CPSQ2 cache file back into a PrimeTable.

    The CRC is checked first; the structural invariants of the prime list
    (as many primes as Dusart's bounds allow for pi(limit), ascending,
    first prime 2, odd beyond the first, within the stored limit) are still
    re-validated, since the file comes from outside the program. Any
    violation raises ValueError rather than returning a corrupt table.
    """
    raw = memoryview(Path(path).read_bytes())
    start = len(CACHE_MAGIC)
    head = start + 20
    if len(raw) < head or raw[:start] != CACHE_MAGIC:
        raise ValueError(f"{path}: not a CPSQ2 prime cache")
    limit, count, crc = struct.unpack_from("<QQI", raw, start)
    if len(raw) != head + 8 * count:
        raise ValueError(
            f"{path}: truncated cache (expected {count} primes, "
            f"{len(raw) - head} payload bytes present)"
        )
    if zlib.crc32(raw[head:], zlib.crc32(raw[start : head - 4])) != crc:
        raise ValueError(f"{path}: cache checksum does not match its contents")
    # Dusart: N / ln N < pi(N) from N = 17 on, pi(N) < 1.2551 N / ln N
    bound = limit / log(limit) if limit >= 2 else 0
    low = bound if limit >= DUSART_LOWER_MIN_N else 0
    if limit >= 2 and not low < count < DUSART_UPPER_FACTOR * bound:
        raise ValueError(f"{path}: {count} cached primes cannot be pi({limit})")
    primes = np.frombuffer(raw, dtype="<u8", offset=head).astype(np.int64)
    if primes.size:
        if primes[0] != 2 and limit >= 2:
            raise ValueError(f"{path}: cache does not start at p_1 = 2")
        if int(primes[-1]) > limit or int(primes[0]) < 2:
            raise ValueError(f"{path}: cached primes fall outside limit {limit}")
        if np.any(np.diff(primes) <= 0):
            raise ValueError(f"{path}: cached primes are not strictly increasing")
        if primes.size > 1 and np.any(primes[1:] % 2 == 0):
            raise ValueError(f"{path}: cached primes contain an even entry > 2")
    return PrimeTable(int(limit), primes)
