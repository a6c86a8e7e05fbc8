"""The package's one exception type of its own, and a short form of big ints.

The CLI maps exceptions onto its exit codes: a bad argument, including a
table too small for the query, raises ValueError and exits 2; a resource
refusal raises ResourceLimitError and exits 3.
"""

from __future__ import annotations

import math


class ResourceLimitError(RuntimeError):
    """A request was refused before it could exhaust memory: a sieve limit
    past primes.MAX_LIMIT, a window cap past MAX_LIMIT^3 (whose M(x) needs
    primes past MAX_LIMIT, as in ``cpsq maxlen 1e400``), or a dedup whose
    estimated value arrays pass windows.MAX_DEDUP_BYTES. The message names
    the limit or the estimate.
    """


def brief(n: int) -> str:
    """``n`` in decimal, or past 30 digits the count of its digits, found
    without str(), which refuses past sys.get_int_max_str_digits()."""
    digits = int(abs(n).bit_length() * math.log10(2))  # the count or one less
    digits += 10**digits <= abs(n)
    return str(n) if digits <= 30 else f"{'-' * (n < 0)}<{digits} digits>"
