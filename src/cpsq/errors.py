"""Exception types shared across the package.

The CLI maps these onto its exit codes: bad argument values (any ValueError,
including the subclasses below) exit 2, resource refusals exit 3.
"""

from __future__ import annotations

import math


class TableRangeError(ValueError):
    """A query stepped past the coverage of a prime table.

    Raised with a message that names both the table's actual limit and the
    limit the query would have needed.
    """


class DomainError(ValueError):
    """An argument is outside the mathematical domain of a bound formula."""


class ApplicabilityError(ValueError):
    """An argument is outside the stated applicability range of a check."""


class ResourceLimitError(RuntimeError):
    """A sieve request was refused because it would exhaust memory.

    The message includes the requested limit and the estimated allocation.
    """


def brief(n: int) -> str:
    """``n`` in decimal, or past 30 digits the count of its digits, found
    without str(), which refuses past sys.get_int_max_str_digits()."""
    digits = int(abs(n).bit_length() * math.log10(2))  # the count or one less
    digits += 10**digits <= abs(n)
    return str(n) if digits <= 30 else f"{'-' * (n < 0)}<{digits} digits>"
