"""Report records and the floating-point comparison discipline.

Every inequality check in this package produces a BoundReport rather than a
bare boolean, so that the evaluated sides survive into logs and serialized
output. Verdicts are three-valued: a strict inequality that lands within a
small safety margin of equality is reported as "inconclusive" instead of
being rounded into a pass or a fail.

The rule that turns two sides into a verdict lives here once, in
``strict_report``, which builds every report in ``bounds``: a verdict the
caller passes in (a broken exact link, or an equality check) wins; else an
inapplicable check is INCONCLUSIVE; else the verdict is
``compare_strict(lhs, rhs)``.

Records here and in ``primes``, ``windows`` and ``bounds`` are immutable
``NamedTuple``s: they compare as tuples of their values, and ``_fields``,
``_asdict`` and ``_replace`` serve for reflection and copies. The two hot
sites, ``primes.check_rosser`` and ``primes.check_dusart``, build theirs
through a maker, ``functools.partial(tuple.__new__, cls)``, from one tuple
of the fields in order, skipping the generated ``__new__``'s Python frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

#: the smallest positive normal binary64 value (sys.float_info.min)
_MIN_NORMAL = 2.0**-1022


def compare_strict(lhs: float, rhs: float) -> str:
    """Verdict for the strict inequality ``lhs < rhs`` in binary64.

    The margin is the larger of 4 ulps of the bigger operand and 1e-12
    relative to it; differences inside the margin are INCONCLUSIVE so that
    rounding never fabricates a strict inequality. A non-strict link
    ``lhs <= rhs`` holds up to that margin exactly when the verdict is not
    FAIL.

    The ulp term only matters below the smallest normal float. A normal
    scale in [2^e, 2^(e+1)) has ulp 2^(e-52), so 4 ulps are at most
    2^-50 * scale, three orders of magnitude below 1e-12 * scale; there
    the margin is the relative term alone (inf included). Only a zero or
    subnormal scale needs the two-term form. A nan operand makes both
    differences nan, so it is INCONCLUSIVE whichever margin it meets.
    """
    lhs = float(lhs)
    rhs = float(rhs)
    a = lhs if lhs >= 0.0 else -lhs
    b = rhs if rhs >= 0.0 else -rhs
    scale = a if a > b else b
    if scale >= _MIN_NORMAL:
        margin = 1e-12 * scale
    else:
        margin = max(4.0 * math.ulp(scale), 1e-12 * scale)
    if rhs - lhs > margin:
        return PASS
    if lhs - rhs > margin:
        return FAIL
    return INCONCLUSIVE


class BoundReport(NamedTuple):
    """Outcome of one inequality check.

    The convention is that the verdict asserts ``lhs < rhs`` strictly (the
    two exceptions assert exact equality: "pyramid", of an integer identity,
    and "reference-values", of the enumeration below 5000 and its frozen
    list). ``observed`` carries the exact integer side when the
    check compares enumerated data against a real-valued bound, and
    ``applicable`` is False when the evaluation point is outside the stated
    range of the inequality, in which case the verdict draws no conclusion.
    """

    label: str
    x_or_m: int
    lhs: float
    rhs: float
    observed: int | None
    applicable: bool
    verdict: str


def strict_report(
    label: str,
    x_or_m: int,
    lhs: float,
    rhs: float,
    observed: int | None = None,
    applicable: bool = True,
    verdict: str | None = None,
) -> BoundReport:
    """A BoundReport of ``lhs < rhs`` with both sides as floats.

    The verdict is ``verdict`` when one is passed in, else INCONCLUSIVE when
    the check is not ``applicable``, else ``compare_strict(lhs, rhs)``.
    """
    lhs = float(lhs)
    rhs = float(rhs)
    if verdict is None:
        verdict = compare_strict(lhs, rhs) if applicable else INCONCLUSIVE
    return BoundReport(label, x_or_m, lhs, rhs, observed, applicable, verdict)
