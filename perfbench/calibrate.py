"""A fixed probe of the machine's current speed, to scale measured times by.

The machine is shared, and its speed moves in steps of 20-50% that last
from seconds to minutes, with CPU time moving as much as wall time: the
cores themselves run slower, not less often. No number of repeats inside a
run of a few seconds gets past a step that outlasts the run. So the
benchmark times this probe, which never changes, next to every timed op or
pass and scales each op's time by ``NOMINAL_NS / probe time``: the time the
op would have taken at the speed at which the probe takes ``NOMINAL_NS``.
The probe mixes a pure-Python loop (like the scalar checks and the CLI's
rendering) with a numpy sort of an 8 MB array (like the window dedup);
both slow down alike in the machine's slow steps.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

#: about the probe's median time on a 2-core shared Xeon box (Python 3.11,
#: numpy 2.4); scaled times are times at that speed
NOMINAL_NS = 180_000_000

_ROUNDS = 12
_LOOP = 100_000
_SORT_ITEMS = 1 << 20

_array = None


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def probe() -> int:
    """Nanoseconds for a fixed mix of Python loops and numpy sorts."""
    global _array
    if _array is None:
        _array = np.random.default_rng(0).integers(0, 2**62, _SORT_ITEMS)
    start = perf_counter_ns()
    for _ in range(_ROUNDS):
        _loop(_LOOP)
        np.sort(_array)
    return perf_counter_ns() - start


def scale(seconds_or_ns: float, probe_before: int, probe_after: int) -> float:
    """A time measured between two probes, at the nominal speed."""
    return seconds_or_ns * 2 * NOMINAL_NS / (probe_before + probe_after)
