"""Workload inputs, drawn from the seed alone.

The program never sees the seed: CLI workloads get argv lists, library
workloads get plain numbers. ``tiny`` is a seconds-long variant of each
workload for the self-test; the benchmark itself always runs ``full``.
"""

from __future__ import annotations

import math

import numpy as np

from reference import PrefixInts, sieve

WORKLOADS = ("count-1e12", "list-1e11", "find-mix", "verify-sweep")
SCALES = ("full", "tiny")

#: covers pi(N) for N <= 10^6 and p_n for n <= 10^5 (p_100000 = 1299709)
VERIFY_TABLE_LIMIT = 1_300_000

#: seconds one pass of the full workload takes on the seed code (2-core
#: shared x86-64 box, Python 3.11); a run makes about --seconds of passes
PASS_SECONDS = {"count-1e12": 19.5, "list-1e11": 3.3, "find-mix": 0.8, "verify-sweep": 1.2}
#: every op counts with the fastest of at least this many repeats
MIN_PASSES = 2


def pass_count(name: str, scale: str, seconds: float) -> int:
    """Passes in a run, fixed by the workload and --seconds alone.

    The count never depends on how fast the passes go, so a parent and a
    change take each op's fastest of the same number of repeats.
    """
    if scale == "tiny":
        return MIN_PASSES
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))


def make_plan(name: str, seed: int, scale: str) -> dict:
    """The workload's inputs as a JSON-ready dict; same seed, same inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    tiny = scale == "tiny"
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    plan: dict = {"workload": name, "seed": seed, "scale": scale}

    if name == "count-1e12":
        top = 10**8 if tiny else 10**12
        xs = [top, int(rng.integers(top * 9 // 10, top + 1))]
        plan.update(kind="cli", table_limit=math.isqrt(top), fresh_cache_per_op=False,
                    xs=xs, ops=[["count", str(x), "--format", "json"] for x in xs])
    elif name == "list-1e11":
        top = 10**7 if tiny else 10**11
        x = int(rng.integers(top * 9 // 10, top + 1))
        plan.update(kind="cli", table_limit=math.isqrt(x), fresh_cache_per_op=True,
                    xs=[x], ops=[["list", str(x)]])
    elif name == "find-mix":
        # 100 targets, not 1000: a pass of 1000 finds takes ~7 s, so a run
        # could repeat each only twice and the machine's drift set the
        # spread (0.2-0.28 over ten seeds); 100 repeat ~25 times per run
        top, count = 10**8 if tiny else 10**14, 100
        table_limit = math.isqrt(top)
        ints = PrefixInts(sieve(table_limit))
        # one draw per equal slice of log10 range: log-uniform, yet the size
        # mix (which sets find's cost) barely moves from seed to seed
        edges = np.linspace(math.log(10**4), math.log(top), count + 1)
        draws = np.exp(rng.uniform(edges[:-1], edges[1:]))
        order = rng.permutation(count)
        targets, planted = [], {}
        for i in range(count):
            v = int(draws[order[i]])
            if i % 2:
                targets.append(v)
                continue
            # a real window value just below v, of a seed-chosen length
            length = int(rng.integers(1, ints.max_length(v) + 1))
            start = ints.last_start(v, length)
            targets.append(ints.window(start, length))
            planted[i] = [start, length]
        plan.update(kind="lib", table_limit=table_limit, targets=targets,
                    planted={str(i): sl for i, sl in planted.items()})
    else:
        block, top_n, rosser_max = (1000, 10**4, 1000) if tiny else (5 * 10**4, 10**6, 10**5)
        first = int(rng.integers(2, top_n - block + 2))
        plan.update(kind="lib", table_limit=VERIFY_TABLE_LIMIT,
                    dusart=[first, first + block], rosser_max=rosser_max,
                    grid=[289, 10**3, 10**4, 10**5] if tiny else None)
    return plan
