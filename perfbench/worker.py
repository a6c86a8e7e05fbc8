"""One fresh process of the benchmark: a set-up probe, a library run, or a
traced CLI op. ``run.py`` starts it; it is not meant to be run by hand.

    worker.py setup  PLAN OUT [--trace-out SPANS]
    worker.py lib    PLAN OUT --first-pass I --passes K [--trace-out SPANS]
    worker.py cli-op STDOUT --trace-out SPANS -- ARGV...

Each mode writes a small JSON result to OUT. Library runs also append each
pass's op latencies, scaled to the nominal machine speed of
``calibrate.py``, to ``OUT.f64`` as raw float64 rows, one pass at a time.
Spans, when asked for, are written as JSON lines when the mode ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
from time import perf_counter, perf_counter_ns

# Only the standard library is imported up front, so that a set-up probe's
# timed ``import cpsq`` pays for numpy as a user's first import does.


def _tracer(path: str | None):
    if not path:
        return None
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _provision(plan: dict):
    """The workload's set-up: a cold cache provision or a sieve."""
    if plan["kind"] == "cli":
        import cpsq.cli

        config = cpsq.cli.CliConfig(command=plan["ops"][0][0])
        return cpsq.cli.provision_table(plan["table_limit"], config)
    import cpsq.primes

    return cpsq.primes.sieve_primes(plan["table_limit"])


def mode_setup(plan: dict, out: str, trace_out: str | None) -> None:
    t0 = perf_counter()
    import cpsq  # the import is part of set-up

    if plan["kind"] == "cli":
        import cpsq.cli  # noqa: F401
    t1 = perf_counter()
    tracer = _tracer(trace_out)
    t2 = perf_counter()
    _provision(plan)
    t3 = perf_counter()
    if tracer:
        tracer.write_jsonl(trace_out)
    _write(out, {"setup_s": (t1 - t0) + (t3 - t2), "cpsq_file": cpsq.__file__})


# ---------------------------------------------------------------------------
# library workloads: find-mix and verify-sweep
# ---------------------------------------------------------------------------

def _full_verification(grid, table):
    """The verify battery as one op; it sieves its own tables, not ``table``."""
    import cpsq.bounds

    return cpsq.bounds.full_verification(grid)


def _ops(plan: dict) -> list:
    """(function, argument) per op, resolved after any tracer is installed."""
    import cpsq.primes
    import cpsq.windows

    if plan["workload"] == "find-mix":
        find = cpsq.windows.find_representations
        return [(find, t) for t in plan["targets"]]
    lo, hi = plan["dusart"]
    dusart, rosser = cpsq.primes.check_dusart, cpsq.primes.check_rosser
    return (
        [(dusart, n) for n in range(lo, hi)]
        + [(rosser, n) for n in range(1, plan["rosser_max"] + 1)]
        + [(_full_verification, plan["grid"])]
    )


def _signature(result):
    """A result reduced to plain data, to compare passes and check outputs."""
    if isinstance(result, Exception):
        return ["error", type(result).__name__]
    if isinstance(result, list):  # find_representations or full_verification
        if result and hasattr(result[0], "verdict"):
            return [[r.label, r.x_or_m, r.verdict, r.applicable, r.observed] for r in result]
        return [[r.start_index, r.length, r.value] for r in result]
    if hasattr(result, "passed"):  # DusartCheck
        return [result.pi_value, result.passed]
    return [result.observed, result.verdict]  # Rosser BoundReport


def _shift_gc_phase(pass_index: int, ballast: list) -> None:
    """Start each pass at another point of the generation-0 collection cycle.

    The ops allocate the same way in every pass, so without this a
    collection lands on the same ops each time and their median repeat
    keeps it; p99 of the verify sweep then sits on that cliff.
    """
    ballast.clear()
    gc.collect()
    ballast.extend([] for _ in range(pass_index * 211 % gc.get_threshold()[0]))


def mode_lib(plan: dict, out: str, passes: range, trace_out: str | None) -> None:
    import numpy as np

    import calibrate
    import cpsq.bounds
    from spans import SETUP_OP, verdict_tallies

    tracer = _tracer(trace_out)
    t0 = perf_counter()
    table = _provision(plan)
    setup_s = perf_counter() - t0
    ops = _ops(plan)
    n = len(ops)
    # each pass's latencies go to disk at once, so the worker's memory
    # (peak_rss_mb) does not grow with the number of passes
    rows = open(out + ".f64", "wb")
    lat = np.empty(n, dtype=np.int64)
    pass_walls: list[float] = []
    raw_pass_walls: list[float] = []
    first = None
    mismatched: list[list[int]] = []
    tallies = None
    ballast: list = []
    before = calibrate.probe()
    for p in passes:
        _shift_gc_phase(p, ballast)
        results = [None] * n
        start = perf_counter_ns()
        for i, (fn, arg) in enumerate(ops):
            if tracer:
                tracer.op = i
            t = perf_counter_ns()
            try:
                results[i] = fn(arg, table)
            except Exception as exc:  # a failed op is counted, not fatal
                results[i] = exc
            lat[i] = perf_counter_ns() - t
        raw_pass_walls.append((perf_counter_ns() - start) / 1e9)
        if tracer:
            tracer.op = SETUP_OP
        after = calibrate.probe()
        pass_walls.append(calibrate.scale(raw_pass_walls[-1], before, after))
        rows.write(calibrate.scale(lat, before, after).tobytes())
        before = after
        sigs = [_signature(r) for r in results]
        if first is None:
            first = sigs
            if plan["workload"] == "verify-sweep" and isinstance(results[-1], list):
                tallies = verdict_tallies(results[-1])
        else:
            mismatched.append([i for i in range(n) if sigs[i] != first[i]])
        del results, sigs
    rows.close()
    spans = tracer.write_jsonl(trace_out) if tracer else 0
    _write(out, {
        "setup_s": setup_s,
        "pass_walls": pass_walls,
        "raw_pass_walls": raw_pass_walls,
        "ops_per_pass": n,
        "outputs": first,
        "mismatched": mismatched,
        "informational_labels": sorted(cpsq.bounds.INFORMATIONAL_LABELS),
        "full_verification_tallies": tallies,
        "spans": spans,
    })


# ---------------------------------------------------------------------------
# one traced CLI op: cpsq.cli.main in this fresh process
# ---------------------------------------------------------------------------

def mode_cli_op(stdout_path: str, trace_out: str, argv: list[str]) -> int:
    import cpsq.cli

    tracer = _tracer(trace_out)
    tracer.op = 0
    with open(stdout_path, "w") as sink, contextlib.redirect_stdout(sink):
        code = tracer.span("cli.main", cpsq.cli.main, argv)
    tracer.write_jsonl(trace_out)
    return code


def _write(path: str, data: dict) -> None:
    with open(path, "w") as f:
        json.dump(data, f)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "lib", "cli-op"))
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace-out", default=None)
    if "--" in argv:
        split = argv.index("--")
        ns, rest = parser.parse_args(argv[:split]), argv[split + 1 :]
    else:
        ns, rest = parser.parse_args(argv), []
    if ns.mode == "cli-op":
        return mode_cli_op(ns.paths[0], ns.trace_out, rest)
    with open(ns.paths[0]) as f:
        plan = json.load(f)
    if ns.mode == "setup":
        mode_setup(plan, ns.paths[1], ns.trace_out)
    else:
        mode_lib(plan, ns.paths[1], range(ns.first_pass, ns.first_pass + ns.passes), ns.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
