"""Span tracing installed from outside the program, and per-layer metrics.

``install`` replaces public functions of the ``cpsq`` modules, as bound in
the modules that call them, with wrappers that record a span: name, start,
end, parent span and the op it belongs to. Counts taken from return values
and file sizes ride on the span as attributes. Spans stay in memory (plain
arrays, since the verify sweep makes ~10^6 of them) and are written as JSON
lines when the worker ends. ``per_layer`` turns those lines back into the
per-layer metrics; nothing under ``src/`` knows about any of it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from time import perf_counter_ns

#: op id of spans recorded during set-up, before the first timed op
SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.op = SETUP_OP
        self._stack = [0]
        self._ids = array("q")
        self._parents = array("q")
        self._ops = array("q")
        self._names = array("q")
        self._starts = array("q")
        self._ends = array("q")
        self._attrs: dict[int, dict] = {}
        self._name_index: dict[str, int] = {}
        self._next_id = 1

    def wrap(self, name: str, fn, attrs_fn=None):
        name_id = self._name_index.setdefault(name, len(self._name_index))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._record(span_id, parent, name_id, start, perf_counter_ns(),
                             {"error": type(exc).__name__})
                raise
            finally:
                self._stack.pop()
            end = perf_counter_ns()
            self._record(span_id, parent, name_id, start, end,
                         attrs_fn(args, result) if attrs_fn else None)
            return result

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (for the benchmark's own calls)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _record(self, span_id, parent, name_id, start, end, attrs) -> None:
        self._ids.append(span_id)
        self._parents.append(parent)
        self._ops.append(self.op)
        self._names.append(name_id)
        self._starts.append(start)
        self._ends.append(end)
        if attrs:
            self._attrs[span_id] = attrs

    def write_jsonl(self, path: str) -> int:
        names = {i: n for n, i in self._name_index.items()}
        with open(path, "w") as out:
            for k, span_id in enumerate(self._ids):
                rec = {
                    "id": span_id,
                    "parent": self._parents[k],
                    "op": self._ops[k],
                    "name": names[self._names[k]],
                    "start_ns": self._starts[k],
                    "end_ns": self._ends[k],
                }
                if span_id in self._attrs:
                    rec["attrs"] = self._attrs[span_id]
                out.write(json.dumps(rec, separators=(",", ":")) + "\n")
        return len(self._ids)


# ---------------------------------------------------------------------------
# counts read at span boundaries
# ---------------------------------------------------------------------------

def _count_attrs(args, report):
    windows = report.multiplicity_count
    return {
        "windows": windows,
        "lengths": report.max_length_seen,
        "collisions": windows - report.distinct_count,
        "value_bytes": 8 * windows,  # computed: one int64 per window value
    }


def _find_attrs(args, reps):
    target, table = args[0], args[1]
    # lengths m with S_m <= target: each one is a binary search in the program
    return {"hits": len(reps),
            "lengths_probed": bisect_right(table.square_prefix, int(target)) - 1}


def _file_bytes(path_arg_index):
    return lambda args, result: {"bytes": os.path.getsize(args[path_arg_index])}


def verdict_tallies(reports) -> dict:
    """Verdicts by label family; an inapplicable check counts as not_applicable."""
    families: dict[str, Counter] = defaultdict(Counter)
    for r in reports:
        family = r.label.split("[")[0].split("/")[0]
        families[family]["not_applicable" if not r.applicable else r.verdict] += 1
    return {f: dict(c) for f, c in sorted(families.items())}


# (module, attribute, span name, attrs) for every call site the layers use
WRAPPED = (
    ("cli", "provision_table", "cli.provision_table", lambda a, r: {"limit": int(a[0])}),
    ("cli", "load_table", "primes.load_table", _file_bytes(0)),
    ("cli", "save_table", "primes.save_table", _file_bytes(1)),
    ("cli", "sieve_primes", "primes.sieve_primes", lambda a, r: {"primes": len(r)}),
    ("cli", "count_sums", "windows.count_sums", _count_attrs),
    ("cli", "values_up_to", "windows.values_up_to", lambda a, r: {"values": len(r)}),
    ("cli", "find_representations", "windows.find_representations", _find_attrs),
    ("cli", "serialize_report", "serialize.serialize_report", lambda a, r: {"chars": len(r)}),
    ("cli", "full_verification", "bounds.full_verification",
     lambda a, r: {"families": verdict_tallies(r)}),
    ("primes", "sieve_primes", "primes.sieve_primes", lambda a, r: {"primes": len(r)}),
    ("primes", "prime_count", "primes.prime_count", None),
    ("primes", "compare_strict", "reports.compare_strict", None),
    ("primes", "check_dusart", "primes.check_dusart", None),
    ("primes", "check_rosser", "primes.check_rosser", None),
    ("windows", "find_representations", "windows.find_representations", _find_attrs),
    ("bounds", "sieve_primes", "primes.sieve_primes", lambda a, r: {"primes": len(r)}),
    ("bounds", "prime_count", "primes.prime_count", None),
    ("bounds", "check_dusart", "primes.check_dusart", None),
    ("bounds", "check_rosser", "primes.check_rosser", None),
    ("bounds", "compare_strict", "reports.compare_strict", None),
    ("bounds", "count_sums", "windows.count_sums", _count_attrs),
    ("bounds", "verify_count_bounds", "bounds.verify_count_bounds", None),
    ("bounds", "check_length_count_bound", "bounds.check_length_count_bound", None),
    ("bounds", "full_verification", "bounds.full_verification",
     lambda a, r: {"families": verdict_tallies(r)}),
)


def install(tracer: Tracer) -> None:
    """Wrap every call site in WRAPPED; the modules must already be importable."""
    import importlib

    for module_name, attr, span_name, attrs_fn in WRAPPED:
        module = importlib.import_module(f"cpsq.{module_name}")
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), attrs_fn))


# ---------------------------------------------------------------------------
# per-layer metrics from the written spans
# ---------------------------------------------------------------------------

def read_jsonl(paths) -> list[dict]:
    spans = []
    for proc, path in enumerate(paths):
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                rec["proc"] = proc
                spans.append(rec)
    return spans


def _median_us(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def _percentile_us(durations_ns, q: float) -> float:
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1] / 1e3


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics over one traced set-up plus one traced pass."""
    by_key = {(s["proc"], s["id"]): s for s in spans}
    child_ns: Counter = Counter()
    for s in spans:
        child_ns[(s["proc"], s["parent"])] += s["end_ns"] - s["start_ns"]

    total_s: Counter = Counter()
    self_s: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    attrs: Counter = Counter()
    verdicts: Counter = Counter()
    misses = 0
    for s in spans:
        name = s["name"]
        dur = s["end_ns"] - s["start_ns"]
        total_s[name] += dur / 1e9
        self_s[name] += (dur - child_ns[(s["proc"], s["id"])]) / 1e9
        durations[name].append(dur)
        for key, value in s.get("attrs", {}).items():
            if key == "families":
                for tally in value.values():
                    verdicts.update(tally)
            elif isinstance(value, int):
                attrs[f"{name}.{key}"] += value
        if name == "primes.sieve_primes" and _has_ancestor(s, by_key, "cli.provision_table"):
            misses += 1
    hits = len(durations["cli.provision_table"]) - misses

    find = durations["windows.find_representations"]
    return {
        "windows.count_sums_s": total_s["windows.count_sums"],
        "windows.count_sums.windows": attrs["windows.count_sums.windows"],
        "windows.count_sums.lengths": attrs["windows.count_sums.lengths"],
        "windows.count_sums.collisions": attrs["windows.count_sums.collisions"],
        "windows.count_sums.value_bytes": attrs["windows.count_sums.value_bytes"],
        "windows.values_up_to_s": total_s["windows.values_up_to"],
        "windows.values_up_to.values": attrs["windows.values_up_to.values"],
        "windows.find_representations_p50_us": _median_us(find),
        "windows.find_representations_p99_us": _percentile_us(find, 99),
        "windows.find_representations.calls": len(find),
        "windows.find_representations.hits": attrs["windows.find_representations.hits"],
        "windows.find_representations.lengths_probed":
            attrs["windows.find_representations.lengths_probed"],
        "primes.sieve_primes_s": total_s["primes.sieve_primes"],
        "primes.save_table_s": total_s["primes.save_table"],
        "primes.save_table.bytes": attrs["primes.save_table.bytes"],
        "primes.load_table_s": total_s["primes.load_table"],
        "primes.load_table.bytes": attrs["primes.load_table.bytes"],
        "cli.provision_table_s": total_s["cli.provision_table"],
        "cli.provision_table.hits": hits,
        "cli.provision_table.misses": misses,
        "cli.main.self_s": self_s["cli.main"],
        "primes.check_dusart_us": _median_us(durations["primes.check_dusart"]),
        "primes.check_rosser_us": _median_us(durations["primes.check_rosser"]),
        "primes.prime_count_us": _median_us(durations["primes.prime_count"]),
        "reports.compare_strict_us": _median_us(durations["reports.compare_strict"]),
        "reports.compare_strict.calls": len(durations["reports.compare_strict"]),
        "bounds.full_verification_s": total_s["bounds.full_verification"],
        "bounds.verify_count_bounds_s": total_s["bounds.verify_count_bounds"],
        "bounds.check_length_count_bound_us":
            _median_us(durations["bounds.check_length_count_bound"]),
        "bounds.verdict.pass": verdicts["pass"],
        "bounds.verdict.fail": verdicts["fail"],
        "bounds.verdict.inconclusive": verdicts["inconclusive"],
        "bounds.verdict.not_applicable": verdicts["not_applicable"],
        "serialize.serialize_report_s": total_s["serialize.serialize_report"],
        "trace.spans": len(spans),
    }


def _has_ancestor(span: dict, by_key: dict, name: str) -> bool:
    parent = by_key.get((span["proc"], span["parent"]))
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_key.get((parent["proc"], parent["parent"]))
    return False
