"""Output checks for each workload, against references from ``reference.py``.

A checker is built before the timed region. ``perturb`` shifts one expected
value by one, so the self-test can show that a wrong answer is counted in
``fail_ratio`` instead of passing silently.
"""

from __future__ import annotations

import json
from math import isqrt
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent


class CountCheck:
    """``cpsq count x --format json`` against exact counts from a sort."""

    def __init__(self, plan: dict, perturb: bool) -> None:
        ref = reference.CountReference(reference.sieve(plan["table_limit"]), max(plan["xs"]))
        reference.check_anchors(ref, ROOT)
        self.expected = [ref.counts(x) for x in plan["xs"]]
        if perturb:
            self.expected[0]["distinct"] += 1
        self.xs = plan["xs"]

    def cli_ok(self, i: int, stdout: bytes) -> bool:
        exp = self.expected[i]
        try:
            (rec,) = json.loads(stdout)
        except ValueError:
            return False
        return (
            rec.get("x") == self.xs[i]
            and rec.get("distinct_count") == exp["distinct"]
            and rec.get("multiplicity_count") == exp["multiplicity"]
            and rec.get("max_length_seen") == exp["max_length"]
            and {int(m): c for m, c in rec.get("per_length", {}).items()} == exp["per_length"]
        )


class ListCheck:
    """``cpsq list x`` against the digest of the sorted distinct values."""

    def __init__(self, plan: dict, perturb: bool) -> None:
        (x,) = plan["xs"]
        ref = reference.CountReference(reference.sieve(plan["table_limit"]), x)
        reference.check_anchors(ref, ROOT)
        values = ref.values(x)
        self.count = int(values.size) + (1 if perturb else 0)
        self.digest = reference.digest(values)

    def cli_ok(self, i: int, stdout: bytes) -> bool:
        try:
            values = np.array(stdout.split(), dtype=np.int64)
        except ValueError:
            return False
        return values.size == self.count and reference.digest(values) == self.digest


class FindCheck:
    """Each returned window recomputed from its prime slice; plants found."""

    def __init__(self, plan: dict, perturb: bool) -> None:
        self.ints = reference.PrefixInts(reference.sieve(plan["table_limit"]))
        self.targets = plan["targets"]
        self.planted = {int(i): tuple(sl) for i, sl in plan["planted"].items()}
        if perturb:
            i = min(self.planted)
            start, length = self.planted[i]
            self.planted[i] = (start + 1, length)

    def failures(self, outputs: list, informational: set[str]) -> set[int]:
        bad = set()
        for i, reps in enumerate(outputs):
            target = self.targets[i]
            if reps and reps[0] == "error":
                bad.add(i)
                continue
            ok = all(
                v == target and self.ints.slice_sum(s, m) == target for s, m, v in reps
            )
            if i in self.planted and list(self.planted[i]) not in [r[:2] for r in reps]:
                ok = False
            if not ok:
                bad.add(i)
        return bad


class VerifyCheck:
    """Sweep verdicts: no fail and no applicable inconclusive; exact sides."""

    def __init__(self, plan: dict, perturb: bool) -> None:
        self.primes = reference.sieve(plan["table_limit"])
        lo, hi = plan["dusart"]
        self.pi = np.searchsorted(self.primes, np.arange(lo, hi), side="right").tolist()
        self.p = self.primes[: plan["rosser_max"]].tolist()
        if perturb:
            self.pi[0] += 1

    def failures(self, outputs: list, informational: set[str]) -> set[int]:
        bad = set()
        n_dusart, n_rosser = len(self.pi), len(self.p)
        for i in range(n_dusart):
            if outputs[i] != [self.pi[i], True]:
                bad.add(i)
        for j in range(n_rosser):
            if outputs[n_dusart + j] != [self.p[j], "pass"]:
                bad.add(n_dusart + j)
        last = n_dusart + n_rosser
        if not self._battery_ok(outputs[last], informational):
            bad.add(last)
        return bad

    def _battery_ok(self, reports: list, informational: set[str]) -> bool:
        if not reports or reports[0] == "error":
            return False
        grid = sorted({x for label, x, *_ in reports if label.startswith("count-")})
        ref = reference.CountReference(self.primes, grid[-1]) if grid else None
        for label, x, verdict, applicable, observed in reports:
            if applicable and verdict != "pass" and label not in informational:
                return False
            if label.startswith("count-"):
                kind = label.split("/")[1]
                if kind == "pi-sqrt":
                    expected = int(np.searchsorted(self.primes, isqrt(x), side="right"))
                else:
                    expected = ref.counts(x)[kind]
                if observed != expected:
                    return False
        return True


CHECKS = {
    "count-1e12": CountCheck,
    "list-1e11": ListCheck,
    "find-mix": FindCheck,
    "verify-sweep": VerifyCheck,
}
