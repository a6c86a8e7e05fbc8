"""What the benchmark under perfbench/ reads from the package: the call sites
its tracer wraps, the set-up its workers run and the results they reduce.
perfbench/selftest.py checks all of it in about a minute; these checks catch
a renamed or reshaped function in well under a second. The perfbench modules
are loaded by path, as they are, with the package's own modules imported
as usual."""

import importlib
import importlib.util
from pathlib import Path

from cpsq import sieve_primes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
worker = load("worker")


def test_every_wrapped_call_site_is_a_callable():
    missing = [
        f"cpsq.{module}.{attr}"
        for module, attr, *_ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"cpsq.{module}"), attr, None))
    ]
    assert missing == []


def test_set_up_provisions_a_table_for_cli_and_library_plans():
    for plan in (
        {"kind": "cli", "ops": [["count", "1000000"]], "table_limit": 1000},
        {"kind": "lib", "table_limit": 1000},
    ):
        table = worker._provision(plan)
        assert table.limit >= 1000 and table.primes[-1] == 997


def test_library_results_reduce_to_their_signatures():
    table = sieve_primes(10**4)
    sweep = {"workload": "verify-sweep", "dusart": (17, 20), "rosser_max": 3, "grid": [1000]}
    find = {"workload": "find-mix", "targets": [4, 87, 88]}
    signatures = [worker._signature(op(arg, table)) for op, arg in worker._ops(sweep)]
    assert signatures[:3] == [[7, True], [7, True], [8, True]]  # pi(17), pi(18), pi(19)
    assert signatures[3:6] == [[2, "pass"], [3, "pass"], [5, "pass"]]  # p_1, p_2, p_3
    assert signatures[6] and all(len(row) == 5 for row in signatures[6])
    signatures = [worker._signature(op(arg, table)) for op, arg in worker._ops(find)]
    assert signatures == [[[1, 1, 4]], [[1, 4, 87]], []]  # 87 = 2^2 + 3^2 + 5^2 + 7^2
