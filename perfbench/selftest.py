"""Self-test of the benchmark itself, on tiny variants of all its workloads.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --scale tiny`` with ``--trace 0`` and
``--trace 1`` and checks that every metric BENCHMARK.json names comes out
with its unit and that the outputs were judged correct. It then runs each
workload with ``--perturb-reference`` (one expected value off by one) and
checks that the run reports the failure in ``failed`` and ``fail_ratio``
and exits 1. Last, it copies only BENCHMARK.json and this directory into a
scratch directory and checks that run.py exits non-zero there without
printing a result. Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_plan  # noqa: E402


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "0.5", "--scale", "tiny", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def expect_metrics(result: dict, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{kind}: expected {want}, got {got}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if kind == "end_to_end":
            assert m["value"] > 0, f"{name} must never be 0"


def fail_ratio(lines: list[str]) -> float:
    (line,) = [ln for ln in lines if ln.split()[:1] == ["fail_ratio"]]
    return float(line.split()[1])


def check_workload(workload: str) -> None:
    code, lines = run(workload, "--trace", "0")
    result = result_of(lines)
    assert code == 0 and result["correct"] and result["failed"] == 0, (workload, code, result)
    assert fail_ratio(lines) == 0.0
    expect_metrics(result, "end_to_end")

    code, lines = run(workload, "--trace", "1")
    result = result_of(lines)
    assert code == 0 and result["correct"], (workload, code, result)
    expect_metrics(result, "per_layer")
    assert result["metrics"]["trace.overhead"]["value"] > 0
    spans = [json.loads(ln) for ln in (ROOT / ".perfbench_out" / f"trace-{workload}-tiny.jsonl").open()]
    assert spans, "traced run wrote no spans"
    ids = {(s["proc"], s["id"]) for s in spans}
    assert all(s["parent"] == 0 or (s["proc"], s["parent"]) in ids for s in spans), "orphan span"

    code, lines = run(workload, "--trace", "0", "--perturb-reference")
    result = result_of(lines)
    assert code == 1 and not result["correct"] and result["failed"] >= 1, (workload, code, result)
    printed, exact = fail_ratio(lines), result["failed"] / result["attempted"]
    assert exact > 0 and math.isclose(printed, exact, rel_tol=1e-5), (printed, exact)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("count-1e12", "--trace", "0", cwd=bare)
        assert code != 0, "run.py succeeded without the program's sources"
        assert not any(ln.startswith("{") for ln in lines), "printed a result without sources"
    finally:
        shutil.rmtree(bare)


def check_seeding() -> None:
    for workload in WORKLOADS:
        assert make_plan(workload, 3, "tiny") == make_plan(workload, 3, "tiny")
        assert make_plan(workload, 3, "tiny") != make_plan(workload, 4, "tiny")


def main() -> int:
    check_seeding()
    for workload in WORKLOADS:  # find-mix too, though BENCHMARK.json leaves it out
        check_workload(workload)
        print(f"selftest: {workload} ok", flush=True)
    check_bare_directory()
    print("selftest: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
