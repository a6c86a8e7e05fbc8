"""One run of one cpsq benchmark workload.

    python3 perfbench/run.py --workload count-1e12 --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout; it benchmarks the package in
that checkout's ``src/``. The load is a closed loop with one client: each op
starts when the previous one has ended, and nothing runs in parallel. CLI
workloads start ``python -m cpsq.cli`` once per op; library workloads run
their ops in fresh worker processes, one after another. Every process gets
its own empty ``CPSQ_CACHE_DIR`` inside the checkout, so no run sees
another's cache or module state and ``~/.cache/cpsq`` is never touched.

The run makes a fixed number of whole passes over the workload's ops, set
by the workload and ``--seconds`` alone (``workloads.pass_count``): about
``--seconds`` of op time on the seed code. Op times are scaled to a nominal
machine speed (``calibrate.py``). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` measures the same way, then runs one traced set-up
and one traced pass and prints the per-layer metrics. Human-readable lines come first; the last
line is one JSON object. Details and the environment go to
``.perfbench_out/``. The exit code is 0 when every output was correct, 1
when one was not, and 2 when nothing could be measured.
"""

from __future__ import annotations

import os

# numpy must not start a thread pool in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 11
#: bare ``import cpsq.cli`` probes per traced run; cli.import_s is their median
IMPORT_PROBES = 5
#: library runs share their passes out over this many fresh workers, since
#: where objects land in memory differs per process and moves the op times
#: of all its passes (the verify sweep's op_p50_ms by up to 12%)
LIB_WORKERS = 4


class Tally:
    """Ops attempted and ops whose output failed its check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


class Measurement:
    """Each op's time (the median of its scaled repeats), the pass walls
    (scaled and as measured) and peak RSS of one phase."""

    def __init__(self) -> None:
        self.op_ns: list[float] = []
        self.pass_walls: list[float] = []
        self.raw_pass_walls: list[float] = []
        self.max_rss_kb = 0


class Bench:
    def __init__(self, plan: dict, check, tmp: Path) -> None:
        self.plan = plan
        self.check = check
        self.tmp = tmp
        self.tally = Tally()
        self.plan_path = tmp / "plan.json"
        self.plan_path.write_text(json.dumps(plan))
        self._dirs = 0

    # -- processes --------------------------------------------------------

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{prefix}-{self._dirs}"
        path.mkdir()
        return path

    def env(self, cache_dir: Path) -> dict:
        # no inherited PYTHON* setting (PYTHONUNBUFFERED makes `list` ~2x
        # slower) and no CPSQ_* one: the program sees only what is set here
        env = {k: v for k, v in os.environ.items() if not k.startswith(("CPSQ_", "PYTHON"))}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["CPSQ_CACHE_DIR"] = str(cache_dir)  # overrides --cache-dir and ~/.cache
        env["XDG_CACHE_HOME"] = str(self.tmp)
        return env

    def spawn(self, argv: list[str], cache_dir: Path, stdout: Path, stderr: Path):
        """Run one child to completion: (exit code, wall ns, peak RSS KiB)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env(cache_dir), cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def worker(self, mode: str, options: list[str], cache_dir: Path):
        """Run worker.py; returns its JSON result, its path and its peak RSS."""
        out = self.tmp / f"{mode}.json"
        code, _, rss = self.spawn(
            [sys.executable, str(HERE / "worker.py"), mode, str(self.plan_path), str(out), *options],
            cache_dir, self.tmp / f"{mode}.stdout", self.tmp / f"{mode}.stderr",
        )
        if code != 0:
            tail = (self.tmp / f"{mode}.stderr").read_text()[-2000:]
            raise RuntimeError(f"worker {mode} exited {code}:\n{tail}")
        return json.loads(out.read_text()), out, rss

    # -- set-up -----------------------------------------------------------

    def setup(self, trace_out: Path | None = None):
        """One cold set-up in a fresh process; returns (seconds, its cache dir)."""
        cache = self.fresh_dir("cache")
        extra = ["--trace-out", str(trace_out)] if trace_out else []
        res, _, _ = self.worker("setup", extra, cache)
        if not Path(res["cpsq_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported cpsq from {res['cpsq_file']}, not from {ROOT / 'src'}")
        return res["setup_s"], cache

    def setup_probes(self, count: int):
        """Cold set-ups in fresh processes, each scaled by the speed probes
        on either side of it; the last one's cache is left warm."""
        times, cache = [], None
        before = calibrate.probe()
        for _ in range(count):
            if cache is not None:
                shutil.rmtree(cache)
            seconds, cache = self.setup()
            after = calibrate.probe()
            times.append(calibrate.scale(seconds, before, after))
            before = after
        return times, cache

    def import_probes(self) -> list[float]:
        code = "import time; t = time.perf_counter(); import cpsq.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(IMPORT_PROBES):
            out = self.tmp / "import.stdout"
            rc, _, _ = self.spawn([sys.executable, "-c", code], self.tmp, out, self.tmp / "import.stderr")
            if rc != 0:
                raise RuntimeError("bare import of cpsq.cli failed")
            times.append(float(out.read_text()))
        return times

    # -- timed phases -----------------------------------------------------

    def measure_cli(self, warm_cache: Path, span_files: list | None = None):
        """The plan's passes over the CLI ops; traced runs do exactly one pass."""
        m = Measurement()
        repeats = []
        for _ in range(1 if span_files is not None else self.plan["passes"]):
            pass_ns = raw_ns = 0
            lat = []
            before = calibrate.probe()
            for i, argv in enumerate(self.plan["ops"]):
                cache = self.fresh_dir("cache") if self.plan["fresh_cache_per_op"] else warm_cache
                stdout = self.tmp / "op.stdout"
                if span_files is None:
                    cmd, sink = [sys.executable, "-m", "cpsq.cli", *argv], stdout
                else:
                    span_files.append(self.tmp / f"spans-op{len(span_files)}.jsonl")
                    cmd = [sys.executable, str(HERE / "worker.py"), "cli-op", str(stdout),
                           "--trace-out", str(span_files[-1]), "--", *argv]
                    sink = self.tmp / "worker.stdout"
                code, wall, rss = self.spawn(cmd, cache, sink, self.tmp / "op.stderr")
                after = calibrate.probe()
                ok = code == 0 and self.check.cli_ok(i, stdout.read_bytes())
                self.tally.add(1, 0 if ok else 1)
                lat.append(calibrate.scale(wall, before, after))
                before = after
                m.max_rss_kb = max(m.max_rss_kb, rss)
                pass_ns += lat[-1]
                raw_ns += wall
                if cache is not warm_cache:
                    shutil.rmtree(cache)
            m.pass_walls.append(pass_ns / 1e9)
            m.raw_pass_walls.append(raw_ns / 1e9)
            repeats.append(lat)
        m.op_ns = [statistics.median(op) for op in zip(*repeats)]
        return m

    def measure_lib(self, trace_out: Path | None = None):
        """Workers that each set up, then run their share of the plan's
        passes (one worker with one pass when traced); every worker's
        outputs are checked."""
        import numpy as np

        if trace_out:
            shares, extra = [range(1)], ["--trace-out", str(trace_out)]
        else:
            shares, extra = np.array_split(range(self.plan["passes"]), LIB_WORKERS), []
        m = Measurement()
        repeats, first = [], None
        for share in shares:
            if not len(share):
                continue
            res, out, rss = self.worker("lib", ["--first-pass", str(share[0]), "--passes", str(len(share)),
                                                *extra], self.fresh_dir("cache"))
            bad = self.check.failures(res["outputs"], set(res["informational_labels"]))
            n = res["ops_per_pass"]
            self.tally.add(n, len(bad))
            for mismatched in res["mismatched"]:
                self.tally.add(n, len(bad | set(mismatched)))
            repeats.append(np.fromfile(str(out) + ".f64").reshape(len(share), n))
            m.pass_walls += res["pass_walls"]
            m.raw_pass_walls += res["raw_pass_walls"]
            m.max_rss_kb = max(m.max_rss_kb, rss)
            first = first or res
        m.op_ns = np.median(np.concatenate(repeats), axis=0).tolist()
        return m, first

    def measure(self, warm_cache: Path):
        if self.plan["kind"] == "cli":
            return self.measure_cli(warm_cache), None
        return self.measure_lib()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_latency(latencies_ms: list[float]) -> tuple[float, str]:
    """p99 with >= 1000 samples; else the highest percentile with >= 10
    samples beyond it; with 10 or fewer samples, the maximum."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n >= 1000:
        return ordered[math.ceil(0.99 * n) - 1], "p99"
    if n > 10:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"
    return ordered[-1], "p100"


def end_to_end(m: Measurement, setup_times: list[float], tally: Tally) -> tuple[dict, dict]:
    """The end-to-end metrics of one run.

    The machine is shared and its speed moves in steps over seconds to
    minutes. Each op's time is scaled to a nominal machine speed by the
    speed probes on either side of it (``calibrate.py``), which takes out
    the steps that outlast a run. Each op then counts once, at the median
    of its repeats, which are whole passes spread over the whole run, and a
    pass is the sum of those. The median, not the fastest repeat: the noise
    left after scaling goes both ways, and on the verify sweep the tail of
    per-op minima moved by 40% from process to process, that of per-op
    medians by 4%.
    """
    passes = len(m.pass_walls)
    op_ms = [ns / 1e6 for ns in m.op_ns]
    tail, tail_label = tail_latency(op_ms)
    wall = math.fsum(op_ms) / 1e3
    values = {
        "wall_s": wall,
        "op_p50_ms": statistics.median(op_ms),
        "op_p99_ms": tail,
        "ops_per_s": len(op_ms) / wall,
        "peak_rss_mb": m.max_rss_kb / 1024,
        "setup_s": statistics.median(setup_times),
        "fail_ratio": tally.failed / tally.attempted,
    }
    repeats = f"{len(op_ms)} ops, each the median of {passes} repeats"
    notes = {
        "wall_s": f"one pass of {len(op_ms)} ops, each at the median of {passes} repeats, "
                  f"at nominal speed (median pass as measured: {statistics.median(m.raw_pass_walls):.4g} s)",
        "op_p50_ms": f"median over {repeats}",
        "op_p99_ms": f"{tail_label} over {repeats}",
        "ops_per_s": f"{len(op_ms)} ops in wall_s",
        "peak_rss_mb": "max ru_maxrss of the program processes",
        "setup_s": f"median of {len(setup_times)} fresh-process set-ups, at nominal speed",
        "fail_ratio": f"{tally.failed} of {tally.attempted} ops failed",
    }
    return values, notes


def report(spec: dict, args, values: dict, notes: dict, tally: Tally, extra: dict) -> int:
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[key]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    for name, value in values.items():
        unit = units.get(name, "ratio")  # fail_ratio is the one not in BENCHMARK.json
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {value:>16.6g} {unit}{note}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, all_metrics=values, notes=notes, **extra)
    (OUT_DIR / f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


def run(args, spec: dict, tmp: Path) -> int:
    import environment
    from checks import CHECKS
    from workloads import make_plan, pass_count

    env_info = environment.capture()
    print("env " + json.dumps(env_info))
    plan = make_plan(args.workload, args.seed, args.scale)
    plan["passes"] = pass_count(args.workload, args.scale, args.seconds)
    check = CHECKS[args.workload](plan, args.perturb_reference)
    bench = Bench(plan, check, tmp)

    # half the set-up probes before the measured phase and half after, so
    # that their median does not hang on one moment of a drifting machine
    setup_times, warm_cache = bench.setup_probes(SETUP_PROBES // 2 + 1)
    measured, lib_result = bench.measure(warm_cache)
    setup_times += bench.setup_probes(SETUP_PROBES // 2)[0]
    values, notes = end_to_end(measured, setup_times, bench.tally)
    extra = {"env": env_info, "pass_walls": measured.pass_walls,
             "raw_pass_walls": measured.raw_pass_walls, "setup_times": setup_times}
    if lib_result and lib_result.get("full_verification_tallies"):
        extra["full_verification_tallies"] = lib_result["full_verification_tallies"]
    if not args.trace:
        return report(spec, args, values, notes, bench.tally, extra)

    import spans

    if plan["kind"] == "cli":
        files = [tmp / "spans-setup.jsonl"]
        _, traced_cache = bench.setup(trace_out=files[0])
        traced = bench.measure_cli(traced_cache, span_files=files)
    else:
        files = [tmp / "spans-lib.jsonl"]
        traced, _ = bench.measure_lib(trace_out=files[0])
    records = spans.read_jsonl(files)
    layer = spans.per_layer(records)
    layer["cli.import_s"] = statistics.median(bench.import_probes())
    layer["trace.overhead"] = traced.pass_walls[0] / statistics.median(measured.pass_walls)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.scale}.jsonl"
    with open(trace_path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
    notes = {
        "trace.overhead": f"traced pass {traced.pass_walls[0]:.4g} s / median untraced pass "
                          f"{statistics.median(measured.pass_walls):.4g} s",
        "trace.spans": f"written to {trace_path.relative_to(ROOT)}",
    }
    extra["end_to_end_untraced"] = values
    return report(spec, args, layer, notes, bench.tally, extra)


def main(argv: list[str] | None = None) -> int:
    from workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny: seconds-long inputs for the self-test")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="shift one expected value by one (self-test of the checks)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cpsq" / "__init__.py").is_file():
        print(f"error: no cpsq package under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    TMP_DIR.mkdir(exist_ok=True)
    # a terminated run still kills its child process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
    try:
        return run(args, spec, tmp)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
