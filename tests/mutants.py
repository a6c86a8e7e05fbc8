"""A mutant battery: small faults planted in the package, each of which a
named test must catch.

Each mutant is (file under src/cpsq, exact snippet, replacement, test
ids). For each one the runner copies src/ to a temporary directory,
replaces the snippet there, and runs its tests against the copy with
``pytest -x -q``. A mutant whose tests all pass survives. Before the
mutants, the same tests run once against an unmutated copy, so that a
kill is the mutant's doing and not the copy's.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py 3 7        # mutants 3 and 7, by list index

It prints one line a mutant and exits 1 if any survives, 2 if the
unmutated copy fails its tests. It is not part of the test suite; the
suite checks only that every snippet still occurs exactly once.

A test that starts a child process can kill a mutant too: the CLI, demo
and start-up tests give the child the source tree the test process
imported the package from, which here is the mutated copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


W = "tests/test_windows.py::"
DIGEST = "tests/test_golden_outputs.py::test_output_matches_its_pinned_digest"
WRAP = "tests/test_wraparound.py::test_the_wrap_index_answers_as_the_exact_sums"

MUTANTS = [
    # the class split
    Mutant(
        "windows.py",
        "residues = (heads % _CLASSES).astype(np.uint8)",
        "residues = (np.r_[1 : c.size + 1, 1 : twos + 1] % _CLASSES).astype(np.uint8)",
        # heads placed by their length's class: no head window repeats a
        # value below 10^16, so only the placement shows it
        (W + "test_each_class_holds_the_windows_of_its_residue",),
    ),
    Mutant(
        "windows.py",
        "return sum(distinct(r) for r in range(_CLASSES))",
        "return sum(distinct(r) for r in range(1, _CLASSES))",
        # class 0 fills first at the length-24 windows, S_24 = 56,387
        (W + "test_split_counts_match_oracle", W + "test_split_refuses_on_the_classes_held_at_once"),
    ),
    Mutant(
        "windows.py",
        "np.subtract(sp[m + 2 : m + n], sp[2:n], out=values[end : end + n - 2])",
        "np.subtract(sp[m + 1 : m + n - 1], sp[1 : n - 1], out=values[end : end + n - 2])",
        (W + "test_each_class_holds_the_windows_of_its_residue",),
    ),
    Mutant(
        "windows.py",
        "9 * int(sizes.max())",
        "9 * int(sizes.min())",
        (W + "test_split_refuses_on_the_classes_held_at_once",),
    ),
    Mutant(
        "windows.py",
        "_refuse_past_ceiling(counts, 9 * int(sizes.max()) + 32 * heads.size)",
        "_refuse_past_ceiling(counts, 9 * int(sizes.max()))",
        (W + "test_split_refuses_on_the_classes_held_at_once",),
    ),
    # the one-piece fill and the ceiling
    Mutant(
        "windows.py",
        "_refuse_past_ceiling(counts, 9 * total)",
        "_refuse_past_ceiling(counts, 9 * total - 1)",
        (W + "test_dedup_refuses_past_the_byte_ceiling",),
    ),
    Mutant(
        "windows.py",
        "if need > MAX_DEDUP_BYTES:",
        "if need >= MAX_DEDUP_BYTES:",
        (W + "test_dedup_refuses_past_the_byte_ceiling",),
    ),
    Mutant(
        "windows.py",
        "need = held + _LENGTH_BYTES * len(counts)",
        "need = held",
        (W + "test_dedup_refuses_past_the_byte_ceiling",),
    ),
    # the dedup sort
    Mutant(
        "windows.py",
        "        if (values[hits] == values[hits - 1]).all():\n            return hits\n",
        "        return hits\n",
        (W + "test_dedup_sort_finds_the_repeats_after_mending_a_float_order",),
    ),
    Mutant(
        "windows.py",
        "if values.size and values.max() < _NOT_FINITE and _LEAST_DOUBLE > 0:",
        "if values.size and _LEAST_DOUBLE > 0:",
        (W + "test_dedup_sort_is_the_integer_order",),
    ),
    Mutant(
        "windows.py",
        "if values.size and values.max() < _NOT_FINITE and _LEAST_DOUBLE > 0:",
        "if values.size and values.max() < _NOT_FINITE:",
        (W + "test_dedup_sort_skips_doubles_where_denormals_compare_as_zero",),
    ),
    # values_up_to's compaction
    Mutant(
        "windows.py",
        "ends = [*_sort(values).tolist(), total]",
        "ends = _sort(values).tolist()",
        (W + "test_dedup_at_every_repeated_value",),
    ),
    Mutant(
        "windows.py",
        "for shift, (r, end) in enumerate(zip(ends, ends[1:]), 1):",
        "for shift, (r, end) in enumerate(zip(ends, ends[1:])):",
        (W + "test_dedup_at_every_repeated_value",),
    ),
    Mutant(
        "windows.py",
        "distinct.flags.writeable = False",
        "distinct.flags.writeable = True",
        (W + "test_values_up_to_is_a_read_only_uint64_array",),
    ),
    # the walk
    Mutant(
        "windows.py",
        "m = m[: np.count_nonzero(fits)]",
        "m = m[: m.size]",
        ("tests/test_wraparound.py::test_count_windows_ends_a_block_before_its_probes_wrap",),
    ),
    # the table's wrap index
    Mutant(
        "primes.py",
        'int(self._wraps.searchsorted(k, "right"))',
        'int(self._wraps.searchsorted(k, "left"))',
        (WRAP,),
    ),
    Mutant(
        "primes.py",
        "self._wraps = np.flatnonzero(prefix[1:] < prefix[:-1]) + 1",
        "self._wraps = np.flatnonzero(prefix[1:] < prefix[:-1])",
        (WRAP,),
    ),
    Mutant(
        "primes.py",
        "if quotient > self._wraps.size:",
        "if quotient >= self._wraps.size:",
        (WRAP,),
    ),
    Mutant(
        "primes.py",
        "if quotient < self._wraps.size else len(self) + 1",
        "if quotient < self._wraps.size else len(self)",
        (WRAP,),
    ),
    Mutant(
        "primes.py",
        'searchsorted(np.uint64(rest), "right")',
        'searchsorted(np.uint64(rest), "left")',
        (WRAP,),
    ),
    Mutant(
        "primes.py",
        "        if x < 0:\n",
        "        if x < -1:\n",
        (WRAP,),
    ),
    # the tables, the reports and the renderer
    Mutant(
        "primes.py",
        "if primes[0] != 2 and limit >= 2:",
        "if False:  # the p_1 = 2 check deleted",
        ("tests/test_primes.py::test_cache_rejects_primes_that_do_not_start_at_2",),
    ),
    Mutant(
        "primes.py",
        "if primes.size > 1 and np.any(primes[1:] % 2 == 0):",
        "if False:  # the even-entry check deleted",
        ("tests/test_primes.py::test_cache_rejects_an_even_entry_past_2",),
    ),
    Mutant(
        "primes.py",
        "if not 0 <= k < sp.size:",
        "if not k < sp.size:",
        ("tests/test_primes.py::test_prefix_sum_outside_the_table_names_the_range",),
    ),
    Mutant(
        "reports.py",
        "verdict = compare_strict(lhs, rhs) if applicable else INCONCLUSIVE",
        "verdict = compare_strict(lhs, rhs)",
        ("tests/test_bounds.py::test_strict_report_draws_no_conclusion_outside_the_range",),
    ),
    Mutant(
        "reports.py",
        "if verdict is None:",
        "if True:",
        ("tests/test_bounds.py::test_strict_report_takes_a_verdict_passed_in",),
    ),
    Mutant(
        "bounds.py",
        "verdict=FAIL if observed > pi_cap else None,",
        "verdict=None,",
        ("tests/test_bounds.py::test_length_count_bound_fails_a_count_past_its_pi_cap",),
    ),
    Mutant(
        "serialize.py",
        "text = text[: -len(sep)]  # json's",
        "text = text[:]  # json's",
        ("tests/test_serialize.py::test_write_values_matches_printing_each_value",),
    ),
    Mutant(
        "serialize.py",
        "buffer = text.base  # the whole buffer",
        "buffer = None  # the whole buffer",
        ("tests/test_serialize.py::test_each_chunk_renders_into_the_buffer_the_chunk_before_was_written_from",),
    ),
    Mutant(
        "serialize.py",
        'if not (isinstance(record, tuple) and hasattr(record, "_fields")):',
        "if not isinstance(record, tuple):",
        # a plain tuple has no field names to render by
        ("tests/test_serialize.py::test_record_to_dict_rejects_non_records",),
    ),
    Mutant(
        "bounds.py",
        "exact_m=table.prefix_index(x)",
        "exact_m=table.prefix_index(x - 1)",
        # x = S_10 exactly: the cap is 10, not 9
        ("tests/test_bounds.py::test_window_cap_examples",),
    ),
    # the window cap
    Mutant(
        "bounds.py",
        '    if x < 2:\n        raise ValueError(f"window cap needs',
        '    if x < 1:\n        raise ValueError(f"window cap needs',
        # x = 1 then dies in log(1) = 0, not with the refusal
        ("tests/test_bounds.py::test_window_cap_examples",),
    ),
    Mutant(
        "bounds.py",
        "if x > MAX_LIMIT**3:",
        "if x > MAX_LIMIT**3 + 1:",
        # MAX_LIMIT^3 + 1 reaches the sieve; with the refusal deleted the
        # test would hang at 10^300, where L <- ceil(M ln L) never settles
        ("tests/test_bounds.py::test_window_cap_needing_primes_past_max_limit_is_refused",),
    ),
    Mutant(
        "bounds.py",
        "table.prefix_sum(m_cap)",
        "table.prefix_sum(m_cap - 1)",
        # S_18 for S_19 = 24966 at x = 5000
        ("tests/test_bounds.py::test_substitution_at_5000",),
    ),
    Mutant(
        "bounds.py",
        "if m_cap < 0:",
        "if False:  # the negative-M check deleted",
        ("tests/test_bounds.py::test_square_pyramid_refuses_a_negative_m",),
    ),
    Mutant(
        "bounds.py",
        '    if not 1 < x <= sys.float_info.max:\n        raise ValueError(f"lower',
        '    if False:\n        raise ValueError(f"lower',
        ("tests/test_bounds.py::test_lower_bound_values",),
    ),
    # the command line
    Mutant(
        "cli.py",
        "        if x < 2:\n            raise argparse.ArgumentTypeError(",
        "        if x < 1:\n            raise argparse.ArgumentTypeError(",
        ("tests/test_cli.py::test_help_and_usage_errors_keep_their_text",),
    ),
    Mutant(
        "cli.py",
        "if out is None:  # a text-only stdout",
        "if False:  # a text-only stdout",
        ("tests/test_cli.py::test_a_text_only_stdout_gets_the_same_text_and_exit_code",),
    ),
    Mutant(
        "cli.py",
        "os.dup2(null, stream.fileno())",
        "os.dup2(null, null)",
        ("tests/test_cli.py::test_an_unwritable_stream_leaves_no_descriptor_open",),
    ),
    Mutant(
        "cli.py",
        "os.dup2(null, stream.fileno())",
        "pass",
        # the fd never redirected, seen from outside: a child that exits 120
        ("tests/test_cli.py::test_an_output_that_cannot_be_written_exits_3",),
    ),
    Mutant(
        "cli.py",
        "def _cmd_count(config: CliConfig) -> _Outcome:",
        "def _cmd_count(config: CliConfig, count_sums=count_sums) -> _Outcome:",
        # bound at import, the handler never sees a rebinding in cpsq.cli
        ("tests/test_cli.py::test_each_command_calls_the_library_through_the_cli_module",),
    ),
    Mutant(
        "cli.py",
        'if config.format != "text":\n        return 0, serialize_report([count_sums(',
        'if config.format == "json":\n        return 0, serialize_report([count_sums(',
        # CSV falls through to the text lines
        (DIGEST + "[count 100 --format csv]",),
    ),
    Mutant(
        "cli.py",
        "max_length={report.max_length_seen} per_length=",
        "per_length=",
        (DIGEST + "[count 1000000000000]",),
    ),
    Mutant(
        "cli.py",
        'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")',
        'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
        # a thread count the caller set is overridden
        ("tests/test_startup.py::test_the_cli_limits_openblas_only_before_numpy_loads",),
    ),
    Mutant(
        "cli.py",
        'if "numpy" not in sys.modules:',
        "if True:",
        # set after numpy loaded, when the pool is already sized
        ("tests/test_startup.py::test_the_cli_limits_openblas_only_before_numpy_loads",),
    ),
    Mutant(
        "cli.py",
        "os.close(null)",
        "os.dup(null)",
        ("tests/test_cli.py::test_an_unwritable_stream_leaves_no_descriptor_open",),
    ),
]

#: mutants that no test can kill, because the program's output is the same
#: with them; each with its reason, as (mutant, reason)
EQUIVALENT = [
    (
        Mutant(
            "windows.py",
            "values[r + 1 - shift : end - shift] = values[r + 1 : end]",
            "values[r - shift : end - shift] = values[r : end]",
            (),
        ),
        "drops the first of each equal pair instead of the second: the two "
        "are equal, and the slot it overwrites was written by the run "
        "before with that same value",
    ),
    (
        Mutant(
            "windows.py",
            "threes = int(np.count_nonzero(c >= 3))",
            "threes = int(np.count_nonzero(c >= 2))",
            (),
        ),
        "the lengths it adds have c_m = 2: no window from a start n >= 3, so "
        "they weigh 0 in the sizes and fill empty slices",
    ),
    (
        Mutant(
            "windows.py",
            "values = np.empty(total, dtype=np.uint64)",
            "values = np.zeros(total, dtype=np.uint64)",
            (),
        ),
        "the fill writes every slot of the one-piece buffer before any is read",
    ),
    (
        Mutant(
            "windows.py",
            "values = np.empty(sizes[r], dtype=np.uint64)",
            "values = np.zeros(sizes[r], dtype=np.uint64)",
            (),
        ),
        "a class's heads and runs fill its buffer, whose size they were counted to",
    ),
    (
        Mutant(
            "serialize.py",
            'if not (isinstance(record, tuple) and hasattr(record, "_fields")):',
            'if not hasattr(record, "_fields"):',
            (),
        ),
        "of what it lets through, only a record class is no tuple, and "
        "zip(record._fields, record) raises a TypeError when it iterates a class",
    ),
    (
        Mutant(
            "bounds.py",
            "while table.prefix_sum(len(table)) <= x:",
            "while table.prefix_sum(len(table)) < x:",
            (),
        ),
        "it keeps a table whose last sum S_K equals x, and prefix_index(x) "
        "is K there as well: S_(K+1) > x, so K is still the exact cap",
    ),
    (
        Mutant(
            "primes.py",
            "np.flatnonzero(prefix[1:] < prefix[:-1])",
            "np.flatnonzero(prefix[1:] <= prefix[:-1])",
            (),
        ),
        "a stored sum equals the one before it only where p_k^2 = 0 mod 2^64, "
        "which for |p_k| <= MAX_LIMIT means p_k = 0: no table of primes holds one",
    ),
]


def source(mutant: Mutant, src: Path = ROOT / "src") -> Path:
    """The module a mutant changes, under the source tree ``src``."""
    return src / "cpsq" / mutant.file


def passes(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether ``tests`` pass with the package imported from ``src``."""
    # no bytecode cache: a mutant of the same size written within the same
    # second as the module it replaced would pass the cache's check
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True)
    return run.returncode == 0


def main(argv: list[str]) -> int:
    chosen = [int(i) for i in argv] or range(len(MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for i in chosen for t in MUTANTS[i].tests})
        if not passes(src, tuple(tests)):
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        survivors = []
        for i in chosen:
            mutant = MUTANTS[i]
            path = source(mutant, src)
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.snippet) != 1:
                raise ValueError(f"mutant {i}: {mutant.snippet!r} is not in {mutant.file} once")
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            try:
                killed = not passes(src, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            line = mutant.replacement.strip().splitlines()[0]
            print(f"{i:3d} {'killed  ' if killed else 'SURVIVED'} {mutant.file}: {line}")
            if not killed:
                survivors.append(i)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
