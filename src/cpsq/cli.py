"""Command line front end.

Subcommands: count, list, find, maxlen, verify, table-check. Results go to
stdout in text (default), JSON, or CSV; diagnostics go to stderr. Every
command writes ASCII bytes with "\n" line ends to stdout's binary layer,
whatever stdout's encoding, and ends its output with one newline. Exit
codes: 0 success / all checks pass, 1 a bound check failed, 2 bad usage or
argument values, 3 a resource refusal (sieve request too large) or an
output that cannot be written (a full disk, a stdout not open for writing).

A reader that closes stdout early (``cpsq list 1e10 | head``) ends the
output quietly: the command keeps the exit code it had already decided.
So does a stdout or stderr closed at the start (``cpsq list 100 >&-``):
what would go there is lost, and no diagnostic falls back to stdout. A
stderr that cannot be written (``2>/dev/full``) loses its lines, not the
exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import re
import sys
from dataclasses import dataclass
from math import isqrt, log10

import numpy as np

from .bounds import INFORMATIONAL_LABELS, analytic_max_window, full_verification
from .errors import ResourceLimitError, brief
from .primes import PrimeTable, sieve_primes
# no command reads or writes a table file; perfbench/spans.py wraps these two names
from .primes import load_table, save_table  # noqa: F401
from .reference import REFERENCE_LIMIT, REFERENCE_VALUES
from .reports import FAIL
from .serialize import FORMATS, serialize_report, write_values
from .windows import count_sums, count_windows, find_representations, values_up_to

COUNT_MODES = ("distinct", "multiplicity", "both")


@dataclass(frozen=True)
class CliConfig:
    """One parsed invocation; exactly one command, defaults filled in."""

    command: str
    x_or_target: int | None = None
    format: str = "text"
    count_mode: str = "both"
    grid: tuple[int, ...] | None = None


def _to_stderr(line: str) -> None:
    """One diagnostic line to stderr; a stderr that cannot be written loses
    the line, as argparse loses its own, and not the exit code."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr)


def _named(text: str) -> str:
    """An argument for an error line: quoted, or past 30 characters the
    count of them, as errors.brief gives a huge number."""
    return repr(text) if len(text) <= 30 else f"<{len(text)} characters>"


def _integer_arg(text: str) -> int:
    """Plain integers plus the 10^12 / 1e12 shorthands people type, with no
    more digits than int() reads (its default limit where that is off)."""
    try:
        return int(text)
    except ValueError:
        pass
    m = re.fullmatch(r"(\d+)([\^e])(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"not an integer: {_named(text)}")
    base, power, is_power = int(m[1]), int(m[3]), m[2] == "^"
    # the value's log10, known before the value, which can take minutes to build
    most = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if base and (power * log10(base) if is_power else power + log10(base)) >= most:
        raise argparse.ArgumentTypeError(f"{_named(text)} has more than {most} digits")
    return base**power if is_power else base * 10**power


def _grid_arg(text: str) -> tuple[int, ...]:
    parts = [part for part in text.split(",") if part]
    try:
        grid = tuple(_integer_arg(part) for part in parts)
    except argparse.ArgumentTypeError:
        grid = ()
    if not grid:
        raise argparse.ArgumentTypeError(
            f"grid must be comma-separated integers, got {_named(text)}"
        )
    for part, x in zip(parts, grid):
        if x < 2:
            raise argparse.ArgumentTypeError(
                f"grid entries must be at least 2, got {_named(part)}"
            )
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsq",
        description="Sums of squares of consecutive primes: "
        "enumeration, counting, and bound verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "count", parents=[common], help="count representable values <= x"
    )
    p.add_argument("x", type=_integer_arg)
    p.add_argument(
        "--count-mode",
        choices=COUNT_MODES,
        default="both",
        help="which count the text output reports",
    )

    p = sub.add_parser(
        "list", parents=[common], help="list distinct representable values <= x"
    )
    p.add_argument("x", type=_integer_arg)

    p = sub.add_parser(
        "find", parents=[common], help="find windows summing exactly to a target"
    )
    p.add_argument("target", type=_integer_arg)

    p = sub.add_parser(
        "maxlen", parents=[common], help="analytic and exact window-length caps at x"
    )
    p.add_argument("x", type=_integer_arg)

    p = sub.add_parser(
        "verify", parents=[common], help="run the full bound-verification battery"
    )
    p.add_argument(
        "--grid",
        type=_grid_arg,
        default=None,
        help="comma-separated x values (default: 289 and 1e3..1e9)",
    )

    sub.add_parser(
        "table-check",
        parents=[common],
        help=f"compare the enumeration below {REFERENCE_LIMIT} "
        "against the embedded reference list",
    )
    return parser


def parse_args(argv: list[str] | None = None) -> CliConfig:
    ns = build_parser().parse_args(argv)
    return CliConfig(
        command=ns.command,
        x_or_target=ns.target if ns.command == "find" else getattr(ns, "x", None),
        format=ns.format,
        count_mode=getattr(ns, "count_mode", "both"),
        grid=getattr(ns, "grid", None),
    )


def provision_table(needed_limit: int, config: CliConfig) -> PrimeTable:
    """The primes up to ``needed_limit``, sieved for each command. No table
    is kept on disk: the 10^6 table of ``count 10^12`` sieves in ~2 ms on a
    2-core x86-64 box."""
    # config is unused; perfbench/worker.py passes one
    return sieve_primes(needed_limit)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

#: what a handler decided: the exit code, and its output, the finished text
#: or the values that ``list`` writes
_Outcome = tuple[int, "str | np.ndarray"]


def _cmd_count(config: CliConfig) -> _Outcome:
    x = config.x_or_target
    table = provision_table(isqrt(x), config)
    if config.format == "text" and config.count_mode == "multiplicity":
        # the number of windows needs the walk only, no dedup
        return 0, f"x={x} multiplicity={sum(count_windows(x, table))}"
    report = count_sums(x, table)
    if config.format == "text" and config.count_mode == "distinct":
        text = f"x={report.x} distinct={report.distinct_count}"
    else:
        text = serialize_report([report], config.format)
    return 0, text


def _cmd_list(config: CliConfig) -> _Outcome:
    x = config.x_or_target
    table = provision_table(isqrt(x), config)
    return 0, values_up_to(x, table)


def _cmd_find(config: CliConfig) -> _Outcome:
    target = config.x_or_target
    table = provision_table(isqrt(target), config)
    reps = find_representations(target, table)
    if config.format != "text":
        return 0, serialize_report(reps, config.format)
    lines = []
    for rep in reps:
        run = table.primes[rep.start_index - 1 : rep.start_index - 1 + rep.length]
        lines.append(f"{target} = " + " + ".join(f"{int(p)}^2" for p in run))
    return 0, "\n".join(lines) or "no representation"


def _cmd_maxlen(config: CliConfig) -> _Outcome:
    cap = analytic_max_window(config.x_or_target)
    return 0, serialize_report([cap], config.format)


def _cmd_verify(config: CliConfig) -> _Outcome:
    grid = list(config.grid) if config.grid else None
    reports = full_verification(grid)
    failed = [
        r
        for r in reports
        if r.applicable and r.verdict == FAIL and r.label not in INFORMATIONAL_LABELS
    ]
    text = serialize_report(reports, config.format)
    if config.format == "text":
        text += (
            f"\n{len(reports)} checks, {len(failed)} failures"
            + ("" if failed else " (all pass)")
        )
    return (1 if failed else 0), text


def _cmd_table_check(config: CliConfig) -> _Outcome:
    table = provision_table(isqrt(REFERENCE_LIMIT), config)
    computed = values_up_to(REFERENCE_LIMIT, table)
    expected = REFERENCE_VALUES
    passed = bool(np.array_equal(computed, expected))
    if config.format == "json":
        import json  # here, so that the other commands never load it

        text = json.dumps(
            {
                "passed": passed,
                "expected_count": len(expected),
                "computed_count": len(computed),
            }
        )
    elif config.format == "csv":
        text = "passed,expected_count,computed_count\n"
        text += f"{str(passed).lower()},{len(expected)},{len(computed)}"
    elif passed:
        text = f"table-check: PASS ({len(expected)} values match)"
    else:
        diffs = [
            (i, e, c)
            for i, (e, c) in enumerate(zip(expected, computed.tolist()))
            if e != c
        ]
        text = (
            f"table-check: FAIL (expected {len(expected)} values, "
            f"computed {len(computed)}; first differences: {diffs[:5]})"
        )
    return (0 if passed else 1), text


_HANDLERS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "find": _cmd_find,
    "maxlen": _cmd_maxlen,
    "verify": _cmd_verify,
    "table-check": _cmd_table_check,
}


def run(config: CliConfig) -> int:
    """Dispatch one parsed invocation, write its output, map failures to exit codes."""
    try:
        x = config.x_or_target
        if x is not None and x < 1:
            raise ValueError(f"{config.command} needs a positive integer, got {brief(x)}")
        code, output = _HANDLERS[config.command](config)
    except (ResourceLimitError, ValueError) as exc:
        _to_stderr(f"error: {exc}")
        return 3 if isinstance(exc, ResourceLimitError) else 2
    out = sys.stdout.buffer
    try:
        if isinstance(output, str):
            out.write(output.encode("ascii") + b"\n")
        else:
            write_values(output, config.format, out)
    except OSError as exc:
        return _unwritable(sys.stdout, exc, code)
    return code


def _unwritable(stream, exc: OSError, code: int) -> int:
    """Give ``stream``'s fd the null device after ``exc``, so that the rest,
    the flush at exit included, cannot fail again (exit code 120). Only a
    stdout not closed by its reader changes the code: 3, with one error line."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    if stream is sys.stderr or isinstance(exc, BrokenPipeError):
        return code
    _to_stderr(f"error: cannot write the output: {exc}")
    return 3


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # what the imports built lives until exit; frozen, the collector skips it
        gc.freeze()
    # an fd 1 or 2 closed at the start gets the null device, which takes
    # the output or the diagnostics that would go there
    if sys.stdout is None:
        sys.stdout = open(os.devnull, "w")
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    try:
        code = run(parse_args(argv))
    except SystemExit as exc:
        # argparse has already printed usage/help; keep its exit code
        code = int(exc.code or 0)
    # the one flush: the output, argparse's help, what a failed write left
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            code = _unwritable(stream, exc, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
