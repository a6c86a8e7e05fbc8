"""Command line front end.

Subcommands: count, list, find, maxlen, verify. Results go to stdout in
text (default), JSON, or CSV; diagnostics go to stderr. Every command
writes ASCII bytes with "\n" line ends to stdout's binary layer, whatever
stdout's encoding, or the same text to a stdout that has no binary layer
(an ``io.StringIO``), and ends its output with one newline, except a text
``list`` with no value, which writes nothing. Exit codes: 0 success / no
check failed, 1 a ``verify`` check failed, 2 bad usage or argument values,
3 a resource refusal (a sieve limit or a dedup too large) or an output
that cannot be written (a full disk, a stdout not open for writing).

``_COMMANDS`` is the one list of the subcommands: each one's help line,
operand, handler and own options. The parser, the parsed ``CliConfig`` and
the dispatch are all built from it.

A reader that closes stdout early (``cpsq list 1e10 | head``) ends the
output quietly: the command keeps the exit code it had already decided.
So does a stdout or stderr closed at the start (``cpsq list 100 >&-``):
what would go there is lost, and no diagnostic falls back to stdout. A
stderr that cannot be written (``2>/dev/full``) loses its lines, not the
exit code.

Importing this module limits numpy's OpenBLAS thread pool to one thread
(``OPENBLAS_NUM_THREADS=1``) unless the variable is already set or numpy is
already loaded. A host program that imports ``cpsq.cli`` before numpy
inherits that limit, and so do the processes it starts afterwards; one that
imports numpy first keeps its own setting. ``import cpsq`` alone sets nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import re
import sys
from math import isqrt, log10
from types import SimpleNamespace
from typing import NamedTuple

if "numpy" not in sys.modules:
    # cpsq calls no BLAS, yet numpy's OpenBLAS pool spins once numpy loads
    # and competes with the calling thread. OpenBLAS reads the limit as
    # numpy loads it; with numpy loaded, setting it would reach only the
    # processes started later.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .bounds import INFORMATIONAL_LABELS, analytic_max_window, full_verification
from .errors import ResourceLimitError, brief
from .primes import PrimeTable, sieve_primes
# no command reads or writes a table file; perfbench/spans.py wraps these two names
from .primes import load_table, save_table  # noqa: F401
from .reports import FAIL, INCONCLUSIVE, PASS
from .serialize import FORMATS, cell, serialize_report, write_values
from .windows import (
    Representation,
    count_sums,
    count_windows,
    find_representations,
    values_up_to,
)

COUNT_MODES = ("distinct", "multiplicity", "both")


class CliConfig(NamedTuple):
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
    reason = ""
    try:
        grid = tuple(_integer_arg(part) for part in parts)
    except argparse.ArgumentTypeError as exc:
        grid, reason = (), f": {exc}"
    if not grid:
        raise argparse.ArgumentTypeError(
            f"grid must be comma-separated integers, got {_named(text)}{reason}"
        )
    for part, x in zip(parts, grid):
        if x < 2:
            raise argparse.ArgumentTypeError(
                f"grid entries must be at least 2, got {_named(part)}"
            )
    return grid


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
    """JSON and CSV render the CountReport; the three text lines, one a
    count mode, are written here."""
    x = config.x_or_target
    table = provision_table(isqrt(x), config)
    if config.format != "text":
        return 0, serialize_report([count_sums(x, table)], config.format)
    if config.count_mode == "multiplicity":
        # the number of windows needs the walk only, no dedup
        return 0, f"x={x} multiplicity={sum(count_windows(x, table))}"
    report = count_sums(x, table)
    if config.count_mode == "distinct":
        return 0, f"x={x} distinct={report.distinct_count}"
    return 0, (
        f"x={x} distinct={report.distinct_count} "
        f"multiplicity={report.multiplicity_count} "
        f"max_length={report.max_length_seen} per_length={cell(report.per_length)}"
    )


def _cmd_list(config: CliConfig) -> _Outcome:
    x = config.x_or_target
    table = provision_table(isqrt(x), config)
    return 0, values_up_to(x, table)


def _cmd_find(config: CliConfig) -> _Outcome:
    target = config.x_or_target
    table = provision_table(isqrt(target), config)
    reps = find_representations(target, table)
    if config.format == "csv" and not reps:
        # the header alone, as ``list`` writes one, so a CSV reader sees the fields
        return 0, ",".join(Representation._fields)
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
    reports = full_verification(config.grid)
    failed = [
        r
        for r in reports
        if r.applicable and r.verdict == FAIL and r.label not in INFORMATIONAL_LABELS
    ]
    text = serialize_report(reports, config.format)
    if config.format == "text":
        inconclusive = sum(r.verdict == INCONCLUSIVE for r in reports)
        text += (
            f"\n{len(reports)} checks, {len(failed)} failures, {inconclusive} inconclusive"
            + (" (all pass)" if all(r.verdict == PASS for r in reports) else "")
        )
    return (1 if failed else 0), text


#: the options one subcommand alone takes: a flag and its add_argument keywords
_COUNT_MODE = "--count-mode", dict(
    choices=COUNT_MODES, default="both", help="which count the text output reports"
)
_GRID = "--grid", dict(
    type=_grid_arg, help="comma-separated x values (default: 289 and 1e3..1e9)"
)

#: the one list of subcommands: name -> (help line, the name of its one
#: integer operand or None, handler, its own options); the parser, the
#: parsed CliConfig and run's dispatch are all built from it
_COMMANDS = {
    "count": ("count representable values <= x", "x", _cmd_count, _COUNT_MODE),
    "list": ("list distinct representable values <= x", "x", _cmd_list),
    "find": ("find windows summing exactly to a target", "target", _cmd_find),
    "maxlen": ("analytic and exact window-length caps at x", "x", _cmd_maxlen),
    "verify": ("run the full bound-verification battery", None, _cmd_verify, _GRID),
}


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
    for name, (help_line, operand, _, *options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        if operand:
            # one dest for every operand; the metavar keeps its name in help and errors
            p.add_argument("x_or_target", metavar=operand, type=_integer_arg)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def parse_args(argv: list[str] | None = None) -> CliConfig:
    return CliConfig(**vars(build_parser().parse_args(argv)))


def run(config: CliConfig) -> int:
    """Dispatch one parsed invocation, write its output, map failures to exit codes."""
    try:
        x = config.x_or_target
        if x is not None and x < 1:
            raise ValueError(f"{config.command} needs a positive integer, got {brief(x)}")
        code, output = _COMMANDS[config.command][2](config)
    except (ResourceLimitError, ValueError) as exc:
        _to_stderr(f"error: {exc}")
        return 3 if isinstance(exc, ResourceLimitError) else 2
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stdout, such as an io.StringIO: the same ASCII
        out = SimpleNamespace(write=lambda data: sys.stdout.write(str(data, "ascii")))
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
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, stream.fileno())
    finally:
        os.close(null)
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
