"""End-to-end CLI behavior, run in-process through cpsq.cli.main."""

import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cpsq.bounds
import cpsq.cli
import cpsq.windows
from cpsq import (
    REFERENCE_VALUES,
    count_sums,
    enumerate_representations,
    save_table,
    sieve_primes,
)
from cpsq.cli import main
from cpsq.reports import FAIL, PASS
from cpsq.serialize import VALUE_CHUNK
from oracles import printed_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def binary_stdout():
    """A stdout with a binary layer under its text layer, as a process's
    own has: every command writes to the binary layer, and
    ``.buffer.getvalue()`` reads it back."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)


def test_list_text(capsys):
    code, out, _ = run_cli(capsys, "list", "100")
    assert code == 0
    assert out == "4\n9\n13\n25\n34\n38\n49\n74\n83\n87\n"


def test_list_reproduces_reference_table(capsys):
    code, out, _ = run_cli(capsys, "list", "5000")
    assert code == 0
    assert out.split() == [str(v) for v in REFERENCE_VALUES]


def test_list_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "list", "50", "--format", "csv")
    assert code == 0
    assert out == "value\n4\n9\n13\n25\n34\n38\n49\n"
    code, out, _ = run_cli(capsys, "list", "50", "--format", "json")
    assert code == 0
    assert json.loads(out) == [4, 9, 13, 25, 34, 38, 49]


def distinct_values(x, table):
    return sorted({r.value for r in enumerate_representations(x, table)})


# 3, 4: empty and one value; 10^k + 1: a new digit width starts; 3e9: past
# two chunks of values
@pytest.mark.parametrize(
    "x", [1, 3, 4, 100, *(10**k + 1 for k in range(2, 10)), 3 * 10**9]
)
def test_list_matches_printing_each_value(capsys, table_big, x):
    values = distinct_values(x, table_big)
    assert x < 3 * 10**9 or len(values) > 2 * VALUE_CHUNK
    for fmt in ("text", "csv", "json"):
        code, out, err = run_cli(capsys, "list", str(x), "--format", fmt)
        assert code == 0 and err == ""
        assert out == printed_values(values, fmt)


@given(
    x=st.integers(min_value=1, max_value=10**6),
    fmt=st.sampled_from(["text", "csv", "json"]),
)
@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_list_property_matches_printing_each_value(table_small, x, fmt):
    out = binary_stdout()
    with contextlib.redirect_stdout(out):
        assert main(["list", str(x), "--format", fmt]) == 0
    assert out.buffer.getvalue().decode("ascii") == printed_values(
        distinct_values(x, table_small), fmt
    )


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_list_writes_ascii_whatever_the_stdout_encoding(table_small, fmt):
    # the bytes go to stdout's binary layer, past a text layer that would
    # write utf-16
    proc = subprocess.run(
        [sys.executable, "-m", "cpsq.cli", "list", "1000000", "--format", fmt],
        capture_output=True, env=dict(cli_env(), PYTHONIOENCODING="utf-16"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    values = distinct_values(10**6, table_small)
    assert proc.stdout == printed_values(values, fmt).encode("ascii")


def cli_bytes(argv):
    """What main writes for argv, run in this process."""
    out = binary_stdout()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.buffer.getvalue()


# the check against the reference table is verify's reference-values row
# at 5000; "table-check" names that case
_TABLE_CHECK = pytest.param("verify --grid 5000", id="table-check")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "command", ["count 100", "find 2020", "maxlen 5000", "verify --grid 289", _TABLE_CHECK]
)
def test_every_command_writes_ascii_whatever_the_stdout_encoding(command, fmt):
    argv = [*command.split(), "--format", fmt]
    proc = subprocess.run(
        [sys.executable, "-m", "cpsq.cli", *argv],
        capture_output=True, env=dict(cli_env(), PYTHONIOENCODING="utf-16"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cli_bytes(argv)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "command",
    ["count 100", "list 1000", "find 2020", "find 3", "maxlen 5000", "verify --grid 289",
     _TABLE_CHECK],
)
def test_every_output_is_ascii_and_ends_with_one_newline(command, fmt):
    out = cli_bytes([*command.split(), "--format", fmt])
    out.decode("ascii")
    assert out.endswith(b"\n") and b"\n\n" not in out


@pytest.mark.parametrize(
    "command",
    ["count 100", "count 10^12 --format json", "list 1000", "list 10^9 --format json",
     "find 2020", "find 3 --format csv", "count 0"],
)
def test_a_text_only_stdout_gets_the_same_text_and_exit_code(command):
    # main(argv) called from code under an io.StringIO, which has no binary
    # layer; list 10^9 writes two value chunks
    got = []
    for out in (binary_stdout(), io.StringIO()):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(command.split())
        text = out.buffer.getvalue().decode("ascii") if hasattr(out, "buffer") else out.getvalue()
        got.append((code, text))
    assert got[0] == got[1]
    assert got[0][0] == (2 if command == "count 0" else 0)


def test_count_modes(capsys):
    code, out, _ = run_cli(capsys, "count", "5000", "--count-mode", "distinct")
    assert code == 0 and out == "x=5000 distinct=91\n"
    code, out, _ = run_cli(capsys, "count", "5000", "--count-mode", "multiplicity")
    assert code == 0 and out == "x=5000 multiplicity=91\n"
    code, out, _ = run_cli(capsys, "count", "5000")
    assert code == 0
    assert "distinct=91" in out and "multiplicity=91" in out and "max_length=12" in out


def test_count_json_fields(capsys):
    code, out, _ = run_cli(capsys, "count", "5000", "--format", "json")
    assert code == 0
    (data,) = json.loads(out)
    assert data["x"] == 5000
    assert data["distinct_count"] == 91
    assert data["multiplicity_count"] == 91
    assert data["max_length_seen"] == 12
    assert data["per_length"]["1"] == 19  # pi(70)


def test_find_text_named_values(capsys):
    code, out, _ = run_cli(capsys, "find", "2020")
    assert code == 0 and out == "2020 = 17^2 + 19^2 + 23^2 + 29^2\n"
    code, out, _ = run_cli(capsys, "find", "2189")
    assert code == 0 and out == "2189 = 13^2 + 17^2 + 19^2 + 23^2 + 29^2\n"


def test_find_without_representation(capsys):
    code, out, _ = run_cli(capsys, "find", "6")
    assert code == 0
    assert out == "no representation\n"


def test_find_csv_without_representation_keeps_the_header(capsys):
    code, out, _ = run_cli(capsys, "find", "3", "--format", "csv")
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["start_index", "length", "value"]
    assert list(reader) == []


def test_find_json(capsys):
    code, out, _ = run_cli(capsys, "find", "2189", "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep == {"start_index": 6, "length": 5, "value": 2189}


def test_maxlen_json(capsys):
    code, out, _ = run_cli(capsys, "maxlen", "5000", "--format", "json")
    assert code == 0
    (cap,) = json.loads(out)
    assert cap == {"x": 5000, "analytic_m": 19, "exact_m": 12}


def test_exponent_shorthands(capsys):
    code, out, _ = run_cli(capsys, "count", "10^3", "--count-mode", "distinct")
    assert code == 0 and out == "x=1000 distinct=37\n"
    code, out, _ = run_cli(capsys, "count", "1e3", "--count-mode", "distinct")
    assert code == 0 and out == "x=1000 distinct=37\n"


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "289,1000")
    assert code == 0
    # the Dusart lower bound draws no conclusion below N = 17
    assert out.endswith("\n105 checks, 0 failures, 5 inconclusive\n")
    assert "-> fail" not in out


def test_verify_exit_1_when_a_bound_fails(capsys, monkeypatch):
    # shrink the upper-bound constant so the verdict genuinely flips
    monkeypatch.setattr(cpsq.bounds, "UPPER_COEFF", 0.001)
    code, out, _ = run_cli(capsys, "verify", "--grid", "1000")
    assert code == 1
    assert "-> fail" in out
    assert out.endswith(" failures, 5 inconclusive\n") and "all pass" not in out


# the names perfbench's tracer rebinds in cpsq.cli: each command must reach
# them through the module, so that a rebinding is seen
@pytest.mark.parametrize(
    ("name", "argv"),
    [
        ("count_sums", ["count", "5000"]),
        ("values_up_to", ["list", "5000"]),
        ("find_representations", ["find", "2020"]),
        ("sieve_primes", ["count", "5000"]),
        ("sieve_primes", ["list", "5000"]),
        ("sieve_primes", ["find", "2020"]),
        ("serialize_report", ["count", "5000", "--format", "json"]),
    ],
)
def test_each_command_calls_the_library_through_the_cli_module(capsys, monkeypatch, name, argv):
    calls = []
    wrapped = getattr(cpsq.cli, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(cpsq.cli, name, recording)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls


def test_verify_says_all_pass_only_when_every_row_passes(capsys, monkeypatch):
    battery = cpsq.bounds.full_verification([289])
    passing = [r for r in battery if r.verdict == PASS]
    monkeypatch.setattr(cpsq.cli, "full_verification", lambda grid: passing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.endswith(f"\n{len(passing)} checks, 0 failures, 0 inconclusive (all pass)\n")
    # an informational row's failure is no failure, but not a pass either
    (sub,) = [r for r in passing if r.label in cpsq.bounds.INFORMATIONAL_LABELS]
    failing = [r._replace(verdict=FAIL) if r is sub else r for r in passing]
    monkeypatch.setattr(cpsq.cli, "full_verification", lambda grid: failing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.endswith(f"\n{len(passing)} checks, 0 failures, 0 inconclusive\n")


def reference_rows(out, fmt):
    """The reference-values records of one verify output, as dicts."""
    if fmt == "json":
        records = json.loads(out)
    elif fmt == "csv":
        records = list(csv.DictReader(io.StringIO(out)))
    else:
        records = [{"line": line} for line in out.splitlines()]
    return [r for r in records if "reference-values" in str(r.get("label", r.get("line")))]


def test_table_check_pass(capsys):
    for grid in ([], ["--grid", "289"], ["--grid", "10^9,2,2"]):
        code, out, _ = run_cli(capsys, "verify", *grid)
        assert code == 0
        assert reference_rows(out, "text") == [
            {"line": "reference-values             at 5000: 91 vs 91 observed=91 -> pass"}
        ]


def test_table_check_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "289", "--format", "json")
    assert code == 0
    assert reference_rows(out, "json") == [
        {"label": "reference-values", "x_or_m": 5000, "lhs": 91.0, "rhs": 91.0,
         "observed": 91, "applicable": True, "verdict": "pass"}
    ]


def test_table_check_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "289", "--format", "csv")
    assert code == 0
    assert reference_rows(out, "csv") == [
        {"label": "reference-values", "x_or_m": "5000", "lhs": "91", "rhs": "91",
         "observed": "91", "applicable": "true", "verdict": "pass"}
    ]


def verify_against(capsys, monkeypatch, wrong, observed):
    """verify with ``wrong`` for the enumeration below 5000: exit 1, one
    failure, and the reference-values row failing with ``observed``."""
    wrong = np.array(wrong, dtype=np.uint64)
    monkeypatch.setattr(cpsq.bounds, "values_up_to", lambda x, table: wrong)
    code, out, _ = run_cli(capsys, "verify", "--grid", "289")
    assert code == 1
    assert reference_rows(out, "text") == [
        {"line": f"reference-values             at 5000: 91 vs {wrong.size} "
                 f"observed={observed} -> fail"}
    ]
    assert out.endswith(" checks, 1 failures, 5 inconclusive\n")
    code, out, _ = run_cli(capsys, "verify", "--grid", "289", "--format", "json")
    assert code == 1
    (row,) = reference_rows(out, "json")
    assert (row["observed"], row["rhs"], row["verdict"]) == (observed, wrong.size, "fail")


def test_table_check_fail_names_first_differences(capsys, monkeypatch):
    # observed counts the leading values that agree: index 2 differs
    wrong = (*REFERENCE_VALUES[:2], 14, *REFERENCE_VALUES[3:])
    verify_against(capsys, monkeypatch, wrong, observed=2)


def test_table_check_fail_when_a_value_is_missing(capsys, monkeypatch):
    verify_against(capsys, monkeypatch, REFERENCE_VALUES[:-1], observed=90)


def test_table_check_is_no_command(capsys):
    code, out, err = run_cli(capsys, "table-check")
    assert code == 2 and out == ""
    assert err.startswith("usage: cpsq ") and "invalid choice: 'table-check'" in err
    assert "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["count"]) == 2
    capsys.readouterr()
    assert main(["count", "abc"]) == 2
    capsys.readouterr()
    assert main(["count", "100", "--format", "xml"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["count", "list", "find", "maxlen"])
@pytest.mark.parametrize("value", ["0", "-7"])
def test_non_positive_argument_exits_2_with_one_line(capsys, command, value):
    code, out, err = run_cli(capsys, command, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("grid", ["-5", "0", "1", "289,-5"])
def test_a_grid_entry_below_2_exits_2_naming_it(capsys, grid):
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [err.splitlines()[-1]]
    assert errors[0].endswith(f"at least 2, got {grid.split(',')[-1]!r}")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "count" in out and "verify" in out


_FORMAT_HELP = """\
  --format {text,json,csv}
                        output format
"""
_COUNT_USAGE = """\
usage: cpsq count [-h] [--format {text,json,csv}]
                  [--count-mode {distinct,multiplicity,both}]
                  x
"""
_VERIFY_USAGE = "usage: cpsq verify [-h] [--format {text,json,csv}] [--grid GRID]\n"


def _operand_help(command, operand):
    return f"""\
usage: cpsq {command} [-h] [--format {{text,json,csv}}] {operand}

positional arguments:
  {operand}

options:
  -h, --help            show this help message and exit
""" + _FORMAT_HELP


#: argv -> (exit code, stdout, stderr): argparse's help and usage errors
#: at 80 columns, as Python 3.11's argparse lays them out
CLI_SURFACE = {
    "--help": (0, """\
usage: cpsq [-h] {count,list,find,maxlen,verify} ...

Sums of squares of consecutive primes: enumeration, counting, and bound
verification.

positional arguments:
  {count,list,find,maxlen,verify}
    count               count representable values <= x
    list                list distinct representable values <= x
    find                find windows summing exactly to a target
    maxlen              analytic and exact window-length caps at x
    verify              run the full bound-verification battery

options:
  -h, --help            show this help message and exit
""", ""),
    "count --help": (0, _COUNT_USAGE + """
positional arguments:
  x

options:
  -h, --help            show this help message and exit
""" + _FORMAT_HELP + """\
  --count-mode {distinct,multiplicity,both}
                        which count the text output reports
""", ""),
    "list --help": (0, _operand_help("list", "x"), ""),
    "find --help": (0, _operand_help("find", "target"), ""),
    "maxlen --help": (0, _operand_help("maxlen", "x"), ""),
    "verify --help": (0, _VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
""" + _FORMAT_HELP + """\
  --grid GRID           comma-separated x values (default: 289 and 1e3..1e9)
""", ""),
    "count": (2, "", _COUNT_USAGE
              + "cpsq count: error: the following arguments are required: x\n"),
    "find x": (2, "", "usage: cpsq find [-h] [--format {text,json,csv}] target\n"
               "cpsq find: error: argument target: not an integer: 'x'\n"),
    "verify --grid 1": (2, "", _VERIFY_USAGE + "cpsq verify: error: argument --grid: "
                        "grid entries must be at least 2, got '1'\n"),
}


@pytest.mark.parametrize("argv", CLI_SURFACE)
def test_help_and_usage_errors_keep_their_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv.split()) == CLI_SURFACE[argv]


def test_resource_refusal_exits_3(capsys):
    code = main(["count", "10^30"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_maxlen_of_a_huge_x_is_refused_before_any_sieve(capsys, monkeypatch):
    real = cpsq.bounds.sieve_primes
    ran = []  # the limit of each sieve that returned a table

    def sieve(limit):
        table = real(limit)
        ran.append(limit)
        return table

    monkeypatch.setattr(cpsq.bounds, "sieve_primes", sieve)
    code, out, err = run_cli(capsys, "maxlen", "1e30")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert ran == []


# count sieves 10^6 (the size the cache once kept), verify 1.3 * 10^6, the
# others under 100
@pytest.mark.parametrize(
    "argv",
    [["count", "10^12"], ["list", "5000"], ["find", "2020"], ["verify", "--grid", "5000"]],
    ids=["count", "list", "find", "table-check"],
)
def test_no_command_reads_or_writes_a_table_file(argv, capsys, tmp_path, monkeypatch):
    """A damaged primes.cpsq where the CLI once kept its prime cache
    changes no output, draws no warning and is left as it was."""
    home = tmp_path / "home"
    monkeypatch.setenv("CPSQ_CACHE_DIR", str(home / "cpsq-cache"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / "xdg"))
    monkeypatch.setenv("HOME", str(home))
    expected = run_cli(capsys, *argv)[:2]
    damaged = tmp_path / "damaged.cpsq"
    save_table(sieve_primes(10**6), damaged)
    raw = bytearray(damaged.read_bytes())
    raw[-1] ^= 0xFF  # the last prime, so the checksum no longer matches
    for folder in (home / "cpsq-cache", home / "xdg" / "cpsq", home / ".cache" / "cpsq"):
        folder.mkdir(parents=True, exist_ok=True)
        (folder / "primes.cpsq").write_bytes(raw)

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in home.rglob("*")}

    before = tree()
    code, out, err = run_cli(capsys, *argv)
    assert tree() == before
    assert err == ""
    assert (code, out) == expected


def test_dedup_refusal_exits_3_and_multiplicity_still_answers(capsys, monkeypatch):
    x = 3 * 10**9
    report = count_sums(x, sieve_primes(isqrt(x)))
    windows = report.multiplicity_count
    # one byte short of the one-piece dedup's 9 bytes a window and 40 a length
    assert windows < cpsq.windows.SPLIT_WINDOWS
    estimate = 9 * windows + 40 * report.max_length_seen
    monkeypatch.setattr(cpsq.windows, "MAX_DEDUP_BYTES", estimate - 1)
    for argv in (
        ["count", str(x)],
        ["count", str(x), "--format", "json"],
        ["list", str(x)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"an estimated {estimate} bytes" in err
        assert "Traceback" not in err
    code, out, err = run_cli(capsys, "count", str(x), "--count-mode", "multiplicity")
    assert code == 0 and err == ""
    assert out == f"x={x} multiplicity={windows}\n"
    monkeypatch.setattr(cpsq.windows, "MAX_DEDUP_BYTES", estimate)
    code, out, err = run_cli(capsys, "count", str(x))
    assert code == 0 and err == ""
    assert out.startswith(f"x={x} distinct={report.distinct_count} multiplicity={windows} ")


@pytest.mark.parametrize("x", [3, 5000, 10**8, 10**10])
def test_multiplicity_mode_matches_count_sums(capsys, table_big, x):
    code, out, _ = run_cli(capsys, "count", str(x), "--count-mode", "multiplicity")
    assert code == 0
    assert out == f"x={x} multiplicity={count_sums(x, table_big).multiplicity_count}\n"


# every magnitude here is at most 10^6 or from 10^30 to 10^5000: small ones
# run at once, huge ones must be refused before any allocation, those past
# int()'s 4300 digits with exit 2
_NUMBER = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.integers(min_value=30, max_value=5000).map(lambda k: f"1e{k}"),
    st.integers(min_value=30, max_value=5000).map(lambda k: f"10^{k}"),
    st.integers(min_value=30, max_value=5000).map(lambda k: "1" + "0" * k),
    st.integers(min_value=0, max_value=6).map(lambda k: f"1e{k}"),
    st.integers(min_value=0, max_value=6).map(lambda k: f"10^{k}"),
)
_TOKEN = st.one_of(
    _NUMBER,
    st.text(alphabet="abcxyz-,.=_", max_size=5),
    st.sampled_from(
        ["--", "-", "--grid", ",", "--format", "xml", "JSON", "", "--segment-size",
         "--count-mode", "distinct", "--cache-dir", "--help", "1.5", "e3", "10^"]
    ),
)
_COMMAND = st.sampled_from(["count", "list", "find", "maxlen", "verify"])


@given(
    argv=st.one_of(
        st.tuples(_COMMAND, _NUMBER).map(list),
        st.tuples(_COMMAND, st.lists(_TOKEN, max_size=4)).map(lambda t: [t[0], *t[1]]),
        st.lists(_TOKEN, max_size=3),
    )
)
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_argv_gets_one_exit_code_of_the_contract(argv):
    out, err = binary_stdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, err.getvalue()


def cli_env():
    """The environment for a ``python -m cpsq.cli`` child: no inherited
    PYTHON* setting (PYTHONUNBUFFERED would hide what buffered streams do),
    and on the path the source tree this process imported the package from,
    so that the child runs the same code as the in-process tests."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return dict(env, PYTHONPATH=str(Path(cpsq.__file__).resolve().parents[1]))


# every output passes any pipe buffer (5.5 MB, 180 kB, 16 MB and 17 MB),
# so closing the pipe after one line leaves the command writing into a
# closed stdout; list 5e10 dedups 1.4M windows in one piece and renders
# them chunk by chunk
@pytest.mark.parametrize(
    "argv",
    [
        ["list", "1e10"],
        ["verify", "--format", "json"],
        ["list", "5e10"],
        ["list", "5e10", "--format", "json"],
    ],
    ids=["list", "verify", "list-5e10", "list-5e10-json"],
)
def test_closed_stdout_ends_quietly_with_the_decided_code(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpsq.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert marker not in err


def left_at_start(stream):
    """A preexec_fn for "closed-1" or "closed-2", which closes that fd, or
    for "read-only-2", which opens fd 2 for reading only."""
    fd = int(stream[-1])
    if stream.startswith("closed"):
        return lambda: os.close(fd)
    return lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), fd)


_LIST_100 = b"4\n9\n13\n25\n34\n38\n49\n74\n83\n87\n"


# fd 1 or 2 closed when the child starts (sys.stdout or sys.stderr is None
# there), or fd 2 open for reading only (each write fails with EBADF): the
# command keeps the exit code it decided, and no diagnostic falls back to
# stdout; out None is a closed stdout
_UNUSABLE = [
    ("closed-1", ["list", "100"], 0, None),
    ("closed-1", ["count", "100"], 0, None),
    ("closed-1", ["verify"], 0, None),
    ("closed-1", ["count", "0"], 2, None),
    ("closed-2", ["list", "100"], 0, _LIST_100),
    ("closed-2", ["count", "0"], 2, b""),
    ("closed-2", ["list", "1e700"], 3, b""),
    ("closed-2", ["count"], 2, b""),
    ("read-only-2", ["count", "0"], 2, b""),
    ("read-only-2", ["count"], 2, b""),
]


@pytest.mark.parametrize(
    ("stream", "argv", "code", "out"),
    _UNUSABLE,
    ids=[f"{stream}-{'-'.join(argv)}" for stream, argv, *_ in _UNUSABLE],
)
def test_an_unusable_stdout_or_stderr_keeps_the_exit_code(stream, argv, code, out):
    proc = subprocess.run(
        [sys.executable, "-m", "cpsq.cli", *argv],
        capture_output=True, env=cli_env(), timeout=60,
        preexec_fn=left_at_start(stream),
    )
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr
    if out is None:  # the diagnostics still reach stderr
        assert proc.stdout == b""
        assert (b"error:" in proc.stderr) == (code == 2)
    else:
        assert proc.stdout == out


@pytest.mark.parametrize(
    ("redirect", "argv", "code"),
    [
        (">&-", "list 100", 0),
        (">&-", "count 0", 2),
        ("2>&-", "count 0", 2),
        ("2>&-", "list 1e700", 3),
    ],
)
def test_a_shell_closed_stream_keeps_the_exit_code(redirect, argv, code):
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" -m cpsq.cli {argv} {redirect}', sys.executable],
        capture_output=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr and b"error:" not in proc.stdout


# an output that cannot be written, on a full device (ENOSPC at the first
# write or flush) or a stdout open for reading only (EBADF), gets exit 3
# and one error line, not a traceback, nor the flush at exit's code 120
@pytest.mark.parametrize("sink", ["/dev/full", "read-only"])
@pytest.mark.parametrize("argv", ["list 100", "count 100", "verify --grid 289"])
def test_an_output_that_cannot_be_written_exits_3(sink, argv):
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full on this system")
    path, mode = (os.devnull, "rb") if sink == "read-only" else (sink, "wb")
    with open(path, mode) as out:
        proc = subprocess.run(
            [sys.executable, "-m", "cpsq.cli", *argv.split()],
            stdout=out, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60,
        )
    assert proc.returncode == 3, proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        proc.stderr.rstrip("\n")
    ]
    assert proc.stderr.startswith("error: cannot write the output: ")
    for marker in ("Traceback", "Exception ignored"):
        assert marker not in proc.stderr


# a write that fails leaves its bytes in the stream's buffer, whose flush at
# exit would end the process with code 120 and "Exception ignored": help on
# a full stdout, a diagnostic on a full stderr, an output and its error line
# with both full; a stream not on /dev/full is captured
@pytest.mark.parametrize(
    ("argv", "full", "code"),
    [("--help", "1", 3), ("count 0", "2", 2), ("count", "2", 2), ("count 100", "12", 3)],
)
def test_a_full_stdout_or_stderr_gets_the_contract_code(argv, full, code):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "cpsq.cli", *argv.split()],
            stdout=sink if "1" in full else subprocess.PIPE,
            stderr=sink if "2" in full else subprocess.PIPE,
            env=cli_env(), timeout=60,
        )
    assert proc.returncode == code, proc.stderr
    if proc.stdout is not None:
        assert proc.stdout == b""
    if proc.stderr is not None:
        assert proc.stderr.startswith(b"error: cannot write the output: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


# a host program may call main again and again: each failed write points
# the stream at the null device and keeps no descriptor of its own open
def test_an_unwritable_stream_leaves_no_descriptor_open():
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stream:
        before = len(os.listdir("/dev/fd"))
        for _ in range(5):
            assert cpsq.cli._unwritable(stream, BrokenPipeError(), 1) == 1
        assert len(os.listdir("/dev/fd")) == before
        stream.write(b"taken by the null device")


# x past a float's range (1.8e308), x whose window cap needs primes past
# MAX_LIMIT, a shorthand too long to build in seconds, and an empty grid
# or one below 2:
# each is refused in well under the timeout, with one short error line that
# gives a huge number as its digit count
@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["count", "1e700"], 3),
        (["list", "1e700"], 3),
        (["find", "1e700"], 3),
        (["verify", "--grid", "1e700"], 3),
        (["maxlen", "1e300"], 3),
        (["maxlen", "1e400"], 3),
        (["count", "9^9999999"], 2),
        (["verify", "--grid", ","], 2),
        (["verify", "--grid", ""], 2),
        (["count", "10^4299"], 3),
        (["maxlen", "10^4299"], 3),
        (["count", "1" + "0" * 5000], 2),
        (["verify", "--grid", "-5"], 2),
    ],
)
def test_huge_and_empty_arguments_get_their_code_at_once(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "cpsq.cli", *argv],
        capture_output=True, text=True, env=cli_env(), timeout=10,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        proc.stderr.splitlines()[-1]
    ]
    assert len(proc.stderr.splitlines()[-1]) < 200



def test_only_the_process_entry_freezes_the_import_heap(capsys, monkeypatch):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    monkeypatch.setattr(sys, "argv", ["cpsq", "count", "1000"])
    assert main() == 0
    assert frozen == [True]
    assert main(["count", "1000"]) == 0
    assert frozen == [True]
    capsys.readouterr()


def test_importing_the_package_freezes_nothing():
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, cpsq, cpsq.cli; print(gc.get_freeze_count())"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_list_and_count_load_no_json_or_csv():
    # only the commands that print json or csv import those modules
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from cpsq.cli import main\n"
        "assert main(['list', '5000']) == 0\n"
        "assert main(['count', '10000000', '--format', 'text']) == 0\n"
        "print(sorted({'json', 'csv'} & (set(sys.modules) - before)), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_a_long_unreadable_argument_is_named_by_its_length(capsys):
    for argv in (["count", "1" * 40 + "x"], ["verify", "--grid", "1," * 20 + "x"]):
        assert main(argv) == 2
        assert "<41 characters>" in capsys.readouterr().err
    assert main(["count", "12x"]) == 2
    assert "not an integer: '12x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("grid", "reason"),
    [("10^1000000", "'10^1000000' has more than"), ("289,12x", "not an integer: '12x'")],
)
def test_a_refused_grid_keeps_the_reason_of_its_entry(capsys, grid, reason):
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 2 and out == ""
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert f"grid must be comma-separated integers, got {grid!r}: {reason}" in line
    assert len(line) < 200


def test_the_module_entry_prints_what_main_prints(capsys, tmp_path):
    argv = ["count", "1000000000000", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "cpsq.cli", *argv],
        capture_output=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()
