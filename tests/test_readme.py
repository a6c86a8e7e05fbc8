"""The README's library quick start runs, and every result it shows is what
the expression it is shown for gives; the README and the CLI's docstring
name the subcommands the parser defines."""

import argparse
import ast
import re
from pathlib import Path

import cpsq.cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the README's "## Library quick start"."""
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def shown_result(lines: list[str], stmt: ast.stmt) -> str | None:
    """The repr the README shows for an expression statement: the comment
    lines right below it, else the first word of the comment on its line,
    less a comma after it."""
    below = []
    for line in lines[stmt.end_lineno :]:
        if not line.startswith("# "):
            break
        below.append(line[2:])
    if below:
        return "\n".join(below)
    words = lines[stmt.end_lineno - 1].partition("#")[2].split()
    return words[0].rstrip(",") if words else None


def test_the_quick_start_shows_what_it_computes():
    code = quick_start()
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        shown = shown_result(lines, stmt)
        assert shown is not None, f"the README shows no result for {source}"
        assert repr(eval(source, namespace)) == shown, source
        checked.append(shown)
    # the counts at 10^12, pi(10^6), one lookup and one listing at least
    assert len(checked) >= 5, checked


def test_the_readme_and_the_cli_docstring_name_every_subcommand():
    (sub,) = [
        a for a in cpsq.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    commands = list(sub.choices)
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S)[1]
    assert [line.split()[1] for line in block.splitlines()] == commands
    line = re.search(r"^Subcommands: (.*?)\.", cpsq.cli.__doc__, re.M | re.S)[1]
    assert line.replace("\n", " ").split(", ") == commands
