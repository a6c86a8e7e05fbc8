"""tools/code_lines.py, the code-line count that size figures are given in."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''\
"""A module docstring
over two lines."""

import os  # a comment after code

# a comment alone

LIMIT = 1 << 20
"""An attribute docstring."""


def f(x):
    """A function docstring."""
    "a bare string statement"
    text = """a string
    passed on"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 2
'''


def test_counts_code_and_skips_comments_blanks_and_bare_strings():
    # import, LIMIT, def, text (two lines), return (two lines), class, y
    assert code_lines.code_lines(SAMPLE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert out[-1].split()[1] == "total"
