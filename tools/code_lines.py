"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment and does not
belong to a bare string statement: blank lines, comments, module, class
and function docstrings and attribute docstrings (a string standing alone
after an assignment) are all left out. A token that spans lines, such as a
triple-quoted string passed as an argument, counts every line it spans.

    python3 tools/code_lines.py [PATH ...]    # default: src/cpsq

prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    bare = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            bare.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - bare)


def modules(paths: list[str]) -> list[Path]:
    """Every .py file under ``paths``, in order."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    total = 0
    for module in modules(argv or ["src/cpsq"]):
        n = code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6,d}  {module}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
