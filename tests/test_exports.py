"""The package's public surface: what `cpsq` exports, which exceptions it
defines, and what the test oracles may take from it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cpsq
import cpsq.errors


def test_all_names_exactly_the_public_bindings():
    # the names are bound lazily, each from the module its map entry names
    assert set(cpsq.__all__) - {"__version__"} == set(cpsq._MODULE_OF)
    assert set(cpsq.__all__) <= set(dir(cpsq))
    for name, module in cpsq._MODULE_OF.items():
        defining = importlib.import_module(f"cpsq.{module}")
        assert getattr(cpsq, name) is getattr(defining, name), name
    with pytest.raises(AttributeError, match="no attribute 'sieve'"):
        cpsq.sieve  # noqa: B018


def test_only_the_package_lists_public_names():
    # _MODULE_OF is the one list; no submodule keeps an __all__ of its own
    for path in sorted(Path(cpsq.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"cpsq.{path.stem}")
            assert not hasattr(module, "__all__"), path.stem


def test_errors_defines_one_exception_type():
    # every bad argument is a plain ValueError (exit 2); only a resource
    # refusal has a type of its own (exit 3)
    defined = [
        value
        for value in vars(cpsq.errors).values()
        if inspect.isclass(value)
        and issubclass(value, BaseException)
        and value.__module__ == cpsq.errors.__name__
    ]
    assert defined == [cpsq.errors.ResourceLimitError]


def test_the_oracles_take_only_records_verdicts_and_constants():
    # an oracle that calls the package's code cannot catch a bug in that code
    source = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    taken = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "cpsq" for alias in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cpsq":
            module = importlib.import_module(node.module)
            taken += [(f"{node.module}.{a.name}", getattr(module, a.name)) for a in node.names]
    assert taken
    for name, value in taken:
        record = inspect.isclass(value) and issubclass(value, tuple) and hasattr(value, "_fields")
        assert record or isinstance(value, (str, int, float)), name
