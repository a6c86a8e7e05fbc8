"""The package's public surface: what `cpsq` exports and which exceptions it defines."""

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
