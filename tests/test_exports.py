"""The package's public surface: what `cpsq` exports and which exceptions it defines."""

import inspect

import cpsq
import cpsq.errors


def test_all_names_exactly_the_public_bindings():
    bound = {
        name
        for name, value in vars(cpsq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(cpsq.__all__) - {"__version__"} == bound


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
