"""Sums of squares of consecutive primes.

A window of m consecutive primes starting at the n-th prime contributes the
value p_n^2 + ... + p_{n+m-1}^2; this package enumerates, counts, and looks
up such values, and verifies the explicit bounds that govern how many of
them sit below a threshold. See the README for the mathematical background
and the CLI surface.

``import cpsq`` loads nothing, not even numpy: each public name is bound on
first use, from the module that defines it (PEP 562). So a program that
imports ``cpsq.cli`` loads only what the CLI needs, and the CLI can limit
numpy's thread pool before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: the module that defines each public name
_MODULE_OF = {
    name: module
    for module, names in {
        "bounds": (
            "CAP_COEFF",
            "INFORMATIONAL_LABELS",
            "LOWER_MIN_X",
            "PER_LENGTH_COEFF",
            "UPPER_COEFF",
            "UPPER_COEFF_SHARP",
            "WindowCap",
            "analytic_max_window",
            "check_length_count_bound",
            "check_partial_sum",
            "check_pyramid",
            "check_reference_values",
            "check_weighted_square",
            "check_window_cap_substitution",
            "dusart_reports",
            "full_verification",
            "lower_bound",
            "square_pyramid",
            "upper_bound",
            "verify_count_bounds",
        ),
        "errors": ("ResourceLimitError",),
        "primes": (
            "DUSART_LOWER_MIN_N",
            "DUSART_UPPER_FACTOR",
            "DusartCheck",
            "PrimeTable",
            "check_dusart",
            "check_rosser",
            "load_table",
            "nth_prime",
            "prime_count",
            "save_table",
            "sieve_primes",
        ),
        "reference": ("REFERENCE_LIMIT", "REFERENCE_VALUES"),
        "reports": ("FAIL", "INCONCLUSIVE", "PASS", "BoundReport", "compare_strict"),
        "serialize": ("record_from_dict", "record_to_dict", "serialize_report"),
        "windows": (
            "CountReport",
            "Representation",
            "count_sums",
            "count_windows",
            "enumerate_representations",
            "find_representations",
            "values_up_to",
        ),
    }.items()
    for name in names
}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
