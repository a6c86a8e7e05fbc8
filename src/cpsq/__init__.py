"""Sums of squares of consecutive primes.

A window of m consecutive primes starting at the n-th prime contributes the
value p_n^2 + ... + p_{n+m-1}^2; this package enumerates, counts, and looks
up such values, and verifies the explicit bounds that govern how many of
them sit below a threshold. See the README for the mathematical background
and the CLI surface.
"""

from .bounds import (
    CAP_COEFF,
    INFORMATIONAL_LABELS,
    LOWER_MIN_X,
    PER_LENGTH_COEFF,
    UPPER_COEFF,
    UPPER_COEFF_SHARP,
    WindowCap,
    analytic_max_window,
    check_length_count_bound,
    check_partial_sum,
    check_pyramid,
    check_weighted_square,
    check_window_cap_substitution,
    dusart_reports,
    full_verification,
    lower_bound,
    square_pyramid,
    upper_bound,
    verify_count_bounds,
)
from .errors import ResourceLimitError
from .primes import (
    DUSART_LOWER_MIN_N,
    DUSART_UPPER_FACTOR,
    DusartCheck,
    PrimeTable,
    check_dusart,
    check_rosser,
    load_table,
    nth_prime,
    prime_count,
    save_table,
    sieve_primes,
)
from .reference import REFERENCE_LIMIT, REFERENCE_VALUES
from .reports import FAIL, INCONCLUSIVE, PASS, BoundReport, compare_strict
from .serialize import record_from_dict, record_to_dict, serialize_report
from .windows import (
    CountReport,
    Representation,
    count_sums,
    count_windows,
    enumerate_representations,
    find_representations,
    max_window_length,
    values_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CAP_COEFF",
    "CountReport",
    "DUSART_LOWER_MIN_N",
    "DUSART_UPPER_FACTOR",
    "DusartCheck",
    "FAIL",
    "INCONCLUSIVE",
    "INFORMATIONAL_LABELS",
    "LOWER_MIN_X",
    "PASS",
    "PER_LENGTH_COEFF",
    "PrimeTable",
    "REFERENCE_LIMIT",
    "REFERENCE_VALUES",
    "Representation",
    "ResourceLimitError",
    "UPPER_COEFF",
    "UPPER_COEFF_SHARP",
    "WindowCap",
    "analytic_max_window",
    "check_dusart",
    "check_length_count_bound",
    "check_partial_sum",
    "check_pyramid",
    "check_rosser",
    "check_weighted_square",
    "check_window_cap_substitution",
    "compare_strict",
    "count_sums",
    "count_windows",
    "dusart_reports",
    "enumerate_representations",
    "find_representations",
    "full_verification",
    "load_table",
    "lower_bound",
    "max_window_length",
    "nth_prime",
    "prime_count",
    "record_from_dict",
    "record_to_dict",
    "save_table",
    "serialize_report",
    "sieve_primes",
    "square_pyramid",
    "upper_bound",
    "values_up_to",
    "verify_count_bounds",
    "__version__",
]
