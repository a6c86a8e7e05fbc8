"""The scalar check path: compare_strict's margin and the Dusart and Rosser
records, held bit for bit to the reference forms in ``oracles``."""

import copy
import inspect
import json
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cpsq.primes
from cpsq import check_dusart, check_rosser, serialize_report, sieve_primes
from cpsq.primes import DusartCheck
from cpsq.reports import FAIL, INCONCLUSIVE, PASS, BoundReport, compare_strict
from cpsq.serialize import record_from_dict, record_to_dict
from oracles import (
    reference_check_dusart,
    reference_check_rosser,
    reference_compare_strict,
)

TINY = 5e-324  # the least positive subnormal
MIN_NORMAL = sys.float_info.min
LARGEST_SUBNORMAL = math.nextafter(MIN_NORMAL, 0.0)

SPECIALS = [
    0.0,
    TINY,
    2 * TINY,
    4 * TINY,
    5 * TINY,
    LARGEST_SUBNORMAL,
    MIN_NORMAL,
    math.nextafter(MIN_NORMAL, math.inf),
    1.0,
    1e300,
    sys.float_info.max,
    math.inf,
]
SPECIALS += [-v for v in SPECIALS] + [math.nan]


@pytest.fixture(scope="module")
def rosser_table():
    """Primes to 1.3e6: pi(N) for the random Dusart points, p_n for n <= 1e5."""
    return sieve_primes(1_300_000)


def _same_verdict(lhs, rhs):
    assert compare_strict(lhs, rhs) == reference_compare_strict(lhs, rhs), (lhs, rhs)


# ---------------------------------------------------------------------------
# compare_strict
# ---------------------------------------------------------------------------

def test_compare_strict_matches_the_reference_on_every_special_pair():
    for lhs in SPECIALS:
        for rhs in SPECIALS:
            _same_verdict(lhs, rhs)


def test_compare_strict_ulp_margin_below_the_smallest_normal():
    # at scale 0 and in the subnormals the margin is 4 ulps = 4 * TINY
    assert compare_strict(0.0, 4 * TINY) == INCONCLUSIVE
    assert compare_strict(0.0, 5 * TINY) == PASS
    assert compare_strict(5 * TINY, -0.0) == FAIL
    assert compare_strict(-0.0, 0.0) == INCONCLUSIVE
    for k in range(9):
        _same_verdict(0.0, k * TINY)
        _same_verdict(k * TINY, 0.0)
        _same_verdict(-k * TINY, k * TINY)


def test_compare_strict_nan_and_inf_are_inconclusive():
    for other in (0.0, 1.0, -1.0, math.inf, -math.inf, math.nan):
        for pair in ((math.nan, other), (other, math.nan)):
            assert compare_strict(*pair) == INCONCLUSIVE
    assert compare_strict(1.0, math.inf) == INCONCLUSIVE
    assert compare_strict(-math.inf, 1.0) == INCONCLUSIVE


@pytest.mark.parametrize(
    "low", [LARGEST_SUBNORMAL / 2, LARGEST_SUBNORMAL, MIN_NORMAL, 1.0, 12345.678, 1e300]
)
def test_compare_strict_just_inside_and_outside_the_margin(low):
    """Walk rhs across the edge of the margin above ``low``: both forms must
    agree at every step, and the walk must cross from doubt into a pass."""
    scale_ulp = math.ulp(low)
    edge = max(low / (1 - 1e-12), low + 4 * scale_ulp)
    rhs = edge
    for _ in range(8):
        rhs = math.nextafter(rhs, 0.0)
    seen = set()
    for _ in range(17):
        for lhs, r in ((low, rhs), (-low, -rhs), (rhs, low), (-rhs, -low)):
            _same_verdict(lhs, r)
        seen.add(compare_strict(low, rhs))
        rhs = math.nextafter(rhs, math.inf)
    assert seen == {INCONCLUSIVE, PASS}


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(finite_or_not, finite_or_not)
def test_compare_strict_property_any_pair(lhs, rhs):
    _same_verdict(lhs, rhs)


@given(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(min_value=-3e-12, max_value=3e-12),
)
def test_compare_strict_property_near_pairs(x, rel):
    _same_verdict(x, x * (1 + rel))
    _same_verdict(x * (1 + rel), x)


@given(st.integers(min_value=0, max_value=10**7), finite_or_not)
def test_compare_strict_property_int_against_float(count, bound):
    _same_verdict(count, bound)
    _same_verdict(bound, count)


# ---------------------------------------------------------------------------
# Dusart and Rosser records
# ---------------------------------------------------------------------------

def test_dusart_records_equal_the_reference_at_every_n_to_3e5(rosser_table):
    for n in range(2, 3 * 10**5 + 1):
        got, want = check_dusart(n, rosser_table), reference_check_dusart(n, rosser_table)
        assert got == want, n


def test_dusart_records_equal_the_reference_at_random_n(rosser_table):
    rng = np.random.default_rng(20211)
    for n in rng.integers(2, 1_300_000, size=10**4, endpoint=True).tolist():
        assert check_dusart(n, rosser_table) == reference_check_dusart(n, rosser_table), n


def test_rosser_records_equal_the_reference_at_every_n_to_1e5(rosser_table):
    for n in range(1, 10**5 + 1):
        assert check_rosser(n, rosser_table) == reference_check_rosser(n, rosser_table), n


def test_records_compare_every_field(rosser_table):
    """``==`` on the records is field by field, types included where it counts."""
    got, want = check_rosser(54321, rosser_table), reference_check_rosser(54321, rosser_table)
    assert type(got) is type(want)
    assert got._asdict() == want._asdict()
    assert [type(v) for v in got] == [type(v) for v in want]
    got, want = check_dusart(654321, rosser_table), reference_check_dusart(654321, rosser_table)
    assert type(got) is type(want)
    assert got._asdict() == want._asdict()
    assert hash(got) == hash(want)


def test_rosser_with_a_numpy_index_serializes(rosser_table):
    record = check_rosser(np.int64(10), rosser_table)
    assert record == check_rosser(10, rosser_table)
    assert type(record.x_or_m) is int and type(record.lhs) is float
    assert serialize_report([record], "json") == serialize_report(
        [check_rosser(10, rosser_table)], "json"
    )
    assert json.loads(serialize_report([record], "json"))[0]["x_or_m"] == 10


def test_dusart_with_a_numpy_index_serializes(rosser_table):
    record = check_dusart(np.int64(10**5), rosser_table)
    assert record == check_dusart(10**5, rosser_table)
    assert type(record.n) is int
    assert serialize_report([record], "json") == serialize_report(
        [check_dusart(10**5, rosser_table)], "json"
    )


# ---------------------------------------------------------------------------
# the records are immutable named tuples with the documented fields
# ---------------------------------------------------------------------------

FIELDS = {
    BoundReport: ("label", "x_or_m", "lhs", "rhs", "observed", "applicable", "verdict"),
    DusartCheck: ("n", "lower_value", "pi_value", "upper_value", "lower_applicable", "passed"),
}

# one value per field, in field order, no two alike, so that a value stored
# under the wrong name or not stored at all shows
RECORD_VALUES = [
    (BoundReport, ("rosser", 54321, 592356.5, 672593.0, 672593, True, PASS)),
    (BoundReport, ("dusart-lower", 16, 5.77, 6.0, None, False, INCONCLUSIVE)),
    (DusartCheck, (654321, 48906.25, 53209, 61382.24, True, False)),
    (DusartCheck, (16, 5.77, 6, 7.24, False, True)),
]


# the makers the checks build their records with, from one tuple of values
MAKERS = {BoundReport: cpsq.primes._bound_report, DusartCheck: cpsq.primes._dusart_check}


@pytest.fixture(
    params=[(row, False) for row in RECORD_VALUES] + [(row, True) for row in RECORD_VALUES],
    ids=lambda p: f"{p[0][0].__name__}-{p[0][1][0]}" + ("-maker" if p[1] else ""),
)
def built(request):
    """A record class, its field values in order and the record built from
    them: positionally, or by the maker the checks use."""
    (cls, values), by_maker = request.param
    return cls, values, MAKERS[cls](values) if by_maker else cls(*values)


@pytest.mark.parametrize("cls", [BoundReport, DusartCheck])
def test_record_init_takes_the_fields_in_order(cls):
    assert cls._fields == FIELDS[cls]
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]


def test_record_init_stores_each_field_under_its_name(built):
    cls, values, record = built
    assert [getattr(record, name) for name in cls._fields] == list(values)
    assert list(record._asdict().items()) == list(zip(cls._fields, values))


def test_record_built_by_keyword_equals_the_positional_one(built):
    cls, values, record = built
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_keyword == record
    assert hash(by_keyword) == hash(record)
    assert repr(by_keyword) == repr(record)


def test_record_stays_frozen(built):
    cls, _, record = built
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_round_trips(built):
    cls, values, record = built
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        record._replace(),
        record_from_dict(cls, record_to_dict(record)),
    ):
        assert type(twin) is cls
        assert twin == record
    second = cls._fields[1]  # numeric in both classes
    changed = record._replace(**{second: values[1] + 1})
    assert type(changed) is cls
    assert changed == values[:1] + (values[1] + 1,) + values[2:]


# ---------------------------------------------------------------------------
# helpers are looked up at call time, so wrappers see every call
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Replace the helpers on cpsq.primes with counting wrappers."""
    calls = {}
    for name in ("compare_strict", "prime_count", "nth_prime"):
        calls[name] = 0
        inner = getattr(cpsq.primes, name)

        def wrapper(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(cpsq.primes, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "check, n, expected",
    [
        (check_dusart, 17, {"compare_strict": 2, "prime_count": 1, "nth_prime": 0}),
        (check_dusart, 10**5, {"compare_strict": 2, "prime_count": 1, "nth_prime": 0}),
        (check_dusart, 16, {"compare_strict": 1, "prime_count": 1, "nth_prime": 0}),
        (check_dusart, 2, {"compare_strict": 1, "prime_count": 1, "nth_prime": 0}),
        (check_rosser, 1, {"compare_strict": 1, "prime_count": 0, "nth_prime": 1}),
        (check_rosser, 10**4, {"compare_strict": 1, "prime_count": 0, "nth_prime": 1}),
    ],
)
def test_checks_call_the_module_helpers(counted, rosser_table, check, n, expected):
    check(n, rosser_table)
    assert counted == expected
