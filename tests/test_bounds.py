"""Headline bounds, per-length caps, window caps, and the lemma checks."""

import ast
import math
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cpsq.bounds
import cpsq.windows
from cpsq import (
    INFORMATIONAL_LABELS,
    PER_LENGTH_COEFF,
    ResourceLimitError,
    analytic_max_window,
    check_dusart,
    check_length_count_bound,
    check_partial_sum,
    check_pyramid,
    check_reference_values,
    check_weighted_square,
    check_window_cap_substitution,
    count_sums,
    dusart_reports,
    full_verification,
    lower_bound,
    prime_count,
    sieve_primes,
    square_pyramid,
    upper_bound,
    verify_count_bounds,
)
from cpsq.cli import main
from cpsq.primes import MAX_LIMIT
from cpsq.reports import FAIL, INCONCLUSIVE, PASS, BoundReport, compare_strict, strict_report
from oracles import (
    reference_check_weighted_square,
    reference_check_window_cap_substitution,
)


def test_lower_bound_values():
    assert lower_bound(289) == pytest.approx(6.000254, abs=1e-6)
    assert lower_bound(2) > 0
    with pytest.raises(ValueError, match="lower bound needs"):
        lower_bound(1)


def test_upper_bound_values():
    assert upper_bound(5000) == pytest.approx(184.174, abs=1e-3)
    expected_1e9 = 10.9558 * 10**6 / math.log(10**9) ** (4 / 3)
    assert upper_bound(10**9) == pytest.approx(expected_1e9, rel=1e-12)
    with pytest.raises(ValueError, match="upper bound needs"):
        upper_bound(0)


def test_bound_formulas_refuse_x_past_the_float_range():
    # float(x) would overflow, so both refuse with the contract's ValueError
    for x in (10**400, 2**1024 - 1):
        digits = f"<{len(str(x))} digits>"
        with pytest.raises(ValueError, match=f"lower bound needs .*got {digits}"):
            lower_bound(x)
        with pytest.raises(ValueError, match=f"upper bound needs .*got {digits}"):
            upper_bound(x)
    assert lower_bound(10**308) == pytest.approx(2.820e151, rel=1e-3)
    assert upper_bound(10**308) == pytest.approx(3.732e202, rel=1e-3)


def test_sharp_constant_sits_just_below_the_rounded_one():
    # 5.0204 * 108^(1/6) = 10.95575... rounds up to 10.9558
    for x in (10, 5000, 10**9):
        assert upper_bound(x, sharp=True) < upper_bound(x)
        assert upper_bound(x, sharp=True) == pytest.approx(upper_bound(x), rel=1e-4)


# ---------------------------------------------------------------------------
# window caps
# ---------------------------------------------------------------------------

def test_window_cap_examples():
    cap = analytic_max_window(5000)
    assert cap.analytic_m == 19
    assert cap.exact_m == 12
    assert analytic_max_window(100).analytic_m == 7
    assert analytic_max_window(50).exact_m == 3
    # x = S_10 exactly, and one below it
    assert analytic_max_window(2397).exact_m == 10
    assert analytic_max_window(2396).exact_m == 9
    with pytest.raises(ValueError, match="window cap needs"):
        analytic_max_window(1)


def test_window_cap_grows_its_own_table_when_needed():
    cap = analytic_max_window(10**9)
    assert cap.analytic_m >= cap.exact_m  # the analytic cap never cuts short
    assert cap.exact_m == 411
    assert cap.x == 10**9


def test_window_cap_takes_one_sieve_that_holds_m_primes(monkeypatch):
    real = cpsq.bounds.sieve_primes
    ran = []

    def sieve(limit):
        ran.append(limit)
        return real(limit)

    monkeypatch.setattr(cpsq.bounds, "sieve_primes", sieve)
    cap = analytic_max_window(10**19)
    assert (cap.analytic_m, cap.exact_m) == (826_345, 524_136)
    # the least L >= 17 with L / ln L >= M(x); Dusart: pi(L) > L / ln L
    assert ran == [13_571_461]
    (limit,) = ran
    assert (limit - 1) / math.log(limit - 1) < cap.analytic_m <= limit / math.log(limit)


def test_window_cap_needing_primes_past_max_limit_is_refused(monkeypatch):
    real = cpsq.bounds.sieve_primes
    tried = []

    def sieve(limit):
        tried.append(limit)
        return real(limit)

    monkeypatch.setattr(cpsq.bounds, "sieve_primes", sieve)
    for x in (10**27, MAX_LIMIT**3, MAX_LIMIT**3 + 1, 10**30, 10**300, 10**400):
        with pytest.raises(ResourceLimitError):
            analytic_max_window(x)
    # up to MAX_LIMIT^3 the search finds L, which the sieve refuses; past
    # it x is refused before any float or sieve
    assert len(tried) == 2 and min(tried) > MAX_LIMIT


def test_only_the_command_entry_points_sieve():
    # every check below them reads the table it is given
    callers = set()
    for path in sorted(Path(cpsq.bounds.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sieve_primes"
                for node in ast.walk(function)
            ):
                callers.add(f"{path.stem}.{function.name}")
    assert callers == {
        "cli.provision_table",
        "bounds.full_verification",
        "bounds.analytic_max_window",
    }


@given(st.integers(min_value=2, max_value=10**7))
def test_exact_cap_brackets_x(table_small, x):
    cap = analytic_max_window(x)
    sp = table_small.square_prefix
    assert sp[cap.exact_m] <= x < sp[cap.exact_m + 1]
    assert cap.analytic_m >= cap.exact_m


def test_analytic_cap_never_drops_below_5():
    # floor(108^(1/3) x^(1/3) / (ln x)^(2/3)) bottoms out at 5 near x = 7,
    # which is what keeps the substitution check's M >= 4 guard unreachable
    assert min(
        analytic_max_window(x).analytic_m for x in range(2, 10_001)
    ) == 5


# ---------------------------------------------------------------------------
# per-length counting chain
# ---------------------------------------------------------------------------

def test_length_count_bound_named_points(table_small):
    r = check_length_count_bound(2020, table_small)[3]
    assert r.label == "length-count-bound[m=4]"
    assert r.observed == 7
    assert r.lhs == 8.0  # pi(floor(sqrt(505))) = pi(22)
    assert r.verdict == PASS

    r1 = check_length_count_bound(100, table_small)[0]
    assert r1.observed == 4 and r1.lhs == 4.0  # scp_1(100) = pi(10)
    assert r1.verdict == PASS


def test_length_count_bound_rejects_bad_ranges(table_small):
    # below S_1 = 4 no length has a window; below S_2 = 13 only m = 1 does
    assert check_length_count_bound(3, table_small) == []
    assert [r.label for r in check_length_count_bound(12, table_small)] == [
        "length-count-bound[m=1]"
    ]
    with pytest.raises(ValueError):
        check_length_count_bound(0, table_small)
    with pytest.raises(ValueError, match="sieve to at least 31622"):
        check_length_count_bound(10**9, table_small)  # needs primes to 31622


def test_length_count_bound_whole_grid(table_big):
    """Every (x, m) with x a power of ten up to 10^6 and m up to the cap."""
    for x in (10**3, 10**4, 10**5, 10**6):
        reports = check_length_count_bound(x, table_big)
        assert len(reports) == analytic_max_window(x).exact_m
        for m, r in enumerate(reports, 1):
            assert r.label == f"length-count-bound[m={m}]"
            assert r.verdict == PASS, f"x={x} m={m}: {r}"


def test_length_count_bound_fails_a_count_past_its_pi_cap(monkeypatch, capsys, table_small):
    # the walk is the one source of c_m: one length-3 window more than
    # pi(sqrt(x / 3)) must fail that length's chain and the verify command;
    # the enumeration below 5000 comes from the same walk, so the
    # reference-values row fails with it, one value too many
    walk = cpsq.windows._walk

    def overcounting_walk(x, table):
        counts = walk(x, table)
        counts[2] = prime_count(isqrt(x // 3), table) + 1
        return counts

    monkeypatch.setattr(cpsq.windows, "_walk", overcounting_walk)
    reports = check_length_count_bound(10**5, table_small)
    assert [r.label for r in reports if r.verdict == FAIL] == ["length-count-bound[m=3]"]
    assert reports[2].observed == reports[2].lhs + 1
    assert main(["verify", "--grid", "100000"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.endswith("fail")]
    assert len(failed) == 2 and failed[0].startswith("length-count-bound[m=3]")
    assert failed[1].startswith("reference-values ") and " 91 vs 92 " in failed[1]


def test_length_count_bound_majorant_is_the_local_log_form(table_small):
    # at x = 10^5, m = 3 there are 40 windows; 2.5102 sqrt(x/3)/ln(x/3) is
    # 44.0 and caps them, while the same expression with ln x is 39.8 and
    # would not
    r = check_length_count_bound(10**5, table_small)[2]
    assert r.observed == 40
    assert r.rhs == pytest.approx(44.0065, abs=1e-3)
    assert r.verdict == PASS
    assert PER_LENGTH_COEFF == 2.5102
    assert PER_LENGTH_COEFF * math.sqrt(10**5 / 3) / math.log(10**5) < 40


@given(st.integers(min_value=5, max_value=10**6))
@settings(max_examples=60)
def test_length_count_bound_random_points(table_small, x):
    for r in check_length_count_bound(x, table_small):
        assert r.verdict == PASS
        assert r.observed <= r.lhs < r.rhs


@st.composite
def counts_and_majorant(draw):
    """Integers 0 <= c <= p < 2^53 and a finite M > 0, often a few ulps from
    c, from p, or from the edges of compare_strict's margin around them."""
    p = draw(st.integers(0, 2**53 - 1))
    c = draw(st.integers(0, p) | st.integers(max(p - 3, 0), p))
    near = draw(st.sampled_from([c, p])) * draw(st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12]))
    m = draw(st.just(near) | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        m = math.nextafter(m, math.copysign(math.inf, steps))
    assume(0.0 < m < math.inf)
    return c, p, m


@given(counts_and_majorant())
@settings(max_examples=1000)
def test_the_pi_cap_compare_decides_the_count_compare(case):
    # check_length_count_bound compares only the pi cap p with the majorant
    # M once c <= p holds; comparing c with M as well never changes the
    # verdict (c > p fails before either compare)
    c, p, m = case
    both = {compare_strict(c, m), compare_strict(p, m)}
    worst = FAIL if FAIL in both else INCONCLUSIVE if INCONCLUSIVE in both else PASS
    assert compare_strict(p, m) == worst, (c, p, m)


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------

def test_partial_sum_named_point():
    r = check_partial_sum(4, 0.5)
    assert r.lhs == pytest.approx(2.784457, abs=1e-6)
    assert r.rhs == pytest.approx(3.0, abs=1e-12)
    assert r.verdict == PASS


def test_partial_sum_m1_is_equality_hence_not_applicable():
    r = check_partial_sum(1, 0.5)
    assert not r.applicable
    assert r.verdict == "inconclusive"
    assert r.lhs == pytest.approx(r.rhs)


def test_partial_sum_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError, match="alpha must lie in"):
            check_partial_sum(10, alpha)
    with pytest.raises(ValueError):
        check_partial_sum(0, 0.5)


@given(
    st.integers(min_value=2, max_value=400),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_partial_sum_passes_generically(m_cap, alpha):
    assert check_partial_sum(m_cap, alpha).verdict == PASS


def test_weighted_square_named_point():
    r = check_weighted_square(4)
    assert r.lhs == pytest.approx(10.2497, abs=1e-4)
    assert r.rhs == pytest.approx(43.5333, abs=1e-4)
    assert r.verdict == PASS


def test_weighted_square_needs_m_at_least_4():
    for m in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="needs M >= 4"):
            check_weighted_square(m)


@given(st.integers(min_value=4, max_value=800))
def test_weighted_square_passes_generically(m_cap):
    assert check_weighted_square(m_cap).verdict == PASS


@pytest.mark.parametrize("m_cap", [4, 5, 9, 10, 16, 17, 99, 100, 101, 1000, 2000])
def test_weighted_square_tail_starts_at_the_sqrt_cutoff(m_cap, monkeypatch):
    # the tail sum only feeds link checks that positive terms always pass,
    # so its lower end shows in which terms it is given, not in the verdict
    sums = []

    def recording(terms):
        sums.append(list(terms))
        return math.fsum(terms)

    monkeypatch.setattr(cpsq.bounds, "fsum", recording)
    check_weighted_square(m_cap)
    full, tail = sums
    cut = math.ceil(math.sqrt(m_cap))  # exact for these small M
    assert full == [(n * math.log(n)) ** 2 for n in range(2, m_cap + 1)]
    assert len(tail) == m_cap - cut + 1
    assert tail == full[cut - 2 :]
    assert tail[0] == (cut * math.log(cut)) ** 2


@given(st.lists(st.floats(min_value=0.0, max_value=2.0**1017), max_size=64))
def test_a_tail_of_non_negative_terms_never_sums_past_the_whole(terms):
    # why check_weighted_square need not compare its tail with the full sum:
    # the tail's exact sum is no larger, and fsum rounds both correctly
    full = math.fsum(terms)  # at most 2^1023, finite
    assert all(math.fsum(terms[k:]) <= full for k in range(len(terms) + 1))


@given(st.integers(min_value=0, max_value=5000))
def test_square_pyramid_closed_form(m_cap):
    assert square_pyramid(m_cap) == sum(n * n for n in range(1, m_cap + 1))


def test_square_pyramid_refuses_a_negative_m():
    with pytest.raises(ValueError, match="M must be >= 0, got -1"):
        square_pyramid(-1)


def test_check_pyramid_is_an_equality_report():
    r = check_pyramid(1000)
    assert r.lhs == r.rhs
    assert r.verdict == PASS
    with pytest.raises(ValueError):
        check_pyramid(0)


def test_check_reference_values_is_an_equality_report():
    # any table covering sqrt(5000) = 70.7 serves
    r = check_reference_values(sieve_primes(71))
    assert r == ("reference-values", 5000, 91.0, 91.0, 91, True, PASS)


# ---------------------------------------------------------------------------
# substitution behind the analytic cap (recorded, not asserted)
# ---------------------------------------------------------------------------

def test_substitution_at_5000(table_small):
    r = check_window_cap_substitution(5000, table_small)
    assert r.label in INFORMATIONAL_LABELS
    assert r.rhs == pytest.approx(17443.56, abs=0.01)
    assert r.observed == 24966  # S_19, the prime-square sum at the cap
    assert r.applicable
    assert r.verdict == PASS


def test_substitution_reads_only_the_table_it_is_given(monkeypatch):
    small = sieve_primes(1000)  # 168 primes, against M(10^9) = 631

    def sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(cpsq.bounds, "sieve_primes", sieve)
    with pytest.raises(ValueError, match=r"must be in 0\.\.168 .*got 631"):
        check_window_cap_substitution(10**9, small)


def test_substitution_sweep_returns_verdicts(table_small):
    for x in (2, 7, 100, 5000, 10**6):
        r = check_window_cap_substitution(x, table_small)
        assert r.verdict in ("pass", "fail", "inconclusive")
        assert r.observed >= r.x_or_m or r.verdict != PASS


# ---------------------------------------------------------------------------
# assembled verification
# ---------------------------------------------------------------------------

def test_dusart_reports_split(table_small):
    lower, upper = dusart_reports(check_dusart(16, table_small))
    assert lower.label == "dusart-lower" and not lower.applicable
    assert upper.label == "dusart-upper" and upper.verdict == PASS
    lower17, upper17 = dusart_reports(check_dusart(17, table_small))
    assert lower17.applicable and lower17.verdict == PASS
    assert upper17.verdict == PASS


def test_verify_count_bounds_applicability_edge(table_small):
    reports = verify_count_bounds([288, 289], table_small)
    by_key = {(r.label, r.x_or_m): r for r in reports}
    assert not by_key[("count-lower/pi-sqrt", 288)].applicable
    assert by_key[("count-lower/pi-sqrt", 288)].verdict == "inconclusive"
    assert by_key[("count-lower/pi-sqrt", 289)].applicable
    assert all(
        r.verdict == PASS for r in reports if r.applicable
    )


def test_strict_report_draws_no_conclusion_outside_the_range():
    assert compare_strict(2.0, 1.0) == FAIL
    r = strict_report("t", 5, 2.0, 1.0, applicable=False)
    assert r == ("t", 5, 2.0, 1.0, None, False, INCONCLUSIVE)


def test_strict_report_takes_a_verdict_passed_in():
    assert strict_report("t", 5, 1.0, 2.0).verdict == PASS
    assert strict_report("t", 5, 1.0, 2.0, verdict=FAIL).verdict == FAIL
    assert strict_report("t", 5, 2.0, 1.0, verdict=PASS).verdict == PASS
    assert strict_report("t", 5, 2.0, 1.0, applicable=False, verdict=FAIL).verdict == FAIL


def test_strict_report_stores_both_sides_as_floats():
    r = strict_report("t", 7, 3, 2**53 + 1, 3)
    assert type(r) is BoundReport
    assert r == ("t", 7, 3.0, 2.0**53, 3, True, PASS)
    assert (type(r.lhs), type(r.rhs), type(r.observed)) == (float, float, int)


def test_every_battery_row_follows_the_one_verdict_rule():
    reports = full_verification([2, 100, 288, 289, 10**4])
    assert len(reports) == 145
    assert sum(not r.applicable for r in reports) == 14
    for r in reports:
        assert (type(r.lhs), type(r.rhs)) == (float, float), r
        if not r.applicable:
            assert r.verdict == INCONCLUSIVE, r
        elif r.label not in ("pyramid", "reference-values"):
            assert r.verdict == compare_strict(r.lhs, r.rhs), r
    assert {r.label.split("[")[0] for r in reports} == {
        *(f"count-lower/{name}" for name in ("pi-sqrt", "distinct", "multiplicity")),
        *(f"{tag}/{name}" for tag in ("count-upper", "count-upper-sharp")
          for name in ("distinct", "multiplicity")),
        "length-count-bound", "window-cap-substitution", "dusart-lower", "dusart-upper",
        "rosser", "partial-sum", "weighted-square", "pyramid", "reference-values",
    }


def test_theorem_brackets_both_counts_up_to_1e10(table_big):
    for x in (289, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9, 10**10):
        counts = count_sums(x, table_big)
        pi_sqrt = prime_count(isqrt(x), table_big)
        assert lower_bound(x) < pi_sqrt <= counts.distinct_count
        assert counts.distinct_count <= counts.multiplicity_count
        assert counts.multiplicity_count < upper_bound(x, sharp=True)
        assert counts.multiplicity_count < upper_bound(x)


def test_full_verification_small_grid_is_clean():
    reports = full_verification([289, 1000, 2020])
    bad = [
        r
        for r in reports
        if r.applicable and r.verdict == FAIL and r.label not in INFORMATIONAL_LABELS
    ]
    assert bad == []
    labels = {r.label for r in reports}
    assert "count-lower/pi-sqrt" in labels
    assert "rosser" in labels
    assert "weighted-square" in labels
    assert any(label.startswith("length-count-bound") for label in labels)


# ---------------------------------------------------------------------------
# the (n ln n)^2 series, summed from one term list
# ---------------------------------------------------------------------------

def test_weighted_square_equals_the_reference_at_every_m_to_2000():
    for m_cap in (*range(4, 2001), *cpsq.bounds._WEIGHTED_POINTS):
        assert check_weighted_square(m_cap) == reference_check_weighted_square(m_cap), m_cap


def test_substitution_equals_the_reference_up_to_m_2000(table_big):
    """Every x to 2*10^4, then x growing by 1% a step until M(x) passes
    2000, then the default verify grid."""
    xs = list(range(2, 20_001))
    while analytic_max_window(xs[-1]).analytic_m <= 2000:
        xs.append(xs[-1] * 101 // 100)
    xs.extend(cpsq.bounds.DEFAULT_VERIFY_GRID)
    for x in xs:
        got = check_window_cap_substitution(x, table_big)
        assert got == reference_check_window_cap_substitution(x, table_big), x
