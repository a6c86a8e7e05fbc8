"""Round-trip and formatting guarantees for the three output forms."""

import io
import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpsq.serialize
from cpsq import (
    BoundReport,
    CountReport,
    DusartCheck,
    Representation,
    WindowCap,
    count_sums,
    record_from_dict,
    record_to_dict,
    serialize_report,
)
from cpsq.serialize import (
    FORMATS,
    VALUE_CHUNK,
    _render_values,
    to_csv,
    to_json,
    to_text,
    write_values,
)
from oracles import printed_values

SAMPLE_BOUND = BoundReport(
    label="count-upper/distinct",
    x_or_m=5000,
    lhs=91.0,
    rhs=184.17441970297375,
    observed=91,
    applicable=True,
    verdict="pass",
)

SAMPLE_CAP = WindowCap(x=5000, analytic_m=19, exact_m=12)

SAMPLE_DUSART = DusartCheck(
    n=17,
    lower_value=6.000254498632439,
    pi_value=7,
    upper_value=7.531519421633577,
    lower_applicable=True,
    passed=True,
)


def test_json_round_trip_bound_report():
    data = json.loads(to_json([SAMPLE_BOUND]))[0]
    assert record_from_dict(BoundReport, data) == SAMPLE_BOUND


def test_json_round_trip_preserves_float_precision():
    data = json.loads(to_json([SAMPLE_BOUND]))[0]
    assert data["rhs"] == 184.17441970297375  # full precision, not %.6g


def test_json_round_trip_count_report(table_small):
    report = count_sums(5000, table_small)
    data = json.loads(to_json([report]))[0]
    assert set(data["per_length"].keys()) == {str(m) for m in report.per_length}
    assert record_from_dict(CountReport, data) == report


def test_json_round_trip_remaining_records():
    rep = Representation(start_index=7, length=4, value=2020)
    assert record_from_dict(Representation, json.loads(to_json([rep]))[0]) == rep
    assert record_from_dict(WindowCap, json.loads(to_json([SAMPLE_CAP]))[0]) == SAMPLE_CAP
    assert (
        record_from_dict(DusartCheck, json.loads(to_json([SAMPLE_DUSART]))[0])
        == SAMPLE_DUSART
    )


def test_record_to_dict_rejects_non_records():
    for thing in ({"not": "a record"}, ("a", "tuple"), BoundReport):
        with pytest.raises(TypeError):
            record_to_dict(thing)
        with pytest.raises(TypeError):
            to_text([thing])
        with pytest.raises(TypeError):
            to_csv([thing])


def test_csv_header_and_cells():
    out = to_csv([SAMPLE_BOUND])
    lines = out.strip().split("\n")
    assert lines[0] == "label,x_or_m,lhs,rhs,observed,applicable,verdict"
    assert lines[1] == "count-upper/distinct,5000,91,184.174,91,true,pass"


def test_csv_none_becomes_empty_cell():
    report = BoundReport(
        label="partial-sum[alpha=0.5]",
        x_or_m=4,
        lhs=2.7844570503761732,
        rhs=3.0,
        observed=None,
        applicable=True,
        verdict="pass",
    )
    line = to_csv([report]).strip().split("\n")[1]
    assert line == "partial-sum[alpha=0.5],4,2.78446,3,,true,pass"


def test_csv_per_length_cell_uses_semicolons(table_small):
    report = count_sums(50, table_small)
    line = to_csv([report]).strip().split("\n")[1]
    assert "1:4;2:2;3:1" in line


def test_csv_requires_single_record_type():
    with pytest.raises(ValueError, match="single type"):
        to_csv([SAMPLE_BOUND, SAMPLE_CAP])


def test_csv_empty_is_empty_string():
    assert to_csv([]) == ""


def test_text_bound_report_line():
    assert to_text([SAMPLE_BOUND]) == (
        "count-upper/distinct         at 5000: 91 vs 184.174 observed=91 -> pass"
    )


def test_text_flags_inapplicable_reports():
    report = BoundReport(
        label="dusart-lower",
        x_or_m=16,
        lhs=5.770780163555856,
        rhs=6.0,
        observed=6,
        applicable=False,
        verdict="inconclusive",
    )
    assert to_text([report]).endswith("-> inconclusive (not applicable)")


def test_text_window_cap_line():
    assert to_text([SAMPLE_CAP]) == "x=5000 analytic_m=19 exact_m=12"


def test_text_dusart_line_renders_each_value_as_a_csv_cell():
    assert to_text([SAMPLE_DUSART]) == (
        "n=17 lower_value=6.00025 pi_value=7 upper_value=7.53152 "
        "lower_applicable=true passed=true"
    )


class Probe(NamedTuple):
    """A record type the package does not define."""

    name: str
    ratio: float
    counts: dict


def test_any_named_tuple_renders_by_its_fields():
    probe = Probe(name="probe", ratio=0.1234567, counts={1: 2, 3: 4})
    assert serialize_report([probe], "text") == "name=probe ratio=0.123457 counts=1:2;3:4"
    assert serialize_report([probe], "csv") == "name,ratio,counts\nprobe,0.123457,1:2;3:4"
    assert json.loads(serialize_report([probe], "json")) == [
        {"name": "probe", "ratio": 0.1234567, "counts": {"1": 2, "3": 4}}
    ]


def test_the_library_writes_a_count_report_as_name_value_text(table_small):
    # cpsq count writes its own text lines; the library has none for a CountReport
    report = count_sums(50, table_small)
    assert serialize_report([report], "text") == (
        "x=50 distinct_count=7 multiplicity_count=7 per_length=1:4;2:2;3:1 max_length_seen=3"
    )


def test_serialize_report_dispatch_and_unknown_format():
    assert serialize_report([], "json") == "[]"
    assert serialize_report([], "text") == ""
    with pytest.raises(ValueError, match="unknown format"):
        serialize_report([SAMPLE_BOUND], "yaml")


def written_values(values, fmt):
    out = io.BytesIO()
    write_values(np.array(values, dtype=np.uint64), fmt, out)
    return out.getvalue().decode("ascii")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "values",
    [
        [],
        [7],
        [4],
        [10**19 - 1],
        [10**19],
        [2**64 - 1],
        [0, 9, 10, 99, 100, 9999, 10**4, 10**19 - 1, 10**19, 2**64 - 1],
        [10**k + d for k in range(20) for d in (-1, 0) if 10**k + d >= 0],
        [0, 4, 9, 13, 25, 34, 38, 49, 50, 74, 83, 87, 99, 100, 101],
    ],
)
def test_write_values_matches_printing_each_value(values, fmt):
    assert written_values(values, fmt) == printed_values(values, fmt)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_write_values_across_chunk_edges(fmt):
    values = sorted(
        {int(v) for v in np.random.default_rng(7).integers(0, 10**13, 2 * VALUE_CHUNK + 5)}
    )
    for n in (VALUE_CHUNK, VALUE_CHUNK + 1, len(values)):
        assert written_values(values[:n], fmt) == printed_values(values[:n], fmt)


def test_write_values_writes_chunk_by_chunk():
    # each chunk is written as the uint8 array it was rendered into, not as
    # a bytes copy; the array is copied here, since its buffer is reused;
    # in every format, no values write no array at all
    writes = []

    class Sink:
        def write(self, data):
            writes.append((type(data), bytes(data)))

    write_values(np.arange(1, 2 * VALUE_CHUNK + 2, dtype=np.uint64), "text", Sink())
    chunks = [(kind, data) for kind, data in writes if data]
    assert [data.count(b"\n") for _, data in chunks] == [VALUE_CHUNK, VALUE_CHUNK, 1]
    assert {kind for kind, _ in chunks} == {np.ndarray}
    for fmt in FORMATS:
        for values in ([], [4]):
            writes.clear()
            write_values(np.array(values, dtype=np.uint64), fmt, Sink())
            assert (np.ndarray in {kind for kind, _ in writes}) == bool(values)


def test_write_values_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        write_values(np.array([4], dtype=np.uint64), "yaml", io.BytesIO())


# ---------------------------------------------------------------------------
# the renderer's column stores, and the chunks rendered one after another
# ---------------------------------------------------------------------------

def rendered(values, sep):
    chunk = np.array(values, dtype=np.uint64)
    scratch = np.empty((2, chunk.size), dtype=np.uint64), np.empty(chunk.size, dtype=np.uint32)
    return _render_values(chunk, sep, None, scratch).tobytes().decode("ascii")


def width_run(w):
    """Sorted values of w digits: both ends of the width and some between."""
    lo, hi = 10 ** (w - 1) if w > 1 else 0, min(10**w, 2**64) - 1
    inner = np.random.default_rng(w).integers(lo, hi, 200, dtype=np.uint64, endpoint=True)
    return sorted({lo, lo + 1, hi - 1, hi, *inner.tolist()})


@pytest.mark.parametrize("sep", [b"\n", b", "])
@pytest.mark.parametrize("w", range(1, 21))
def test_render_every_digit_width(w, sep):
    # w + len(sep) < 4 (w <= 2 with a newline, w = 1 with ", ") are the
    # rows shorter than one uint32 store
    values = width_run(w)
    text = sep.decode()
    assert rendered(values, sep) == "".join(f"{v}{text}" for v in values)
    for v in values[:2] + values[-2:]:
        assert rendered([v], sep) == f"{v}{text}"  # a chunk of one value


@pytest.mark.parametrize("sep", [b"\n", b", "])
def test_render_across_every_width_in_one_chunk(sep):
    values = [v for w in range(1, 21) for v in width_run(w)]
    text = sep.decode()
    assert rendered(values, sep) == "".join(f"{v}{text}" for v in values)
    assert rendered([2**64 - 1], sep) == f"{2**64 - 1}{text}"
    assert rendered(list(range(20000)), sep) == "".join(f"{v}{text}" for v in range(20000))


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=300, unique=True))
@settings(max_examples=200)
def test_render_random_sorted_values(values):
    values.sort()
    for sep in (b"\n", b", "):
        assert rendered(values, sep) == "".join(f"{v}{sep.decode()}" for v in values)


def many_chunks(n_chunks, seed=11):
    values = np.random.default_rng(seed).integers(1, 10**15, n_chunks * VALUE_CHUNK, dtype=np.uint64)
    values.sort()
    return values


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_chunk_renders_into_the_buffer_the_chunk_before_was_written_from(
    monkeypatch, fmt
):
    # a chunk no wider than the one before fits that chunk's buffer and
    # reuses it; the spy keeps every rendered array alive, so a fresh
    # buffer could not share memory with an earlier one
    real = cpsq.serialize._render_values
    rendered = []

    def spy(chunk, sep, out, scratch):
        rendered.append(real(chunk, sep, out, scratch))
        return rendered[-1]

    monkeypatch.setattr(cpsq.serialize, "_render_values", spy)
    write_values(many_chunks(6), fmt, io.BytesIO())
    reused = [
        np.shares_memory(text, before)
        for before, text in zip(rendered, rendered[1:])
        if text.size <= before.size
    ]
    assert len(rendered) == 6 and len(reused) >= 3
    assert all(reused)


def test_an_error_in_one_render_reaches_the_caller(monkeypatch):
    real = cpsq.serialize._render_values

    def failing(chunk, sep, *buffers):
        if chunk[0] == 3 * VALUE_CHUNK + 1:
            raise MemoryError("chunk 3")
        return real(chunk, sep, *buffers)

    monkeypatch.setattr(cpsq.serialize, "_render_values", failing)
    values = np.arange(1, 8 * VALUE_CHUNK + 1, dtype=np.uint64)
    out = io.BytesIO()
    with pytest.raises(MemoryError, match="chunk 3"):
        write_values(values, "text", out)
    # the chunks before it are written, and none after
    written = out.getvalue().decode("ascii")
    assert written == printed_values(list(range(1, 3 * VALUE_CHUNK + 1)), "text")


def test_a_closed_stream_stops_the_writing():
    class Closed:
        def __init__(self):
            self.writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:  # the head, one chunk, then the pipe closes
                raise BrokenPipeError

    stream = Closed()
    with pytest.raises(BrokenPipeError):
        write_values(many_chunks(12), "text", stream)
    assert stream.writes == 3


def test_write_values_holds_a_bounded_number_of_rendered_chunks():
    # one output buffer, and its replacement while one too short for the
    # next chunk is replaced, each at most the longest chunk's text; the
    # scratch pair, 20 bytes a value; and under 64 kB besides
    values = many_chunks(40)
    longest = max(
        len(printed_values(values[start : start + VALUE_CHUNK].tolist(), "text"))
        for start in range(0, values.size, VALUE_CHUNK)
    )

    class Discard:
        def write(self, data):
            pass

    tracemalloc.start()
    try:
        write_values(values[:VALUE_CHUNK], "text", Discard())  # warm up
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        write_values(values, "text", Discard())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * longest + 20 * VALUE_CHUNK + 2**16, peak
