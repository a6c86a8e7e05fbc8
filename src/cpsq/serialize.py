"""Rendering of report records as text, JSON, or CSV.

The JSON form is lossless: keys are the records' ``_fields``, floats keep
full round-trip precision, and ``record_from_dict`` reconstructs an equal
record. Text and CSV are for eyes and spreadsheets; reals are shortened to
6 significant digits there. All three forms are deterministic: fields stay
in declaration order and mappings keep their (ascending) insertion order.

A record is any instance of a ``typing.NamedTuple`` class. Only a
``BoundReport`` has a text line of its own; every other record is one
``name=value`` line. So this module imports no record module but
``reports``, and a record defined, changed or deleted elsewhere needs no
edit here.

Value lists (``write_values``) skip the per-value Python objects: a sorted
uint64 array is turned into ASCII bytes by numpy, 2^16 values at a time,
storing each 4-digit group straight into its place in the output. Each
chunk is written to a binary stream before the next is rendered, with
scratch and the output buffer reused from chunk to chunk.
"""

from __future__ import annotations

import io
from typing import Any, BinaryIO, Iterable, NamedTuple, Sequence

import numpy as np

from .reports import BoundReport

FORMATS = ("text", "json", "csv")

#: values rendered per write by write_values
VALUE_CHUNK = 1 << 16


def _digit_groups() -> np.ndarray:
    """The 4 ASCII digits of every i < 10^4, zero-padded, as one uint32
    apiece: digit k of i is its k-th index in a 10 x 10 x 10 x 10 grid."""
    grid = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        grid[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - k)
        )
    return grid.view(np.uint32).ravel()


def _leading_groups(groups: np.ndarray) -> list[np.ndarray]:
    """At index d, the d ASCII digits of every i < 10^d, without padding,
    then 4 - d zero bytes, as one uint32 apiece (index 0 unused)."""
    digits = groups.view(np.uint8).reshape(-1, 4)
    leads = [groups[:0]]
    for d in range(1, 5):
        lead = np.zeros((10**d, 4), dtype=np.uint8)
        lead[:, :d] = digits[: 10**d, 4 - d :]
        leads.append(lead.view(np.uint32).ravel())
    return leads


_GROUPS = _digit_groups()
_LEADS = _leading_groups(_GROUPS)
_GROUP_BASE = np.uint64(10**4)
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)

#: write_values' (head, separator after each value, tail) per format
_VALUE_LAYOUT = {
    "text": (b"", b"\n", b""),
    "csv": (b"value\n", b"\n", b""),
    "json": (b"[", b", ", b"]\n"),
}


def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value


def record_to_dict(record: NamedTuple) -> dict[str, Any]:
    """Field-order-preserving dict with JSON-safe keys; a TypeError for
    anything but a named-tuple instance.

    Shallow: the records hold only scalars and one int -> int mapping,
    which ``_plain`` copies with string keys, so nothing needs a deep copy.
    """
    if not (isinstance(record, tuple) and hasattr(record, "_fields")):
        raise TypeError(f"not a report record: {record!r}")
    return {name: _plain(value) for name, value in zip(record._fields, record)}


def record_from_dict(cls: type, data: dict[str, Any]) -> NamedTuple:
    """Inverse of record_to_dict for a known record class."""
    kwargs = dict(data)
    for name in cls._fields:
        if name in kwargs and isinstance(kwargs[name], dict):
            kwargs[name] = {int(k): v for k, v in kwargs[name].items()}
    return cls(**kwargs)


def cell(value: Any) -> str:
    """One CSV cell or text value: %.6g reals, lowercase booleans, and a
    mapping as ``k:v;k:v``, the one place that form is written."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, dict):
        return ";".join(f"{k}:{v}" for k, v in value.items())
    return str(value)


def to_json(records: Iterable[NamedTuple]) -> str:
    import json  # here, so that listing and counting never load it

    return json.dumps([record_to_dict(r) for r in records], indent=2)


def to_csv(records: Sequence[NamedTuple]) -> str:
    import csv  # here, so that listing and counting never load it

    if not records:
        return ""
    first = type(records[0])
    if any(type(r) is not first for r in records):
        raise ValueError("CSV output needs records of a single type")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(record_to_dict(records[0]))  # the field names; refuses a non-record
    for r in records:
        writer.writerow([cell(value) for value in r])
    return out.getvalue().removesuffix("\n")  # no newline after the last row


def _text_line(record: NamedTuple) -> str:
    if isinstance(record, BoundReport):
        flag = "" if record.applicable else " (not applicable)"
        obs = "" if record.observed is None else f" observed={record.observed}"
        return (
            f"{record.label:<28} at {record.x_or_m}: "
            f"{record.lhs:.6g} vs {record.rhs:.6g}"
            f"{obs} -> {record.verdict}{flag}"
        )
    # any other record: name=value a field, each value a CSV cell
    # (record_to_dict refuses a non-record)
    return " ".join(f"{k}={cell(v)}" for k, v in record_to_dict(record).items())


def to_text(records: Iterable[NamedTuple]) -> str:
    return "\n".join(_text_line(r) for r in records)


def serialize_report(records: Sequence[NamedTuple], fmt: str) -> str:
    """Render records in one of FORMATS; empty input gives '' / '[]'."""
    if fmt == "json":
        return to_json(records)
    if fmt == "csv":
        return to_csv(records)
    if fmt == "text":
        return to_text(records)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _column(out: np.ndarray, at: int, row: int, n: int) -> np.ndarray:
    """The uint32 at byte ``at`` of each of n rows of ``row`` bytes in
    ``out``: a strided view, unaligned in general."""
    return np.ndarray((n,), np.uint32, out, at, (row,))


def _render_values(
    chunk: np.ndarray,
    sep: bytes,
    out: np.ndarray | None,
    scratch: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """ASCII bytes of a nonempty sorted uint64 chunk, each value then ``sep``:
    a prefix of the uint8 array ``out`` if it is long enough, else of a
    fresh one. ``scratch`` is a uint64 array of two rows and a uint32 array,
    each row at least ``chunk.size`` long: 20 bytes a value.

    The values of w digits are one run of rows w + len(sep) bytes long,
    filled a column at a time with no copy between: the 4-digit groups,
    right to left, then the separator, over any zeros past the digits. The
    leading group of 1-4 digits is stored as 4 bytes with zeros after its
    digits, just before the group that overwrites those zeros. Rows shorter
    than 4 bytes (values below 100) would overlap, so their leading group is
    copied bytewise instead.
    """
    top = len(str(int(chunk[-1])))  # digits of the largest value
    # sorted values: those of w digits are one run, cut at the powers of 10
    cuts = [0, *np.searchsorted(chunk, _POW10[: top - 1]).tolist(), chunk.size]
    runs = [(w, lo, hi) for w, (lo, hi) in enumerate(zip(cuts, cuts[1:]), 1) if lo < hi]
    size = sum((hi - lo) * (w + len(sep)) for w, lo, hi in runs)
    if out is None or out.size < size:
        out = np.empty(size, dtype=np.uint8)
    pos = 0
    for w, lo, hi in runs:
        n, row, lead = hi - lo, w + len(sep), (w - 1) % 4 + 1
        rows = out[pos : pos + n * row]
        a, b, group = scratch[0][0, :n], scratch[0][1, :n], scratch[1][:n]

        def store(at: int, table: np.ndarray, index: np.ndarray) -> None:
            # indices below 10^4 read the same as int64, which take needs;
            # "clip" takes into ``group`` without a buffer of its own
            table.take(index.view(np.int64), out=group, mode="clip")
            if row >= 4:
                _column(out, pos + at, row, n)[...] = group
            else:
                rows.reshape(n, row)[:, :w] = group.view(np.uint8).reshape(n, 4)[:, :w]

        rest = chunk[lo:hi]
        if w == lead:
            store(0, _LEADS[lead], rest)
        for at in range(w - 4, lead - 1, -4):
            # q = rest // 10^4 and rest - 10^4 q, from floor division, which
            # numpy does by multiplying (divmod is several times slower): q
            # into the row that rest is not in, and the remainder into the
            # other, which is rest's own from the second group on; then
            # 10^4 q goes through q's row, and q is divided back out
            quotient, low = (b, a) if rest is a else (a, b)
            np.floor_divide(rest, _GROUP_BASE, out=quotient)
            if low is rest:
                np.multiply(quotient, _GROUP_BASE, out=quotient)
                np.subtract(rest, quotient, out=low)
                np.floor_divide(quotient, _GROUP_BASE, out=quotient)
            else:
                np.multiply(quotient, _GROUP_BASE, out=low)
                np.subtract(rest, low, out=low)
            if at == lead:
                store(0, _LEADS[lead], quotient)
            store(at, _GROUPS, low)
            rest = quotient
        for k, byte in enumerate(sep):
            rows[w + k :: row] = byte
        pos += rows.size
    return out[:size]


def write_values(values: np.ndarray, fmt: str, out: BinaryIO) -> None:
    """Write sorted uint64 values to the binary stream ``out`` in one of
    FORMATS, as ASCII with "\n" line ends.

    text is one value a line, csv the same under a ``value`` header, json
    exactly ``json.dumps(list(values))`` and a newline. Values are rendered
    VALUE_CHUNK at a time and each chunk is written before the next is
    rendered, one ``write`` of a uint8 array a chunk; no Python object is
    made per value. The chunks share one scratch pair, 20 bytes a value,
    and each renders into the buffer the chunk before it was written from,
    unless that one is too short for it.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    values = np.asarray(values, dtype=np.uint64)
    head, sep, tail = _VALUE_LAYOUT[fmt]
    scratch = (
        np.empty((2, VALUE_CHUNK), dtype=np.uint64),
        np.empty(VALUE_CHUNK, dtype=np.uint32),
    )
    buffer = None  # the output buffer of the chunk last written
    out.write(head)
    for start in range(0, values.size, VALUE_CHUNK):
        text = _render_values(values[start : start + VALUE_CHUNK], sep, buffer, scratch)
        buffer = text.base  # the whole buffer the bytes are a prefix of
        if fmt == "json" and start + VALUE_CHUNK >= values.size:
            text = text[: -len(sep)]  # json's ", " goes between values only
        out.write(text)
    out.write(tail)
