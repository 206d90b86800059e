"""The CSV readers' errors past their first chunk of ``series.CHUNK_ROWS`` records.

Each reader takes its records a chunk at a time. A record that does not
parse must still be named as the row-at-a-time reader named it: the file,
the line (a record's line counts the header as line 1 and every blank
record), and the bad text. Each fault below is placed at the first record
of the second chunk and at the last record of a file of about two and a
half chunks, after blank records.
"""

import datetime

import pytest

from potrisk.errors import ValidationError
from potrisk.report import read_curve_csv, read_scan_csv
from potrisk.series import CHUNK_ROWS, read_earnings_csv, read_returns_csv

RECORDS = 2 * CHUNK_ROWS + 300  # the header included
BLANKS = 3


def _iso_error(text: str) -> str:
    try:
        datetime.date.fromisoformat(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is a date")


def _dated(i: int) -> str:
    return f"{datetime.date(1900, 1, 1) + datetime.timedelta(days=i)},{100.5 + i}"


# reader, header, good record of line i + 1, and per fault: the bad record
# (or a function of its line) and the message after "path:line: " (a
# (None, text) pair: the message is "path: text").
READERS = {
    "earnings": (read_earnings_csv, "date,revenue", _dated, {
        "date": ("2001-02-30,1.0", f"bad date '2001-02-30': {_iso_error('2001-02-30')}"),
        "value": ("2001-02-28,abc", "bad revenue 'abc'"),
        "width": ("2001-02-28,1.0,2", "expected 2 columns, got 3"),
        "non_finite": (lambda i: _dated(i - 1).split(",")[0] + ",inf",
                       (None, "revenues must be finite and nonnegative")),
    }),
    "returns": (read_returns_csv, "date,return", _dated, {
        "date": ("01/02/2001,0.5", f"bad date '01/02/2001': {_iso_error('01/02/2001')}"),
        "value": ("2001-02-28,", "bad return ''"),
        "width": ("2001-02-28,1.0,2", "expected 2 columns, got 3"),
        "non_finite": (lambda i: _dated(i - 1).split(",")[0] + ",nan", (None, "returns must be finite")),
    }),
    "curve": (read_curve_csv, "u,mean_excess,count", lambda i: f"{i * 0.5},{1.0 / i},{i}", {
        "value": ("0.5,abc,3", "malformed curve row ['0.5', 'abc', '3']"),
        "count": ("0.5,0.25,3.0", "malformed curve row ['0.5', '0.25', '3.0']"),
        "width": ("0.5,0.25", "malformed curve row ['0.5', '0.25']"),
        "non_finite": ("0.5,-inf,3", "non-finite value in curve row ['0.5', '-inf', '3']"),
    }),
    "scan": (read_scan_csv, "u,xi,sigma,n_u,var,es,w2,a2,accepted_alphas",
             lambda i: f"{i * 0.5},0.1,1,{i},{2.0 + i},,0.01,0.1,0.05;0.1", {
        "value": ("x,0.1,1,3,2.5,,,,", "malformed scan row ['x', '0.1', '1', '3', '2.5', '', '', '', '']"),
        "width": ("0.5,0.1,1", "malformed scan row ['0.5', '0.1', '1']"),
        "non_finite": ("0.5,0.1,1,3,nan,,,,",
                       "non-finite value in scan row ['0.5', '0.1', '1', '3', 'nan', '', '', '', '']"),
    }),
}
CASES = [
    pytest.param(reader, fault, line, id=f"{reader}-{fault}-line{line}")
    for reader, (*_, faults) in READERS.items()
    for fault in faults
    for line in (CHUNK_ROWS + 1, RECORDS)
]


def _write(path, header, good, faults: dict) -> None:
    """A file of RECORDS records: the header, good records, and ``faults`` (line -> record) after BLANKS blank ones."""
    lines = [header] + [good(i) for i in range(1, RECORDS)]
    for line, record in faults.items():
        lines[line - 1] = record(line) if callable(record) else record
        lines[line - 1 - BLANKS : line - 1] = [""] * BLANKS
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("reader, fault, line", CASES)
def test_a_bad_record_past_the_first_chunk_is_named_with_its_line(tmp_path, reader, fault, line):
    read, header, good, faults = READERS[reader]
    record, message = faults[fault]
    path = tmp_path / "in.csv"
    _write(path, header, good, {line: record})
    with pytest.raises(ValidationError) as info:
        read(path)
    expected = f"{path}: {message[1]}" if isinstance(message, tuple) else f"{path}:{line}: {message}"
    assert str(info.value) == expected


@pytest.mark.parametrize("reader", READERS)
def test_the_good_records_around_the_blank_ones_are_read(tmp_path, reader):
    read, header, good, _ = READERS[reader]
    path = tmp_path / "in.csv"
    _write(path, header, good, {CHUNK_ROWS + 1: good(CHUNK_ROWS), RECORDS: good(RECORDS - 1)})
    result = read(path)
    size = len(result[0]) if isinstance(result, tuple) else len(result)
    assert size == RECORDS - 1 - 2 * BLANKS


def _append_byte(path, line: int) -> None:
    """Append the byte 0xff, never UTF-8, to line ``line`` of the file at ``path``."""
    text = path.read_bytes().split(b"\n")
    text[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(text))


@pytest.mark.parametrize("reader", READERS)
def test_a_non_utf8_byte_in_the_second_chunk_names_the_file(tmp_path, reader):
    read, header, good, _ = READERS[reader]
    path = tmp_path / "in.csv"
    _write(path, header, good, {})
    _append_byte(path, CHUNK_ROWS + 201)
    with pytest.raises(ValidationError) as info:
        read(path)
    message = str(info.value)
    assert "\n" not in message
    # the line, and the byte's position in it
    position = len(good(CHUNK_ROWS + 200))
    assert message == (
        f"{path}:{CHUNK_ROWS + 201}: not a UTF-8 CSV file: "
        f"'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
    )


@pytest.mark.parametrize("reader", READERS)
def test_a_bad_record_before_a_non_utf8_byte_in_its_chunk_is_named_first(tmp_path, reader):
    # The record is about 16 KB before the byte, beyond the text decoder's
    # 8 KB blocks, so the row-at-a-time reader reached it first.
    read, header, good, faults = READERS[reader]
    record, message = faults["width"]
    path = tmp_path / "in.csv"
    _write(path, header, good, {CHUNK_ROWS + 1: record})
    _append_byte(path, CHUNK_ROWS + 801)
    with pytest.raises(ValidationError) as info:
        read(path)
    assert str(info.value) == f"{path}:{CHUNK_ROWS + 1}: {message}"


@pytest.mark.parametrize("reader", READERS)
def test_a_bad_record_four_lines_before_a_non_utf8_byte_is_named_first(tmp_path, reader):
    # Both lie in the text decoder's first 8 KB block, which it decodes
    # before the csv module sees the record.
    read, header, good, faults = READERS[reader]
    record, message = faults["width"]
    path = tmp_path / "in.csv"
    _write(path, header, good, {6: record})
    _append_byte(path, 10)
    with pytest.raises(ValidationError) as info:
        read(path)
    assert str(info.value) == f"{path}:6: {message}"
    _write(path, header, good, {6: good(5)})
    _append_byte(path, 10)
    with pytest.raises(ValidationError, match=f"^{path}:10: not a UTF-8 CSV file: "):
        read(path)
