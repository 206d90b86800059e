"""The CLI's contract on generated inputs: an exit code of 0, 1 or 2, one line on stderr, no NaN or infinity written.

Hypothesis builds returns CSVs with magnitudes from 5e-324 to 1.79e308,
ties, constant series and series of one to three rows, in files that may
start with a byte-order mark, end their lines with CRLF and hold blank
lines. Each runs through ``potrisk.cli.main`` in process, under tier-1's
``error::RuntimeWarning`` filter, as four scans: each tail in json (the
positive one with ``--alpha 0.05``) and in csv, at a tail probability
``--p`` of 0.01, 0.001 or 1e-300. Nothing may escape
``main``; a failing scan writes one line to stderr and a passing one none;
no json output holds ``NaN`` or ``Infinity`` and no csv output ``nan`` or
``inf``. The seed and the example count are fixed, so that tier-1 runs the
same few seconds of examples every time; a larger run can raise
``max_examples`` by hand.
"""

import contextlib
import datetime
import io
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from potrisk.cli import main

_NOT_FINITE = {".json": re.compile(r"NaN|Infinity"), ".csv": re.compile(r"\b(nan|inf)\b", re.IGNORECASE)}

_magnitudes = st.one_of(
    st.floats(5e-324, 1.79e308),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307)),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-3, 1.0, 1e300, 1.79e308]),
)
_values = st.one_of(st.just(0.0), st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), _magnitudes))


@st.composite
def _tails(draw) -> list:
    """Gains of a Pareto tail (shape 0.1 to 0.9) and losses of a bounded one, at one scale, often near 1e308."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    scale = 10.0 ** draw(st.integers(-323, 306) | st.integers(300, 306))
    gains = np.minimum(rng.random(draw(st.integers(11, 40))) ** -shape, 1.79e308 / scale) * scale
    losses = (1.0 - np.sqrt(rng.random(draw(st.integers(11, 40))))) * scale
    return rng.permutation(np.concatenate([gains, -losses])).tolist()


@st.composite
def _returns_csv(draw) -> bytes:
    """A `date,return` CSV of tails at any scale, tied or constant values, or 1-3 rows, in one of the layouts above."""
    kind = draw(st.sampled_from(["tails", "tails", "tails", "tied", "constant", "short"]))
    if kind == "tails":
        values = draw(_tails())
    elif kind == "tied":
        values = draw(st.lists(st.sampled_from(draw(st.lists(_values, min_size=1, max_size=4))), min_size=4, max_size=40))
    elif kind == "constant":
        values = [draw(_values)] * draw(st.integers(4, 40))
    else:
        values = draw(st.lists(_values, min_size=1, max_size=3))
    start = datetime.date(2000, 1, 3) + datetime.timedelta(days=draw(st.integers(0, 3000)))
    lines = ["date,return"] + [f"{start + datetime.timedelta(days=7 * i)},{v!r}" for i, v in enumerate(values)]
    for _ in range(draw(st.integers(0, 2))):  # blank lines, anywhere after the header
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "", "", "", "", "", "\ufeff"]))
    return (bom + newline.join(lines) + newline).encode("utf-8")


_SCANS = [
    ["--tail", "positive", "--alpha", "0.05"],
    ["--tail", "negative"],
    ["--tail", "positive", "--format", "csv"],
    ["--tail", "negative", "--format", "csv"],
]


@seed(20240101)
@settings(max_examples=80, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(_returns_csv(), st.sampled_from(["0.01", "0.001", "1e-300"]))
def test_scan_keeps_the_cli_contract_on_generated_returns(data, p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "returns.csv"
        path.write_bytes(data)
        for args in _SCANS:
            out_dir = Path(tmp) / "out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["scan", "--input", str(path), "--out-dir", str(out_dir), "--p", p, *args])
            assert code in (0, 1, 2)
            assert len(stderr.getvalue().splitlines()) == (0 if code == 0 else 1), stderr.getvalue()
            for output in out_dir.glob("*") if out_dir.is_dir() else ():
                assert not _NOT_FINITE[output.suffix].search(output.read_text(encoding="utf-8")), output.name
                output.unlink()
