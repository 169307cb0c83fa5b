"""The block-wise CSV reader and writer against their row-wise oracles.

``tests/_oracles.py`` keeps the reader and writer that go one record at
a time.  On random tables and texts the block-wise code must write the
same bytes, parse the same Dataset and raise the same error with the
same message.  Every test runs with ``BLOCK_ROWS`` at 1, at 7 and at
its default, so that rows fall on and across block boundaries.
"""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rebalance.tabular as tabular
from rebalance import ColumnKind, read_dataset, write_dataset
from rebalance.tabular import dataset_to_csv_bytes

import _oracles as oracle
from _toys import make_ds


@pytest.fixture(autouse=True, params=[1, 7, tabular.BLOCK_ROWS], ids="block{}".format)
def block_rows(request):
    with mock.patch.object(tabular, "BLOCK_ROWS", request.param):
        yield


# quoting, line breaks, non-ASCII, numeric-looking and blank-ish text
LABELS = st.sampled_from(
    ["a", "Z", "ä", "é", "a,b", 'say "hi"', "x\r\ny", "\r", "\n", " lead", "1", "inf", "-0.0"]
) | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            min_size=1, max_size=4)
FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1e16, 1e22, 1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.lists(st.sampled_from(["x", "g", "cls", "a,b", 'q"', "ä"]), min_size=1, max_size=4,
                 unique=True)


@st.composite
def tables(draw, exotic=True):
    """A Dataset of mixed columns.

    With ``exotic`` the numeric cells include infinities and the
    nominal cells include the empty string; the target may have
    missing cells.  Without it the table reads back as written.
    """
    names = draw(NAMES)
    target = draw(st.sampled_from(names))
    n = draw(st.integers(0, 16))
    cols = []
    for name in names:
        missing = st.nothing() if name == target and not exotic else st.none()
        if draw(st.booleans()):
            cells = (FLOATS | st.sampled_from([math.inf, -math.inf])) if exotic else FLOATS
            values = [math.nan if v is None else v
                      for v in draw(st.lists(cells | missing, min_size=n, max_size=n))]
            cols.append((name, "num", values))
        else:
            cells = (LABELS | st.just("")) if exotic else LABELS
            cols.append((name, "nom", draw(st.lists(cells | missing, min_size=n, max_size=n))))
    return make_ds(cols, target)


def one_column(values):
    return make_ds([("g", "nom", values)], "g")


@settings(max_examples=200, deadline=None)
@given(ds=tables())
@example(ds=one_column(["a", None, "", "b"]))
@example(ds=make_ds([("y", "num", [1.5, math.nan, -0.0])], "y"))
def test_writer_matches_row_writer(ds):
    want = io.StringIO()
    oracle.write_rows_oracle(ds, want)
    assert dataset_to_csv_bytes(ds) == want.getvalue().encode("utf-8")


# cells that are numbers, are not, or are missing; some use only the
# characters of number literals without being one, some hold digits
# that are not ASCII or a leading separator that float() would strip
CELLS = st.sampled_from(
    ["", "1", "-2.5", "+.5", "3e-2", "7.", "-0.0", "5e-324", "1e999", "inf", "nan", "1_0",
     "0x10", " 1", "a", "Z", "ä", "a,b", 'q"', "x\r\ny",
     "1-2", "1e5.5", ".e5", "e5", "+-1", "1e", ".", "١٢", "\x1c1"]
)


@st.composite
def csv_texts(draw):
    """CSV text with maybe ragged rows, a target and maybe a schema."""
    header = draw(st.lists(st.sampled_from(["x", "g", "cls", "a,b"]), min_size=1, max_size=3))
    width = len(header)
    rows = draw(st.lists(
        st.integers(max(width - 1, 0), width + 1).flatmap(
            lambda m: st.lists(CELLS, min_size=m, max_size=m))
        | st.lists(CELLS, min_size=width, max_size=width),
        max_size=20,
    ))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    target = draw(st.sampled_from([*header, "zz"]))
    schema = draw(st.none() | st.dictionaries(
        st.sampled_from([*header, "zz"]), st.sampled_from(ColumnKind), max_size=3))
    return buf.getvalue(), target, schema


RAW_TEXT = st.tuples(st.text('ax1.,"\r\n', max_size=40), st.just("a"), st.none())


def outcome(read, text, target, schema):
    try:
        return read(io.StringIO(text), target, schema)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(case=csv_texts() | RAW_TEXT)
@example(case=("a,cls\n1,p\nx,\n1,p,3\n", "cls", {"a": ColumnKind.NUMERIC}))
@example(case=("a,cls\nx,p\n2,\n", "cls", {"a": ColumnKind.NUMERIC}))
@example(case=("cls\r\n\"\"\r\n", "cls", None))
# numeric for several blocks, then a label: the earlier cells keep
# their spelling as labels
@example(case=("a,cls\n" + "1.50,p\n+2,q\n1e999,p\n,q\n-0.0,p\n" * 4 + "x,p\n", "cls", None))
# a declared-numeric bad cell, or a missing target cell, in a later block
@example(case=("a,cls\n" + "1,p\n" * 9 + "x,p\n", "cls", {"a": ColumnKind.NUMERIC}))
@example(case=("a,cls\n" + "1,p\n" * 9 + "2,\n", "cls", None))
# both, in either column order, and both in the target column
@example(case=("a,cls\n" + "1,p\n" * 9 + "2,\n" + "1,p\n" * 8 + "x,p\n", "cls",
               {"a": ColumnKind.NUMERIC}))
@example(case=("cls,a\n" + "p,1\n" * 9 + ",2\n" + "p,1\n" * 8 + "p,x\n", "cls",
               {"a": ColumnKind.NUMERIC}))
@example(case=("y\n" + "1\n" * 9 + "\"\"\n" + "2\n" * 8 + "x\n", "y",
               {"y": ColumnKind.NUMERIC}))
# a bad cell, then a ragged row some blocks on
@example(case=("a,cls\nx,p\n" + "1,p\n" * 9 + "1\n", "cls", {"a": ColumnKind.NUMERIC}))
def test_reader_matches_row_reader(case):
    got = outcome(read_dataset, *case)
    want = outcome(oracle.read_dataset_oracle, *case)
    assert got == want
    if isinstance(want, tuple):  # the same error type and message
        return
    assert dataset_to_csv_bytes(got) == dataset_to_csv_bytes(want)
    for col in got.columns:
        if col.kind is ColumnKind.NUMERIC:
            assert col.values.dtype == np.float64
        else:
            assert col.values.dtype == np.intp
            assert all(v is None or type(v) is str for v in col.labels)


@settings(max_examples=200, deadline=None)
@given(ds=tables(exotic=False))
def test_read_of_write_is_identity(ds):
    buf = io.StringIO()
    write_dataset(ds, buf)
    schema = {c.name: c.kind for c in ds.columns}
    back = read_dataset(io.StringIO(buf.getvalue()), target=ds.target, schema=schema)
    assert back == ds
    assert dataset_to_csv_bytes(back) == buf.getvalue().encode("utf-8")


def lines_then_bad_byte(lines):
    """A source of text lines whose decoding fails after ``lines``."""
    yield from lines
    raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")


def test_ragged_row_is_reported_ahead_of_a_later_read_error():
    source = lines_then_bad_byte(["a,cls\r\n", "1,p\r\n", "1\r\n"])
    with pytest.raises(tabular.TabularError, match="row 3 has 1 fields, expected 2"):
        read_dataset(source, target="cls")


def test_read_error_is_reported_ahead_of_a_later_ragged_row():
    with pytest.raises(tabular.TabularError, match="input is not UTF-8 text"):
        read_dataset(lines_then_bad_byte(["a,cls\r\n", "1,p\r\n"]), target="cls")


def test_read_error_is_reported_ahead_of_earlier_column_errors():
    source = lines_then_bad_byte(["a,cls\r\n", "x,p\r\n", "1,\r\n"])
    with pytest.raises(tabular.TabularError, match="input is not UTF-8 text"):
        read_dataset(source, target="cls", schema={"a": ColumnKind.NUMERIC})
