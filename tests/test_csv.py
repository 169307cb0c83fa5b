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
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rebalance.tabular as tabular
from rebalance import ColumnKind, read_dataset, write_dataset

import _oracles as oracle
from _oracles import dataset_to_csv_bytes
from _toys import make_ds, strategy_output, two_cpus


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


def row_counts():
    b = tabular.BLOCK_ROWS
    return [0, 1, b - 1, b, b + 1, 2 * b + 1]


def taken(ds, n, order, added, seed):
    """``n`` rows taken from ``ds`` (which has rows) by ``take``, the
    last ``added`` of them block rows that copy random rows' cells.

    ``order`` places the taken rows: "cycle" repeats the table, "sorted"
    and "random" draw rows with repeats, in row order or at random, and
    "replicas" follows rows each taken once with random repeats of few
    rows, as the over-sampling strategies do.
    """
    rng = np.random.default_rng(seed)
    m = n - added
    idx = {"cycle": lambda: np.arange(m) % ds.n_rows,
           "sorted": lambda: np.sort(rng.integers(0, ds.n_rows, m)),
           "random": lambda: rng.integers(0, ds.n_rows, m),
           "replicas": lambda: np.concatenate([np.arange(min(m, ds.n_rows)),
                                               rng.integers(0, 3, max(m - ds.n_rows, 0))])
           % ds.n_rows}[order]()
    seeds = rng.integers(0, ds.n_rows, added)
    block = {c.name: c.values[seeds] for c in ds.columns} if added else None
    return strategy_output(ds, idx, block)


@settings(max_examples=40, deadline=None)
@given(ds=tables(), pick=st.integers(0, 5), offset=st.sampled_from([-1, 0, 1]),
       order=st.sampled_from(["cycle", "sorted", "random", "replicas"]),
       added=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**16))
@example(ds=one_column(["", None, 'a"b', "x\r\ny"]), pick=3, offset=0, order="cycle",
         added=0, seed=0)
@example(ds=make_ds([("y", "num", [1.5, math.nan]), ("g", "nom", ["ä,", None])], "g"),
         pick=5, offset=-1, order="cycle", added=0, seed=0)
# one column whose empty field is written '""', repeated and added
@example(ds=one_column(["", None, "a,b"]), pick=4, offset=0, order="replicas", added=3,
         seed=1)
@example(ds=make_ds([("y", "num", [math.nan, -0.0, 1e22]), ("g", "nom", ['q"', "\r", None])],
                    "y"), pick=5, offset=1, order="random", added=1, seed=2)
def test_split_writer_writes_the_serial_bytes(ds, pick, offset, order, added, seed):
    # ``tables`` gives up to 16 rows; they are taken to the row count,
    # repeated, some maybe added as a block, and the split point is set
    # just below, at or just above it
    n = row_counts()[pick] if ds.n_rows else 0
    ds = taken(ds, n, order, min(added, n), seed) if n else strategy_output(ds, [])
    # the same cells with no origins: each line formatted from its cells
    plain = tabular.Dataset(ds.columns, ds.target)
    assert plain.origins is None and ds.origins is not None
    split_rows = max(n + offset, 0)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(tabular, "SPLIT_ROWS", split_rows):
        path = Path(tmp) / "out.csv"
        with two_cpus() as forks:
            write_dataset(ds, path)
        assert len(forks) == (n >= split_rows)
        assert path.read_bytes() == dataset_to_csv_bytes(ds) == dataset_to_csv_bytes(plain)


def work_oracle(origins, lo, hi):
    """The formatting work of rows ``lo:hi``: ``FORMAT_WORK`` per line
    formatted, one per row without an origin and one per origin, and 1
    per other row."""
    part = [int(o) for o in origins[lo:hi]]
    lines = sum(o < 0 for o in part) + len({o for o in part if o >= 0})
    return tabular.FORMAT_WORK * lines + len(part) - lines


@settings(max_examples=100, deadline=None)
@given(origins=st.lists(st.integers(-1, 6), max_size=40))
@example(origins=[])
@example(origins=[-1])
@example(origins=[0, -1, 0, 0, 0, 1])
def test_split_row_balances_the_formatting_work(origins):
    origins = np.array(origins, dtype=np.int32)
    ds = make_ds([("y", "num", np.zeros(len(origins)))], "y")
    ds.origins = origins
    n, m = len(origins), tabular._split_row(ds)
    # the first row where the front holds at least the back's work
    gap = [work_oracle(origins, 0, k) - work_oracle(origins, k, n) for k in range(n + 1)]
    assert m == next(k for k, g in enumerate(gap) if g >= 0)
    # without origins the rows split in half
    assert tabular._split_row(tabular.Dataset(ds.columns, ds.target)) == n // 2


def test_split_row_gives_the_worker_the_replicas():
    # 20 rows taken once, then 40 replicas of two of them
    ds = strategy_output(make_ds([("y", "num", np.arange(20.0))], "y"), np.r_[0:20, [0, 1] * 20])
    assert tabular._split_row(ds) < 20


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
# a field longer than ``csv`` reads
LONG = "w" * (csv.field_size_limit() + 1)


def outcome(read, text, target, schema):
    return outcome_of(read, io.StringIO(text), target, schema)


def outcome_of(read, source, target, schema):
    try:
        return read(source, target, schema)
    except Exception as exc:
        return type(exc), str(exc)


def reader_error(want, text):
    """The reader's error for the oracle's ``want``: a ``csv.Error``
    names the record ``csv.reader`` fails on, the header being 1."""
    if want[0] is not csv.Error:
        return want
    lineno = 1
    try:
        for _ in csv.reader(io.StringIO(text)):
            lineno += 1
    except csv.Error:
        return tabular.TabularError, f"row {lineno} cannot be read: {want[1]}"
    raise AssertionError("csv.reader reads the text the oracle could not")


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
# a field too long for ``csv`` in the header or a record, after a ragged
# row in the same block or ahead of one
@example(case=(LONG + ",cls\n1,p\n", "cls", None))
@example(case=("a,cls\n1,p\n" + LONG + ",p\n1\n", "cls", None))
@example(case=("a,cls\n1\n" + LONG + ",p\n", "cls", None))
def test_reader_matches_row_reader(case):
    got = outcome(read_dataset, *case)
    want = outcome(oracle.read_dataset_oracle, *case)
    if isinstance(want, tuple):  # the same error type and message
        assert got == reader_error(want, case[0])
        return
    assert got == want
    assert dataset_to_csv_bytes(got) == dataset_to_csv_bytes(want)
    for col in got.columns:
        if col.kind is ColumnKind.NUMERIC:
            assert col.values.dtype == np.float64
        else:
            assert col.values.dtype == oracle.code_dtype_oracle(len(col.categories))
            assert all(v is None or type(v) is str for v in col.labels)


# cells that need no quotes: number literals, maybe blanks, or those
# and labels; the long label makes some files outgrow the first chunk
# the reader decodes, so that a bad byte late in the file reaches the
# worker
NUMBER_CELLS = ["1", "1.50", "-2.5", "+.5", "3e-2", "1e999", "7"]
POOLS = [NUMBER_CELLS, [*NUMBER_CELLS, ""], [*NUMBER_CELLS, "", "a", "Z", "ä", "inf", "1_0",
                                             "w" * 4000]]
QUOTED_CELLS = ['"a,b"', '"say ""hi"""', '"x\r\ny"', '"\n"', '"1.50"']
ONE_IN_FOUR = st.integers(0, 3).map(lambda v: v == 0)


@st.composite
def split_csvs(draw):
    """CSV bytes of up to 40 records, a target and maybe a schema.

    Each column draws the cells of the front half of the records from
    one pool and those of the back half from another, so that it may be
    numeric in one half and nominal in the other.  Lines end in LF, CRLF
    or a bare CR, the last maybe not at all.  Some files have quoted
    cells in the last quarter of the records, a ragged record, or a byte
    that is not UTF-8, often near the end.
    """
    header = draw(st.lists(st.sampled_from(["x", "g", "cls"]), min_size=1, max_size=3,
                           unique=True))
    n = draw(st.integers(0, 40))
    pools = [draw(st.lists(st.sampled_from(POOLS), min_size=2, max_size=2)) for _ in header]
    rows = [[draw(st.sampled_from(pool[i >= n // 2])) for pool in pools] for i in range(n)]
    if n:
        for i in draw(st.lists(st.integers(n - n // 4 - 1, n - 1), max_size=2)):
            rows[i][draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(QUOTED_CELLS))
        if draw(ONE_IN_FOUR):
            row = rows[draw(st.integers(0, n - 1))]
            row.append("1") if draw(st.booleans()) else row.pop()
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (eol.join(map(",".join, [header, *rows])) + draw(st.sampled_from([eol, ""]))).encode()
    if draw(ONE_IN_FOUR):
        at = len(data) - draw(st.integers(0, 8) | st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    target = draw(st.sampled_from(header))
    schema = draw(st.none() | st.dictionaries(st.sampled_from(header),
                                              st.sampled_from(ColumnKind), max_size=2))
    return data, target, schema


ROWS = b"1,p\n" * 10
NUMERIC = {"x": ColumnKind.NUMERIC}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=split_csvs(), chunk=st.sampled_from([1, 2, 3, tabular.COPY_BYTES]))
# numeric in the front half and nominal in the back, and the other way
@example(case=(b"x,cls\n" + b"1.50,p\n" * 8 + b"a,q\n" * 8, "cls", None), chunk=1)
@example(case=(b"x,cls\r\n" + b"a,q\r\n" * 8 + b"1.50,p\r\n" * 8, "cls", None), chunk=2)
@example(case=(b"x,cls\r" + b"1.50,p\r" * 10, "cls", None), chunk=3)
# one bare CR in the front half, at the end of a chunk the scan reads
@example(case=(b"x,cls\n1,p\r" + ROWS, "cls", None), chunk=1)
# quotes in the back half only: the split is taken
@example(case=(b"x,cls\n" + ROWS + b'"a,b",p\n"x\r\ny",q\n', "cls", None), chunk=2)
# a ragged record in either half
@example(case=(b"x,cls\n1,p\n1\n" + ROWS, "cls", None), chunk=1)
@example(case=(b"x,cls\n" + ROWS + b"1,p,3\n1,p\n", "cls", None), chunk=1)
# a byte that is not UTF-8 in either half; in the back half past what
# this process decodes, so that the worker meets it
@example(case=(b"x,cls\n\xff,p\n" + ROWS, "cls", None), chunk=3)
@example(case=(b"x,cls\n" + (b"w" * 1000 + b",p\n") * 20 + b"\xff,p\n", "cls", None),
         chunk=tabular.COPY_BYTES)
# a field too long for ``csv`` in the back half, which the worker meets
@example(case=(b"x,cls\n" + (b"w" * 1000 + b",p\n") * 140 + LONG.encode() + b",p\n", "cls",
               None), chunk=tabular.COPY_BYTES)
# a declared-numeric bad cell in either half
@example(case=(b"x,cls\na,p\n" + ROWS, "cls", NUMERIC), chunk=1)
@example(case=(b"x,cls\n" + ROWS + b"a,p\n", "cls", NUMERIC), chunk=1)
@example(case=(b"x,cls\na,p\n" + ROWS + b"b,p\n", "cls", NUMERIC), chunk=1)
# a blank target cell in the back half; no line end after the last record
@example(case=(b"x,cls\n" + ROWS + b"1,\n", "cls", None), chunk=2)
@example(case=(b"x,cls\r\n" + ROWS.replace(b"\n", b"\r\n") + b"2,q", "cls", None), chunk=2)
def test_split_reader_matches_serial_reader(case, chunk, tmp_path):
    data, target, schema = case
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    # the rule for the split, applied to the whole file at once
    end = data.find(b"\n", len(data) // 2) + 1
    front = data[:end]
    splits = (end > 0 and b'"' not in front and front.count(b"\r") == front.count(b"\r\n")
              and front.count(b"\n") >= 2)
    with mock.patch.object(tabular, "SPLIT_ROWS", 4), \
            mock.patch.object(tabular, "COPY_BYTES", chunk), two_cpus() as forks:
        got = outcome_of(read_dataset, path, target, schema)
    # a bad byte in the first chunk decoded fails the header, before a fork
    assert len(forks) == splits or (b"\xff" in data and not forks)

    with open(path, encoding="utf-8", newline="") as fh:
        serial = outcome_of(read_dataset, fh, target, schema)
    with open(path, encoding="utf-8", newline="") as fh:
        want = outcome_of(oracle.read_dataset_oracle, fh, target, schema)
    assert got == serial
    if isinstance(want, tuple):  # the same error and message
        if want[0] is UnicodeDecodeError:
            want = tabular.TabularError, f"input is not UTF-8 text: {want[1]}"
        assert got == reader_error(want, data.decode("utf-8", "replace"))
        return
    assert got == want
    assert dataset_to_csv_bytes(got) == dataset_to_csv_bytes(serial) == dataset_to_csv_bytes(want)


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
