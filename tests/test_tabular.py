import ast
import errno
import io
import math
import os
import pickle
import subprocess
import tempfile
import threading
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebalance import (
    Column,
    ColumnKind,
    Dataset,
    ImpSampParams,
    Metric,
    TabularError,
    build_context,
    build_relevance_range,
    class_counts,
    find_bumps,
    gen_imbr,
    imp_samp_regress,
    read_dataset,
    write_dataset,
)
import rebalance.tabular as tabular
from rebalance._util import nominal_freqs
from rebalance.classif import _class_indices
from rebalance.tabular import parses_as_number

import _oracles as oracle
from _oracles import dataset_to_csv_bytes
from _toys import (fail_formatting_in, labelled, make_ds, strategy_output, toy_mixed_ds,
                   two_cpus)


def read_text(text, target, schema=None):
    return read_dataset(io.StringIO(text), target=target, schema=schema)


def test_reads_header_and_infers_kinds():
    ds = read_text("a,b,cls\n1,x,p\n2.5,y,q\n3e2,z,p\n", target="cls")
    assert [c.name for c in ds.columns] == ["a", "b", "cls"]
    assert ds.column("a").kind is ColumnKind.NUMERIC
    assert ds.column("b").kind is ColumnKind.NOMINAL
    assert ds.n_rows == 3 and ds.n_cols == 3
    np.testing.assert_allclose(ds.column("a").values, [1.0, 2.5, 300.0])


def test_empty_cells_are_missing():
    ds = read_text("a,b,cls\n1,,p\n,x,q\n", target="cls")
    assert math.isnan(ds.column("a").values[1])
    assert ds.column("b").labels[0] is None
    assert ds.column("b").values[0] == -1


def test_inference_ignores_empty_cells():
    # the empty cell must not drag the column to nominal
    ds = read_text("a,cls\n1,p\n,q\n2,p\n", target="cls")
    assert ds.column("a").kind is ColumnKind.NUMERIC


@pytest.mark.parametrize("cell", ["inf", "nan", "NaN", "1_0", "0x10", ""])
def test_non_finite_literals_are_not_numeric(cell):
    assert not parses_as_number(cell)


@pytest.mark.parametrize("cell", ["1", "-2.5", "+.5", "3e-2", "1E6", "7."])
def test_real_literals_are_numeric(cell):
    assert parses_as_number(cell)


def test_inf_stays_nominal():
    ds = read_text("a,cls\n1,p\ninf,q\n", target="cls")
    assert ds.column("a").kind is ColumnKind.NOMINAL


def test_schema_overrides_inference():
    ds = read_text(
        "a,cls\n1,p\n2,q\n",
        target="cls",
        schema={"a": ColumnKind.NOMINAL},
    )
    assert ds.column("a").kind is ColumnKind.NOMINAL
    assert list(ds.column("a").labels) == ["1", "2"]


def test_schema_numeric_rejects_text():
    with pytest.raises(TabularError, match="declared numeric"):
        read_text(
            "a,cls\nx,p\n", target="cls", schema={"a": ColumnKind.NUMERIC}
        )


def test_schema_value_must_be_a_column_kind():
    # "nom" used to be ignored, so the column of digits read as numeric
    with pytest.raises(TabularError, match=r"column 'zip' the kind 'nom', not a ColumnKind"):
        read_text("zip,cls\n1,p\n2,q\n", target="cls", schema={"zip": "nom"})


def test_schema_unknown_column():
    with pytest.raises(TabularError, match="unknown columns"):
        read_text("a,cls\n1,p\n", target="cls", schema={"zz": ColumnKind.NUMERIC})


def test_duplicate_header_rejected():
    with pytest.raises(TabularError, match="duplicate column names"):
        read_text("a,a,cls\n1,2,p\n", target="cls")


def test_target_must_exist():
    with pytest.raises(TabularError, match="^target column 'cls' not present$"):
        read_text("a,b\n1,2\n", target="cls")


def test_ragged_row_reports_line_number():
    with pytest.raises(TabularError, match="row 3 has 2 fields, expected 3"):
        read_text("a,b,cls\n1,2,p\n1,2\n", target="cls")


def test_missing_target_cell_rejected():
    with pytest.raises(TabularError, match="missing value in the target"):
        read_text("a,cls\n1,p\n2,\n", target="cls")


def test_empty_input_rejected():
    with pytest.raises(TabularError, match="no header"):
        read_text("", target="cls")


def test_write_read_roundtrip_preserves_values():
    ds = make_ds(
        [
            ("a", "num", [1.5, math.nan, -3.25e-4]),
            ("b", "nom", ["x", None, "hello, world"]),
            ("cls", "nom", ["p", "q", "p"]),
        ],
        "cls",
    )
    buf = io.StringIO()
    write_dataset(ds, buf)
    back = read_dataset(io.StringIO(buf.getvalue()), target="cls")
    assert back == ds


def test_float_formatting_is_shortest_roundtrip():
    ds = make_ds([("a", "num", [0.1, 2.0]), ("cls", "nom", ["p", "q"])], "cls")
    text = dataset_to_csv_bytes(ds).decode()
    assert "0.1," in text and "2.0," in text


def test_csv_rows_use_crlf():
    ds = labelled(["p"])
    assert dataset_to_csv_bytes(ds).endswith(b"p\r\n")


def test_quoted_fields_roundtrip():
    ds = make_ds([("b", "nom", ['say "hi"', "a,b"]), ("cls", "nom", ["p", "q"])], "cls")
    buf = io.StringIO()
    write_dataset(ds, buf)
    back = read_dataset(io.StringIO(buf.getvalue()), target="cls")
    assert list(back.column("b").labels) == ['say "hi"', "a,b"]


def test_take_allows_duplicates_and_keeps_order():
    ds = labelled(["p", "q", "r"], {"x": ("num", [1.0, 2.0, 3.0])})
    sub = ds.take([2, 0, 2])
    assert list(sub.target_column.labels) == ["r", "p", "r"]
    np.testing.assert_array_equal(sub.column("x").values, [3.0, 1.0, 3.0])


def test_take_counts_negative_indices_from_the_end():
    ds = labelled(["p", "q", "r"], {"x": ("num", [1.0, 2.0, 3.0])})
    sub = ds.take([-1, 0, -3])
    assert list(sub.target_column.labels) == ["r", "p", "p"]
    assert dataset_to_csv_bytes(sub) == dataset_to_csv_bytes(ds.take([2, 0, 0]))
    grown = ds.take(np.array([-2]), {"x": np.array([9.0]), "cls": np.array([2])})
    assert list(grown.target_column.labels) == ["q", "r"]


def test_take_indexes_rows_as_numpy_does():
    # an index in any integer dtype is used as it is: one past the rows
    # is numpy's IndexError, not wrapped onto a row by a narrower cast
    ds = make_ds([("x", "num", [1.0, 2.0, 3.0, 4.0, 5.0])], "x")
    for dtype in (np.uint64, np.int64):
        with pytest.raises(IndexError):
            ds.take(np.array([2**32 + 1], dtype=dtype))
    assert ds.take(np.array([4, 1], dtype=np.uint8)) == ds.take([4, 1])


@pytest.mark.parametrize("indices", [np.array([True, False, True]), np.array([0.9, 2.7]),
                                     [1.0], np.array([0, None], dtype=object)],
                         ids=["bool mask", "floats", "float list", "objects"])
def test_take_refuses_indices_that_are_not_integers(indices):
    # a cast to integers would read a bool mask as rows 1, 0, 1 and truncate floats
    ds = labelled(["p", "q", "r"], {"x": ("num", [1.0, 2.0, 3.0])})
    with pytest.raises(TabularError, match=f"^row indices must be integers, not "
                                           f"{np.asarray(indices).dtype}$"):
        ds.take(indices)
    # no rows at all are taken, whatever their dtype
    assert ds.take([]).n_rows == ds.take(np.array([], dtype=bool)).n_rows == 0


@pytest.mark.parametrize("dtype", [np.intp, np.int32])
def test_take_keeps_no_tie_to_its_index_array(dtype):
    # the rows taken are the output's cells: changing the index array
    # afterwards changes nothing that is written
    ds = make_ds([("x", "num", [1.5, 2.5, 3.5])], "x")
    idx = np.array([0, 1, 0, 1, 2], dtype=dtype)
    out = ds.take(idx)
    idx[:] = 2
    assert dataset_to_csv_bytes(out) == b"x\r\n1.5\r\n2.5\r\n1.5\r\n2.5\r\n3.5\r\n"


def test_append_block():
    ds = labelled(["p"], {"x": ("num", [1.0])})
    grown = ds.append({"x": [2.0], "cls": ["q"]})
    assert grown.n_rows == 2
    assert list(grown.target_column.labels) == ["p", "q"]
    # the original is untouched
    assert ds.n_rows == 1


def test_append_block_schema_mismatch():
    ds = labelled(["p"], {"x": ("num", [1.0])})
    with pytest.raises(TabularError, match="does not match the schema"):
        ds.append({"x": [2.0]})


def test_duplicate_column_names_rejected():
    cols = [
        Column("a", ColumnKind.NUMERIC, [1.0]),
        Column("a", ColumnKind.NUMERIC, [2.0]),
    ]
    with pytest.raises(TabularError, match="duplicate column names"):
        Dataset(cols, target="a")


def test_column_lengths_must_agree():
    cols = [
        Column("a", ColumnKind.NUMERIC, [1.0, 2.0]),
        Column("cls", ColumnKind.NOMINAL, ["p"]),
    ]
    with pytest.raises(TabularError, match="differ in length"):
        Dataset(cols, target="cls")


def test_dataset_equality_treats_nan_as_equal():
    a = make_ds([("x", "num", [1.0, math.nan]), ("cls", "nom", ["p", "q"])], "cls")
    b = make_ds([("x", "num", [1.0, math.nan]), ("cls", "nom", ["p", "q"])], "cls")
    c = make_ds([("x", "num", [1.0, 2.0]), ("cls", "nom", ["p", "q"])], "cls")
    assert a == b and a != c


def test_columns_that_differ_only_in_name_kind_or_length_are_unequal():
    col = Column("x", ColumnKind.NUMERIC, [0.0])
    # by values alone each would be equal: a nominal column's one code
    # is 0, and [0.0] broadcasts over [0.0, 0.0]
    assert col == Column("x", ColumnKind.NUMERIC, [0.0])
    assert col != Column("y", ColumnKind.NUMERIC, [0.0])
    assert col != Column("x", ColumnKind.NOMINAL, ["a"])
    assert col != Column("x", ColumnKind.NUMERIC, [0.0, 0.0])
    ds = make_ds([("x", "num", [0.0])], "x")
    assert col.__eq__(col.values) is NotImplemented and col != col.values.tolist()
    assert ds.__eq__(col) is NotImplemented and ds != col


def test_class_counts_sorted_by_label():
    ds = labelled(["b", "a", "b", "c", "a", "b"])
    counts = class_counts(ds)
    assert list(counts.items()) == [("a", 2), ("b", 3), ("c", 1)]
    assert counts.total == 6


def test_class_counts_needs_nominal_target():
    ds = make_ds([("y", "num", [1.0, 2.0])], "y")
    with pytest.raises(TabularError, match="nominal target"):
        class_counts(ds)


def test_class_counts_rejects_missing_labels():
    ds = make_ds([("cls", "nom", ["p", None])], "cls")
    with pytest.raises(TabularError, match="missing value in the target"):
        class_counts(ds)


def test_dataset_refuses_a_target_it_lacks_and_names_no_column_it_lacks():
    with pytest.raises(TabularError, match="^target column 'y' not present$"):
        make_ds([("x", "num", [1.0])], "y")
    with pytest.raises(TabularError, match="^no column named 'y'$"):
        make_ds([("x", "num", [1.0])], "x").column("y")


def test_every_path_refuses_a_missing_target_cell_as_the_reader_does():
    # a table built without the reader gets the reader's refusal from
    # each path that reads the target: HVDM's class-conditional tables,
    # the bumps and importance sampling's mode B, which has no bumps
    nominal = make_ds([("x", "num", [1.0, 2.0, 3.0]), ("cls", "nom", ["p", None, "q"])], "cls")
    numeric = make_ds([("x", "num", [1.0, 2.0, 3.0]), ("y", "num", [1.0, np.nan, 3.0])], "y")
    fn = build_relevance_range([(0.0, 0.0), (3.0, 1.0)])
    for call in (lambda: build_context(Metric("hvdm"), nominal),
                 lambda: find_bumps(numeric, fn, 0.5),
                 lambda: imp_samp_regress(numeric, fn, ImpSampParams(u=0.5, o=1.0), seed=0)):
        with pytest.raises(TabularError, match="^missing value in the target column$"):
            call()


# labels whose byte order differs from a case-folded or locale order
CELLS = st.sampled_from(["Z", "a", "ä", "é", "ab", ""]) | st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(CELLS | st.none(), max_size=40))
def test_nominal_codes_match_dict_loop(values):
    col = Column("g", ColumnKind.NOMINAL, values)
    want_codes, want_categories = oracle.nominal_codes_oracle(values)
    assert col.values.dtype == oracle.code_dtype_oracle(len(want_categories))
    assert col.values.tolist() == want_codes
    assert col.categories == tuple(want_categories)
    present, freqs = nominal_freqs(col.values)
    counts = oracle.label_counts_oracle(values)
    assert [col.categories[c] for c in present] == [v for v, _ in counts]
    total = sum(c for _, c in counts)
    assert freqs.tolist() == [c / total for _, c in counts]


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(CELLS, min_size=1, max_size=40))
def test_class_counts_and_rows_match_dict_loops(labels):
    ds = labelled(labels)
    assert list(class_counts(ds).items()) == oracle.label_counts_oracle(labels)
    rows = {c: idx.tolist() for c, idx in _class_indices(ds).items()}
    assert rows == oracle.class_rows_oracle(labels)
    assert list(rows) == list(class_counts(ds))


def test_take_and_append_convert_only_new_cells(monkeypatch):
    ds = labelled(["p", "q", "p"], {"g": ("nom", ["a", None, "b"]), "x": ("num", [1.0, 2.0, 3.0])})
    text = dataset_to_csv_bytes(ds).decode()
    converted = []
    convert = Column.__post_init__

    def spy(col):
        converted.append(len(col.values))
        convert(col)

    monkeypatch.setattr(Column, "__post_init__", spy)
    sub = ds.take([2, 0, 2]).column("g")
    assert list(sub.labels) == ["b", "a", "b"] and sub.categories == ("a", "b")
    assert ds.take([2, 2]).column("g").values.tolist() == [0, 0]
    assert ds.take([1]).column("g").categories == ()
    assert read_text(text, target="cls") == ds
    assert converted == []
    grown = ds.append({"g": ["c", None], "x": [4.0, 5.0], "cls": ["q", "p"]})
    assert converted == [2, 2, 2]
    g = grown.column("g")
    assert list(g.labels) == ["a", None, "b", "c", None]
    assert g.values.tolist() == [0, -1, 1, 2, -1] and g.categories == ("a", "b", "c")
    assert ds.column("g").values.tolist() == [0, -1, 1]  # the original is untouched


LABELS = st.lists(CELLS | st.none(), max_size=20)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), labels=LABELS)
def test_coded_columns_keep_present_categories_through_take_and_append(data, labels):
    # steps: take (duplicates, empty), take with a block of codes as
    # the strategies' output is built, and append of new labels
    ds = Dataset([Column("g", ColumnKind.NOMINAL, labels)], target="g")
    for step in range(data.draw(st.integers(0, 4)) + 1):
        col = ds.column("g")
        codes, categories = oracle.nominal_codes_oracle(labels)
        assert col.categories == tuple(categories)
        assert col.values.dtype == oracle.code_dtype_oracle(len(categories))
        assert col.values.tolist() == codes
        assert col.labels.tolist() == labels
        if not step:
            assert Column("g", ColumnKind.NOMINAL, col.labels) == col
        kind = data.draw(st.sampled_from(["take", "take+block", "append"]))
        if kind == "append":
            block = data.draw(LABELS)
            ds, labels = ds.append({"g": block}), labels + block
            continue
        idx = data.draw(st.lists(st.integers(0, max(len(labels) - 1, 0)), max_size=20)
                        if labels else st.just([]))
        extra = []
        if kind == "take+block":
            extra = data.draw(st.lists(st.integers(-1, len(categories) - 1), max_size=10))
        ds = ds.take(idx, {"g": np.array(extra, dtype=np.intp)} if extra else None)
        labels = [labels[i] for i in idx] + [categories[c] if c >= 0 else None for c in extra]


@pytest.mark.parametrize("n", [126, 127, 128, 32_766, 32_767, 32_768])
def test_code_dtype_at_its_boundaries(n):
    # category counts on both sides of each code dtype's limit
    rng = np.random.default_rng(n)
    names = [f"v{i:05d}" for i in rng.permutation(n)]
    g = [*names, None, None]
    cls = [*names, "v00000", f"v{n - 1:05d}"]
    ds = make_ds([("g", "nom", g), ("cls", "nom", cls)], "cls")
    dtype = oracle.code_dtype_oracle(n)
    for col, labels in zip(ds.columns, (g, cls)):
        assert col.values.dtype == dtype and len(col.categories) == n
        assert col.labels.tolist() == labels
    # the synthesisers draw nominal cells from these codes
    assert nominal_freqs(ds.column("g").values)[0].dtype == dtype
    block = {"g": np.array([n - 1, -1, 0], dtype=dtype),
             "cls": np.array([n - 1, n - 1, 0], dtype=dtype)}
    grown = ds.take(np.arange(ds.n_rows), block)
    top, first = f"v{n - 1:05d}", "v00000"
    assert grown.column("g").labels.tolist() == [*g, top, None, first]
    assert grown.column("cls").labels.tolist() == [*cls, top, top, first]
    assert all(c.values.dtype == dtype for c in grown.columns)
    # the categories a few rows keep call for a narrower dtype
    few = ds.take([0, 1], block)
    assert all(c.values.dtype == np.int8 for c in few.columns)
    assert few.column("g").labels.tolist() == [*g[:2], top, None, first]
    back = read_text(dataset_to_csv_bytes(grown).decode(), target="cls")
    assert back == grown and all(c.values.dtype == dtype for c in back.columns)
    assert list(class_counts(grown).items()) == oracle.label_counts_oracle(
        grown.column("cls").labels.tolist())


def test_only_tabular_turns_labels_into_codes():
    # one coding site: no other module names the coding functions
    coders = {"nominal_codes", "_codes"}
    for path in sorted(Path(tabular.__file__).parent.glob("*.py")):
        if path.name == "tabular.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, attr, None) for node in ast.walk(tree)
                 for attr in ("id", "attr", "name")}
        assert not names & coders, f"{path.name} codes labels"


def test_writer_memory_is_bounded_by_one_block(tmp_path):
    class Discard:
        def write(self, text):
            return len(text)

    n = 200_000
    rng = np.random.default_rng(0)
    ds = make_ds([
        ("x", "num", np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n))),
        ("g", "nom", np.array(["a", "b,c", None], dtype=object)[rng.integers(0, 3, n)]),
        ("cls", "nom", np.array(["p", "q"], dtype=object)[rng.integers(0, 2, n)]),
    ], "cls")
    tracemalloc.start()
    try:
        write_dataset(ds, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block's fields and text take a few hundred bytes a row; the
    # whole table's would take about 36 MiB
    assert peak < tabular.BLOCK_ROWS * 1024

    # a path sink is split with a forked worker; this process holds one
    # block of its half, then one chunk of the worker's bytes at a time
    path = tmp_path / "out.csv"
    with two_cpus() as forks:
        tracemalloc.start()
        try:
            write_dataset(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert forks
    assert peak < tabular.BLOCK_ROWS * 1024
    assert path.read_bytes() == dataset_to_csv_bytes(ds)

    # replicas: each of these rows copies one of 20,000, each copied
    # about 10 times, and a side keeps the line of each origin that
    # repeats in it.  A kept line takes under 128 bytes: its text of
    # about 25 characters, its str header, its slot and its origin's
    # first and last rows; the peak was 2.0 MB with 20,000 of them
    rows = strategy_output(ds, rng.integers(0, 20_000, n))
    cached = np.count_nonzero(np.bincount(rows.origins) > 1)
    for sink in (Discard(), path):
        with two_cpus() as forks:
            tracemalloc.start()
            try:
                write_dataset(rows, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(forks) == (sink is path)
        assert peak < tabular.BLOCK_ROWS * 1024 + cached * 128
    assert path.read_bytes() == dataset_to_csv_bytes(Dataset(rows.columns, rows.target))


@pytest.mark.parametrize("replicas", [False, True])
def test_failed_write_worker_leaves_its_rows_to_this_process(replicas, monkeypatch, tmp_path):
    ds = toy_mixed_ds()
    if replicas:
        # rows 6-9 copy rows 0-3, so each side reuses lines
        ds = strategy_output(ds, np.arange(10) % 6)
    fail_formatting_in("worker", monkeypatch)
    with two_cpus() as forks:
        write_dataset(ds, tmp_path / "out.csv")
    assert forks
    assert (tmp_path / "out.csv").read_bytes() == dataset_to_csv_bytes(Dataset(ds.columns,
                                                                                ds.target))


def test_parent_failure_kills_the_worker(monkeypatch, tmp_path):
    fail_formatting_in("parent", monkeypatch)
    with two_cpus() as forks, pytest.raises(MemoryError):
        write_dataset(toy_mixed_ds(), tmp_path / "out.csv")
    assert forks


def no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("why", ["thread", "one_cpu", "fork_fails", "temp_fails"])
def test_writer_stays_serial_unless_it_can_fork(why, monkeypatch, tmp_path):
    def fork():
        if why == "fork_fails":
            raise OSError("fork: resource temporarily unavailable")
        raise AssertionError("the writer forked")

    monkeypatch.setattr(tabular, "SPLIT_ROWS", 2)
    if why == "temp_fails":
        monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if why == "one_cpu" else {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    ds = toy_mixed_ds()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    if why == "thread":
        thread.start()
    try:
        write_dataset(ds, tmp_path / "out.csv")
    finally:
        stop.set()
    if why == "thread":
        thread.join(10)
        assert not thread.is_alive()
    assert (tmp_path / "out.csv").read_bytes() == dataset_to_csv_bytes(ds)


# 40 records whose front half holds no quote and no CR; with SPLIT_ROWS
# at 16 its front half holds enough lines to split
SPLIT_TEXT = "x,g,cls\n" + "".join(f"{i % 7}.50,g{i % 3},c{i % 2}\n" for i in range(40))


@pytest.mark.parametrize("split", [False, True])
def test_a_byte_order_mark_is_not_part_of_the_header(split, monkeypatch, tmp_path):
    # spreadsheets save UTF-8 text with one; the target is the first column
    path = tmp_path / "in.csv"
    path.write_bytes(b"\xef\xbb\xbf" + SPLIT_TEXT.encode())
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 16 if split else 1 << 20)
    with two_cpus() as forks:
        ds = read_dataset(path, target="x")
    assert len(forks) == split
    assert ds == read_text(SPLIT_TEXT, "x")


@pytest.mark.parametrize("why", ["split", "stream", "quote", "bare_cr", "small", "thread",
                                 "one_cpu", "fork_fails", "temp_fails"])
def test_reader_splits_only_where_it_can(why, monkeypatch, tmp_path):
    text = {
        "quote": SPLIT_TEXT.replace("g1", '"g1"', 1),
        "bare_cr": SPLIT_TEXT.replace("\n", "\r", 2),
        "small": SPLIT_TEXT[:SPLIT_TEXT.index("\n6.50,g0")],
    }.get(why, SPLIT_TEXT)
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 16)
    if why == "fork_fails":
        def fork():
            raise OSError("fork: resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
    if why == "temp_fails":
        monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    if why == "thread":
        thread.start()
    # over two_cpus, and undone before it is
    one_cpu = mock.patch.object(os, "sched_getaffinity", return_value={0})
    header = mock.patch.object(tabular, "_header", wraps=tabular._header)
    try:
        with two_cpus() as forks, one_cpu if why == "one_cpu" else nullcontext(), \
                header as headers:
            if why == "stream":
                with open(path, encoding="utf-8", newline="") as fh:
                    ds = read_dataset(fh, target="cls")
            else:
                ds = read_dataset(path, target="cls")
    finally:
        stop.set()
    if why == "thread":
        thread.join(10)
        assert not thread.is_alive()
    assert len(forks) == (why == "split")
    # one read: where the temporary file or the fork fails, this process
    # reads the back records itself
    assert headers.call_count == 1
    with open(path, encoding="utf-8", newline="") as fh:
        assert ds == read_dataset(fh, target="cls")


def test_failed_read_worker_gives_the_serial_result(monkeypatch, tmp_path):
    parent = os.getpid()
    read_back = tabular._read_back

    def _read_back(*args):
        if os.getpid() != parent:
            raise MemoryError("reading failed")
        return read_back(*args)

    monkeypatch.setattr(tabular, "_read_back", _read_back)
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 16)
    path = tmp_path / "in.csv"
    path.write_text(SPLIT_TEXT, encoding="utf-8", newline="")
    with mock.patch.object(tabular, "_header", wraps=tabular._header) as headers, \
            two_cpus() as forks:
        ds = read_dataset(path, target="cls")
    assert forks
    # this process reads the back records after its own, not the file again
    assert headers.call_count == 1
    assert ds == read_text(SPLIT_TEXT, "cls")


def test_a_failure_of_the_calling_process_ends_the_read(monkeypatch, tmp_path):
    # the worker's columns are half of the result, which one process
    # would hold as well; the file is not read a second time
    def load(fh):
        raise MemoryError("loading the worker's columns")

    monkeypatch.setattr(pickle, "load", load)
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 16)
    path = tmp_path / "in.csv"
    path.write_text(SPLIT_TEXT, encoding="utf-8", newline="")
    with mock.patch.object(tabular, "_header", wraps=tabular._header) as headers, \
            two_cpus() as forks, pytest.raises(MemoryError, match="worker's columns"):
        read_dataset(path, target="cls")
    assert forks
    assert headers.call_count == 1


# 40 records of 5 kB; a last line of up to 200 kB lies behind the split
WIDE_TEXT = "x,g,cls\n" + "".join(f"{i % 7}.50,{'w' * 5000},c{i % 2}\n" for i in range(40))


@pytest.mark.parametrize("last", ["1.50,g0,c0,9\n", "1.50," + "w" * 140_000 + ",c0\n"],
                         ids=["ragged", "field_too_long"])
def test_an_error_behind_the_split_is_the_one_process_error(last, monkeypatch, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(WIDE_TEXT + last, encoding="utf-8", newline="")
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 16)
    with open(path, encoding="utf-8", newline="") as fh, \
            pytest.raises(tabular.TabularError) as serial:
        read_dataset(fh, target="cls")
    assert str(serial.value).startswith("row 42 ")
    with mock.patch.object(tabular, "_header", wraps=tabular._header) as headers, \
            two_cpus() as forks, pytest.raises(tabular.TabularError) as split:
        read_dataset(path, target="cls")
    # the worker fails, and this process reads the back records itself
    assert forks
    assert headers.call_count == 1
    assert str(split.value) == str(serial.value)


@pytest.mark.parametrize("what", ["missing", "directory"])
def test_a_path_that_cannot_be_read_gives_the_one_process_error(what, tmp_path):
    path = tmp_path / "in.csv"
    if what == "directory":
        path.mkdir()
    errors = []
    for cpus in ({0}, {0, 1}):
        with mock.patch.object(os, "sched_getaffinity", return_value=cpus), \
                pytest.raises(OSError) as exc:
            read_dataset(path, target="cls")
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]


def test_a_fifo_is_read_by_one_process(monkeypatch, tmp_path):
    # _split_point's scan would drain the pipe
    src, fifo = tmp_path / "in.csv", tmp_path / "fifo"
    src.write_text(SPLIT_TEXT, encoding="utf-8", newline="")
    os.mkfifo(fifo)
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 16)
    with two_cpus() as forks:
        cat = subprocess.Popen(["sh", "-c", 'exec cat "$0" > "$1"', src, fifo])
        try:
            ds = read_dataset(fifo, target="cls")
        except BaseException:
            cat.kill()  # it may wait for a reader still
            raise
        finally:
            cat.wait(10)
    assert cat.returncode == 0
    assert not forks
    assert ds == read_text(SPLIT_TEXT, "cls")


def test_take_memory_follows_the_code_dtype():
    n, m = 100_000, 250_000
    rng = np.random.default_rng(0)
    ds = make_ds([
        ("x", "num", rng.normal(size=n)),
        ("g", "nom", np.array(["a", "b", "c", None], dtype=object)[rng.integers(0, 4, n)]),
        ("cls", "nom", np.array(["p", "q", "r"], dtype=object)[rng.integers(0, 3, n)]),
    ], "cls")
    idx = rng.integers(0, n, m)
    tracemalloc.start()
    try:
        out = ds.take(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == make_ds([("x", "num", ds.column("x").values[idx]),
                           ("g", "nom", ds.column("g").labels[idx]),
                           ("cls", "nom", ds.column("cls").labels[idx])], "cls")
    # the output alone: 8 bytes a row of floats and 1 of each int8 code
    # column, measured 10.3 B/row; np.intp codes took 32.0
    assert peak < 11 * m


def test_reader_memory_is_bounded_by_the_table(tmp_path):
    n = 200_000
    rng = np.random.default_rng(0)
    ds = make_ds([
        ("x", "num", np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n))),
        ("g", "nom", np.array(["alpha", "b,c", None], dtype=object)[rng.integers(0, 3, n)]),
        ("cls", "nom", np.array(["p", "q"], dtype=object)[rng.integers(0, 2, n)]),
    ], "cls")
    # lines, not a StringIO, whose 4-byte-a-character buffer would
    # outweigh the reader
    lines = dataset_to_csv_bytes(ds).decode("utf-8").splitlines(keepends=True)
    tracemalloc.start()
    try:
        back = read_dataset(lines, target="cls")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == ds
    # the table keeps 24 bytes a row and the numeric column's text about
    # 23 more, about 48 in all; a str per cell, kept to the end of the
    # file, takes about 146
    assert peak < n * 64

    # a path with no quote is split with a forked worker; this process
    # holds the front half's state, then also the back half's, loaded
    # from the worker
    g = ds.column("g").labels
    plain = make_ds([("x", "num", ds.column("x").values), ("g", "nom", np.where(g == "b,c", "b", g)),
                     ("cls", "nom", ds.column("cls").labels)], "cls")
    path = tmp_path / "in.csv"
    path.write_bytes(dataset_to_csv_bytes(plain))
    with two_cpus() as forks:
        tracemalloc.start()
        try:
            back = read_dataset(path, target="cls")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert forks
    assert back == plain
    assert peak < n * 64


# the characters of number literals, then text that float() reads but
# the literal regex does not, or that neither reads
GATE_CELLS = st.text(st.sampled_from([*"0123456789+-.eE", *" _inIN", "١", "２", "\x1c"]),
                     min_size=1, max_size=6)


@settings(max_examples=500, deadline=None)
@given(cells=st.lists(GATE_CELLS | st.sampled_from(["1", "-2.5", "+.5", "3e-2", "1e999", "١٢"]),
                      max_size=6))
@example(cells=["1", "\x1c2"])
@example(cells=["1", "1_0"])
@example(cells=["١", "2e5"])
def test_column_check_matches_the_cell_regex(cells):
    numbers = tabular._numbers(cells, "".join(cells))
    assert (numbers is not None) == oracle.numeric_cells_oracle(cells)
    if numbers is not None:
        assert numbers.tobytes() == np.array([float(c) for c in cells]).tobytes()


def test_numeric_columns_skip_the_cell_regex(tmp_path, monkeypatch):
    """Reading a table of ASCII numbers calls the per-cell regex on no cell."""
    path = tmp_path / "imbr.csv"
    write_dataset(gen_imbr(5_000, seed=0), path)
    cells = []

    class CountingRegex:
        def match(self, text):
            cells.append(text)
            return real.match(text)

    real = tabular._NUMERIC_RE
    monkeypatch.setattr(tabular, "_NUMERIC_RE", CountingRegex())
    ds = read_dataset(path, target="Tgt")
    assert [c.kind for c in ds.columns] == [ColumnKind.NUMERIC] * 3
    assert cells == []
