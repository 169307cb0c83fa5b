import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import (
    Column,
    ColumnKind,
    Dataset,
    TabularError,
    class_counts,
    read_dataset,
    write_dataset,
)
from rebalance._util import nominal_freqs
from rebalance.classif import _class_indices
from rebalance.tabular import dataset_to_csv_bytes, nominal_codes, parses_as_number

import _oracles as oracle
from _toys import labelled, make_ds


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
    assert ds.column("b").values[0] is None


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
    assert list(ds.column("a").values) == ["1", "2"]


def test_schema_numeric_rejects_text():
    with pytest.raises(TabularError, match="declared numeric"):
        read_text(
            "a,cls\nx,p\n", target="cls", schema={"a": ColumnKind.NUMERIC}
        )


def test_schema_unknown_column():
    with pytest.raises(TabularError, match="unknown columns"):
        read_text("a,cls\n1,p\n", target="cls", schema={"zz": ColumnKind.NUMERIC})


def test_duplicate_header_rejected():
    with pytest.raises(TabularError, match="duplicate column names"):
        read_text("a,a,cls\n1,2,p\n", target="cls")


def test_target_must_exist():
    with pytest.raises(TabularError, match="not in header"):
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
    assert list(back.column("b").values) == ['say "hi"', "a,b"]


def test_take_allows_duplicates_and_keeps_order():
    ds = labelled(["p", "q", "r"], {"x": ("num", [1.0, 2.0, 3.0])})
    sub = ds.take([2, 0, 2])
    assert list(sub.target_column.values) == ["r", "p", "r"]
    np.testing.assert_array_equal(sub.column("x").values, [3.0, 1.0, 3.0])


def test_append_block():
    ds = labelled(["p"], {"x": ("num", [1.0])})
    grown = ds.append({"x": [2.0], "cls": ["q"]})
    assert grown.n_rows == 2
    assert list(grown.target_column.values) == ["p", "q"]
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


# labels whose byte order differs from a case-folded or locale order
CELLS = st.sampled_from(["Z", "a", "ä", "é", "ab", ""]) | st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(CELLS | st.none(), max_size=40))
def test_nominal_codes_match_dict_loop(values):
    cells = np.array(values, dtype=object)
    codes, categories = nominal_codes(cells)
    want_codes, want_categories = oracle.nominal_codes_oracle(values)
    assert codes.dtype == np.intp and codes.tolist() == want_codes
    assert categories == tuple(want_categories)
    labels, freqs = nominal_freqs(cells)
    counts = oracle.label_counts_oracle(values)
    assert list(labels) == [v for v, _ in counts]
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
