"""Column-typed tabular data with strict CSV round-tripping.

A Dataset is a small columnar table: every column is either Numeric
(float64, NaN marks a missing cell) or Nominal (object array of strings,
None marks a missing cell).  One column is designated as the target.
The CSV layer is RFC-4180: empty fields are missing cells, everything
else round-trips byte-for-byte (floats via shortest repr).

The CSV layer works column by column over blocks of ``BLOCK_ROWS``
rows, so no buffer holds more than one block of records or output
text.  Each column of a block is parsed or formatted at once; each
distinct nominal value of a block is quoted once, by ``csv.writer``.
The reader, ``take`` and ``append`` build columns from cells already
in column form and do not convert them again.

``nominal_codes`` is the one place that turns nominal values into
integers: each label's position in ``sorted()`` order (code-point
order, which is UTF-8 byte order), -1 for a missing cell.  Class
order, class counts, the metrics' value codes and every tie rule that
follows from them rest on that order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ColumnKind",
    "Column",
    "Dataset",
    "ClassCounts",
    "TabularError",
    "read_dataset",
    "write_dataset",
    "class_counts",
    "nominal_codes",
]


class TabularError(ValueError):
    """Raised for malformed tables, rows, or schema violations."""


class ColumnKind(Enum):
    NUMERIC = "numeric"
    NOMINAL = "nominal"


# A cell is numeric only if the whole field is a plain or scientific real
# number.  float() would also accept "inf", "nan" and "1_0"; those must
# stay nominal, so parsing is regex-gated.
_NUMERIC_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")

# rows in one block of the CSV reader and writer; neither holds more
# records or output text than one block at a time
BLOCK_ROWS = 1 << 11


def parses_as_number(text: str) -> bool:
    """True if ``text`` is a finite real literal (sign/scientific ok)."""
    return bool(_NUMERIC_RE.match(text))


@dataclass(slots=True)
class Column:
    """One named column.

    values is float64 for NUMERIC columns (NaN = missing) and an object
    array of str or None for NOMINAL columns.
    """

    name: str
    kind: ColumnKind
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind is ColumnKind.NUMERIC:
            self.values = np.asarray(self.values, dtype=np.float64)
        else:
            vals = np.empty(len(self.values), dtype=object)
            for i, v in enumerate(self.values):
                vals[i] = None if v is None else str(v)
            self.values = vals

    @classmethod
    def _of(cls, name: str, kind: ColumnKind, values: np.ndarray) -> "Column":
        """A column over ``values`` already in column form: no conversion."""
        col = object.__new__(cls)
        col.name, col.kind, col.values = name, kind, values
        return col

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind is not other.kind:
            return False
        if len(self.values) != len(other.values):
            return False
        if self.kind is ColumnKind.NUMERIC:
            a, b = self.values, other.values
            return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))
        return all(x == y for x, y in zip(self.values, other.values))

    def take(self, indices: np.ndarray) -> "Column":
        return Column._of(self.name, self.kind, self.values[np.asarray(indices)])


@dataclass
class Dataset:
    """A columnar table with one designated target column."""

    columns: list[Column]
    target: str

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise TabularError("duplicate column names")
        if self.target not in names:
            raise TabularError(f"target column {self.target!r} not present")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise TabularError("columns differ in length")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise TabularError(f"no column named {name!r}")

    @property
    def target_column(self) -> Column:
        return self.column(self.target)

    @property
    def feature_columns(self) -> list[Column]:
        return [c for c in self.columns if c.name != self.target]

    def take(self, indices) -> "Dataset":
        """New dataset with the given rows (duplicates allowed, order kept)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset([c.take(idx) for c in self.columns], self.target)

    def append(self, block: Mapping[str, Sequence]) -> "Dataset":
        """New dataset with extra rows given column-wise.

        ``block`` must provide one value sequence per column, all of the
        same length.
        """
        sizes = {len(v) for v in block.values()}
        if len(block) != len(self.columns) or len(sizes) > 1:
            raise TabularError("appended block does not match the schema")
        # only the new cells are converted, by a Column of their own
        out = []
        for c in self.columns:
            extra = Column(c.name, c.kind, block[c.name]).values
            out.append(Column._of(c.name, c.kind, np.concatenate([c.values, extra])))
        return Dataset(out, self.target)

    def row(self, i: int, feature_only: bool = True) -> tuple:
        """Cell values of row ``i`` (features only by default)."""
        cols = self.feature_columns if feature_only else self.columns
        cells = []
        for c in cols:
            v = c.values[i]
            if c.kind is ColumnKind.NUMERIC:
                cells.append(float(v))
            else:
                cells.append(v)
        return tuple(cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.target == other.target and self.columns == other.columns


class ClassCounts(dict):
    """Label -> count mapping ordered by label byte order."""

    @property
    def total(self) -> int:
        return sum(self.values())


def nominal_codes(values: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer codes of nominal cells, and the categories they index.

    ``categories`` holds the present values in ``sorted()`` order, and
    a cell's code is its value's position there, -1 for a missing cell.
    """
    return _codes(values.tolist(), None)


def _codes(cells: list, missing) -> tuple[np.ndarray, tuple[str, ...]]:
    """``nominal_codes`` of a list of cells, ``missing`` marking a missing one."""
    categories = tuple(sorted(set(cells) - {missing}))
    index = {v: i for i, v in enumerate(categories)}
    index[missing] = -1
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
    return codes, categories


def class_counts(ds: Dataset) -> ClassCounts:
    """Count rows per class label, ordered by label byte order."""
    col = ds.target_column
    if col.kind is not ColumnKind.NOMINAL:
        raise TabularError("class counts need a nominal target column")
    codes, labels = nominal_codes(col.values)
    if (codes < 0).any():
        raise TabularError("missing value in the target column")
    return ClassCounts(zip(labels, np.bincount(codes, minlength=len(labels)).tolist()))


def _open_source(source) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


def read_dataset(
    source,
    target: str,
    schema: Mapping[str, ColumnKind] | None = None,
) -> Dataset:
    """Read an RFC-4180 CSV with a header row into a Dataset.

    Empty fields are missing cells.  Column kinds are taken from
    ``schema`` where given, each a ``ColumnKind``, and inferred
    otherwise: a column is Numeric iff every non-empty cell parses as a
    finite real number.  A missing cell in the target column is an
    error.
    """
    fh, owned = _open_source(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TabularError("empty input: no header row") from None
        if len(set(header)) != len(header):
            raise TabularError("duplicate column names in header")
        if target not in header:
            raise TabularError(f"target column {target!r} not in header")
        if schema:
            unknown = set(schema) - set(header)
            if unknown:
                raise TabularError(
                    f"schema names unknown columns: {sorted(unknown)}"
                )
            for name, kind in schema.items():
                if not isinstance(kind, ColumnKind):
                    raise TabularError(
                        f"schema gives column {name!r} the kind {kind!r}, not a ColumnKind"
                    )
        cells: list[list[str]] = [[] for _ in header]
        lineno = 2
        while records := _read_block(reader, len(header), lineno):
            for col, block in zip(cells, zip(*records)):
                col.extend(block)
            lineno += len(records)
    except UnicodeDecodeError as exc:
        raise TabularError(f"input is not UTF-8 text: {exc}") from None
    finally:
        if owned:
            fh.close()

    columns = []
    for name, raw in zip(header, cells):
        non_empty = list(filter(None, raw))
        declared = schema.get(name) if schema else None
        numeric = declared is not ColumnKind.NOMINAL and all(map(_NUMERIC_RE.match, non_empty))
        if declared is ColumnKind.NUMERIC and not numeric:
            bad = next(v for v in non_empty if not parses_as_number(v))
            raise TabularError(f"column {name!r} declared numeric but cell {bad!r} is not")
        if name == target and len(non_empty) < len(raw):
            raise TabularError("missing value in the target column")
        if numeric:
            present = np.fromiter(map(bool, raw), dtype=bool, count=len(raw))
            values = np.full(len(raw), np.nan)
            values[present] = np.fromiter(map(float, non_empty), dtype=np.float64,
                                          count=len(non_empty))
        else:
            codes, categories = _codes(raw, "")
            # code -1, a missing cell, picks the trailing None
            values = np.array([*categories, None], dtype=object)[codes]
        kind = ColumnKind.NUMERIC if numeric else ColumnKind.NOMINAL
        columns.append(Column._of(name, kind, values))
        raw.clear()  # the column's text goes before the next is parsed
    return Dataset(columns, target)


def _read_block(reader, width: int, lineno: int) -> list[list[str]]:
    """The next ``BLOCK_ROWS`` records, the first being record ``lineno``."""
    records: list[list[str]] = []
    try:
        records.extend(islice(reader, BLOCK_ROWS))
    finally:
        # a ragged record is reported ahead of a read error after it
        sizes = list(map(len, records))
        if sizes.count(width) < len(sizes):
            i = next(i for i, size in enumerate(sizes) if size != width)
            raise TabularError(f"row {lineno + i} has {sizes[i]} fields, expected {width}")
    return records


def write_dataset(ds: Dataset, sink) -> None:
    """Write ``ds`` as RFC-4180 CSV (CRLF rows, missing cells empty)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            _write_rows(ds, fh)
    else:
        _write_rows(ds, sink)


def _write_rows(ds: Dataset, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow([c.name for c in ds.columns])
    # csv quotes a field by its content alone, except that a row of one
    # empty field is written '""' so that it is not a blank line
    empty = _quote("", writer.dialect) if ds.n_cols == 1 else ""
    for lo in range(0, ds.n_rows, BLOCK_ROWS):
        fields = [_fields(c, slice(lo, lo + BLOCK_ROWS), writer.dialect, empty)
                  for c in ds.columns]
        fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _fields(col: Column, rows: slice, dialect, empty: str) -> list[str]:
    """The CSV fields of ``col``'s cells in ``rows``."""
    values = col.values[rows]
    if col.kind is ColumnKind.NUMERIC:
        # repr of a Python float is the shortest string that round-trips
        fields = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
        fields[np.isnan(values)] = empty
        return fields.tolist()
    codes, categories = nominal_codes(values)
    # code -1, a missing cell, picks the trailing empty field
    fields = [_quote(v, dialect) if v else empty for v in categories] + [empty]
    return list(map(fields.__getitem__, codes.tolist()))


def _quote(value: str, dialect) -> str:
    """``value`` as ``csv.writer`` writes it in a row of ``dialect``."""
    buf = io.StringIO()
    csv.writer(buf, dialect).writerow([value])
    return buf.getvalue().removesuffix(dialect.lineterminator)


def dataset_to_csv_bytes(ds: Dataset) -> bytes:
    """CSV serialization as bytes (handy for determinism checks)."""
    buf = io.StringIO()
    write_dataset(ds, buf)
    return buf.getvalue().encode("utf-8")
