"""Column-typed tabular data with strict CSV round-tripping.

A Dataset is a small columnar table: every column is either Numeric
(float64, NaN marks a missing cell) or Nominal.  One column is
designated as the target.  The CSV layer is RFC-4180: empty fields are
missing cells, everything else round-trips byte-for-byte (floats via
shortest repr).

A nominal column is coded once, when it is built: ``values`` holds
integer codes, -1 for a missing cell, and ``categories`` the present
labels in ``sorted()`` order (code-point order, which is UTF-8 byte
order), a code being its label's position there.  ``_codes`` is the
one place that turns labels into codes.  Every column built from
another (``take``, ``append``) keeps only the categories some cell
uses, so equal labels mean equal codes and categories.  Class order,
class counts, the metrics' value codes and every tie rule that follows
from them rest on that order.

The CSV layer works column by column over blocks of ``BLOCK_ROWS``
rows, so no buffer holds more than one block of records or output
text.  Each column of a block is formatted at once; each category of
a nominal column is quoted once, by ``csv.writer``.  The reader
parses and codes each column of a block while the block's records
are alive, and keeps no cell as its own string: one scan of the
block's joined cells over the ASCII characters of number literals,
then one ``float`` parse, decides most numeric blocks, and only other
text is checked a cell at a time.  A column numeric so far also keeps
each block's text, one joined string and the cells' lengths, so that
it can be coded from its own spelling if a later block holds a label.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, islice
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
# the ASCII characters of those literals; over them float() accepts
# exactly the strings _NUMERIC_RE accepts
_LITERAL_CHARS_RE = re.compile(r"[0-9+\-.eE]*")

# rows in one block of the CSV reader and writer; neither holds more
# records or output text than one block at a time
BLOCK_ROWS = 1 << 11


def parses_as_number(text: str) -> bool:
    """True if ``text`` is a plain or scientific real literal, sign allowed.

    Decimal digits of any script count, and so does a literal too large
    for a float, such as ``1e999``: it reads as infinity.
    """
    return bool(_NUMERIC_RE.match(text))


@dataclass(slots=True)
class Column:
    """One named column.

    ``Column(name, kind, cells)`` takes cells as values: floats for a
    NUMERIC column (NaN = missing), labels for a NOMINAL one (None =
    missing, any other value ``str()``-ed).  A NUMERIC column keeps
    them as float64 ``values``.  A NOMINAL column keeps ``values`` as
    np.intp codes, -1 for a missing cell, into ``categories``: the
    labels its cells use, in ``sorted()`` order, and no other.
    ``labels`` gives a NOMINAL column's cells back as labels.
    """

    name: str
    kind: ColumnKind
    values: np.ndarray
    categories: tuple[str, ...] = field(default=(), init=False)

    def __post_init__(self) -> None:
        if self.kind is ColumnKind.NUMERIC:
            self.values = np.asarray(self.values, dtype=np.float64)
        else:
            cells = [None if v is None else str(v) for v in self.values]
            self.values, self.categories = _codes(cells, None)

    @classmethod
    def _of(cls, name: str, kind: ColumnKind, values: np.ndarray,
            categories: tuple[str, ...] = ()) -> "Column":
        """A column over ``values`` already in column form: no conversion.

        A nominal column drops the categories that no code uses.
        """
        if kind is ColumnKind.NOMINAL:
            used = np.bincount(values + 1, minlength=len(categories) + 1)[1:] > 0
            if not used.all():
                # code -1, a missing cell, picks the trailing -1
                values = np.append(np.cumsum(used) - 1, -1)[values]
                categories = tuple(compress(categories, used))
        col = object.__new__(cls)
        col.name, col.kind, col.values, col.categories = name, kind, values, categories
        return col

    @property
    def labels(self) -> np.ndarray:
        """A nominal column's cells as an object array, None where missing."""
        # code -1, a missing cell, picks the trailing None
        return np.array([*self.categories, None], dtype=object)[self.values]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind is not other.kind:
            return False
        if len(self.values) != len(other.values):
            return False
        a, b = self.values, other.values
        if self.kind is ColumnKind.NUMERIC:
            return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))
        return self.categories == other.categories and bool(np.all(a == b))

    def take(self, indices: np.ndarray, extra: np.ndarray | None = None) -> "Column":
        """The cells at ``indices``, then the cells ``extra`` holds in column form."""
        values = self.values[np.asarray(indices)]
        if extra is not None:
            values = np.concatenate([values, extra])
        return Column._of(self.name, self.kind, values, self.categories)


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

    def take(self, indices, block: Mapping[str, np.ndarray] | None = None) -> "Dataset":
        """New dataset with the given rows (duplicates allowed, order kept).

        ``block``, if given, adds rows after them, one array per column
        in column form: values of a numeric column, codes into this
        dataset's categories of a nominal one.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset([c.take(idx, None if block is None else block[c.name])
                        for c in self.columns], self.target)

    def append(self, block: Mapping[str, Sequence]) -> "Dataset":
        """New dataset with extra rows given column-wise.

        ``block`` must provide one value sequence per column, all of the
        same length.
        """
        sizes = {len(v) for v in block.values()}
        if len(block) != len(self.columns) or len(sizes) > 1:
            raise TabularError("appended block does not match the schema")
        out = []
        for c in self.columns:
            # only the new cells are converted, by a Column of their own
            new = Column(c.name, c.kind, block[c.name])
            if c.kind is ColumnKind.NOMINAL:
                values, cats = _merge_codes([(c.values, c.categories),
                                             (new.values, new.categories)])
            else:
                values, cats = np.concatenate([c.values, new.values]), ()
            out.append(Column._of(c.name, c.kind, values, cats))
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
                cells.append(c.categories[v] if v >= 0 else None)
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


def _codes(cells: list, missing) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of a list of labels, ``missing`` marking a missing cell, and
    the categories they index: the present labels in ``sorted()`` order.
    """
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
    if (col.values < 0).any():
        raise TabularError("missing value in the target column")
    counts = np.bincount(col.values, minlength=len(col.categories))
    return ClassCounts(zip(col.categories, counts.tolist()))


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
    otherwise: a column is Numeric iff every non-empty cell is a plain
    or scientific real literal (``parses_as_number``; one too large for
    a float reads as infinity).  A missing cell in the target column is
    an error.
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
        columns = [_ColumnReader(name, schema.get(name) if schema else None, name == target)
                   for name in header]
        lineno = 2
        while records := _read_block(reader, len(header), lineno):
            for col, cells in zip(columns, zip(*records)):
                col.add(cells)
            lineno += len(records)
            del records, cells  # before the next block is read
    except UnicodeDecodeError as exc:
        raise TabularError(f"input is not UTF-8 text: {exc}") from None
    finally:
        if owned:
            fh.close()

    # column errors wait for the end of the file, where a ragged row or
    # a read error anywhere has been raised first
    for col in columns:
        if col.bad is not None:
            raise TabularError(
                f"column {col.name!r} declared numeric but cell {col.bad!r} is not"
            )
        if col.is_target and col.has_empty:
            raise TabularError("missing value in the target column")
    return Dataset([col.column() for col in columns], target)


class _ColumnReader:
    """One CSV column, parsed and coded a block of cells at a time.

    A column not declared nominal is numeric while each block's cells
    are number literals (``_numbers``); it keeps each block's floats
    and, unless declared numeric, the block's text as one joined string
    and an int32 array of cell lengths.  A block holding a label makes
    it nominal: the kept text is coded block by block, so each label
    keeps its spelling.  A nominal column keeps each block's codes and
    categories from ``_codes``.  A declared-numeric column keeps its
    first cell that is not a number in ``bad`` and reads no further.
    """

    __slots__ = ("name", "declared", "is_target", "numeric", "has_empty", "bad",
                 "floats", "texts", "codes")

    def __init__(self, name: str, declared: ColumnKind | None, is_target: bool) -> None:
        self.name, self.declared, self.is_target = name, declared, is_target
        self.numeric = declared is not ColumnKind.NOMINAL
        self.has_empty = False
        self.bad: str | None = None
        self.floats: list[np.ndarray] = []
        self.texts: list[tuple[str, np.ndarray]] = []
        self.codes: list[tuple[np.ndarray, tuple[str, ...]]] = []

    def add(self, cells: tuple[str, ...]) -> None:
        if self.bad is not None:
            return
        has_empty = "" in cells
        self.has_empty |= has_empty
        if self.numeric:
            text = "".join(cells)
            present = list(filter(None, cells)) if has_empty else cells
            numbers = _numbers(present, text)
            if numbers is not None:
                lengths = np.fromiter(map(len, cells), dtype=np.int32, count=len(cells))
                if has_empty:
                    values = np.full(len(cells), np.nan)
                    values[lengths > 0] = numbers
                    numbers = values
                self.floats.append(numbers)
                if self.declared is None:
                    self.texts.append((text, lengths))
                return
            if self.declared is ColumnKind.NUMERIC:
                self.bad = next(v for v in present if not parses_as_number(v))
                return
            self.numeric = False
            for joined, lengths in self.texts:
                ends = np.cumsum(lengths).tolist()
                self.codes.append(_codes([joined[a - n:a] for a, n in zip(ends, lengths.tolist())], ""))
            self.floats, self.texts = [], []
        self.codes.append(_codes(cells, ""))

    def column(self) -> Column:
        """The column read; the reader lets go of its blocks."""
        floats, codes = self.floats, self.codes
        self.floats = self.texts = self.codes = []
        if self.numeric:
            return Column._of(self.name, ColumnKind.NUMERIC, np.concatenate([*floats, np.empty(0)]))
        return Column._of(self.name, ColumnKind.NOMINAL, *_merge_codes(codes))


def _merge_codes(parts) -> tuple[np.ndarray, tuple[str, ...]]:
    """One column from blocks of (codes, categories): each block's codes
    into the union of their categories, in ``sorted()`` order."""
    categories = tuple(sorted(set().union(*(cats for _, cats in parts))))
    pos = {v: i for i, v in enumerate(categories)}
    # code -1, a missing cell, picks the trailing -1
    values = [np.array([*map(pos.__getitem__, cats), -1], dtype=np.intp)[codes]
              for codes, cats in parts]
    return np.concatenate([*values, np.empty(0, dtype=np.intp)]), categories


def _numbers(cells: Sequence[str], text: str) -> np.ndarray | None:
    """The float64 values of ``cells`` if each is a number literal, else None.

    ``text`` is the cells joined.  One scan of it decides cells that
    are ASCII literals: over their characters ``float`` accepts exactly
    what ``_NUMERIC_RE`` accepts, so a ValueError means some cell is
    not a literal.  Other text, such as non-ASCII digits or labels,
    goes through ``_NUMERIC_RE`` a cell at a time, up to the first cell
    it rejects.
    """
    if not (_LITERAL_CHARS_RE.fullmatch(text) or all(map(_NUMERIC_RE.match, cells))):
        return None
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None


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
    # each category's field, quoted once; code -1, a missing cell, picks
    # the trailing empty field
    quoted = [[_quote(v, writer.dialect) if v else empty for v in c.categories] + [empty]
              for c in ds.columns]
    for lo in range(0, ds.n_rows, BLOCK_ROWS):
        fields = [_fields(c, q, slice(lo, lo + BLOCK_ROWS), empty)
                  for c, q in zip(ds.columns, quoted)]
        fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _fields(col: Column, quoted: list[str], rows: slice, empty: str) -> list[str]:
    """The CSV fields of ``col``'s cells in ``rows``; ``quoted`` holds a
    nominal column's field per code."""
    values = col.values[rows]
    if col.kind is ColumnKind.NOMINAL:
        return list(map(quoted.__getitem__, values.tolist()))
    # repr of a Python float is the shortest string that round-trips
    fields = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    fields[np.isnan(values)] = empty
    return fields.tolist()


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
