"""Column-typed tabular data with strict CSV round-tripping.

A Dataset is a small columnar table: every column is either Numeric
(float64, NaN marks a missing cell) or Nominal.  One column is
designated as the target.  The CSV layer is RFC-4180: empty fields are
missing cells, everything else round-trips byte-for-byte (floats via
shortest repr).

A nominal column is coded once, when it is built: ``values`` holds
integer codes, -1 for a missing cell, and ``categories`` the present
labels in ``sorted()`` order (code-point order, which is UTF-8 byte
order), a code being its label's position there.  The codes are of the
narrowest signed integer dtype that holds -1 and the number of
categories (``_code_dtype``): int8 up to 127 categories, then int16,
then int32; every function that makes codes makes them of that dtype.
``_codes`` is the one place that turns labels into codes.  Every
column built from another (``take``, ``append``) keeps only the
categories some cell uses, so equal labels mean equal codes and
categories.  Class order, class counts, the metrics' value codes and
every tie rule that follows from them rest on that order.

The CSV layer works column by column over blocks of ``BLOCK_ROWS``
rows, so no buffer holds more than one block of records or output
text.  Each column of a block is formatted at once; each category of
a nominal column is quoted once, by ``csv.writer``.  Besides one block
of output text, the writer holds one line per origin (``Dataset.origins``)
that repeats in the rows it writes, formatted once and written again
for each later copy.  A path that gets ``SPLIT_ROWS`` rows or more is
written by two processes where two CPUs are free (``write_dataset``),
split where both have equal formatting work, with the same bytes.  The
reader parses and codes each column of a block while the block's
records are alive, and keeps no cell as its own string: one scan of the
block's joined cells over the ASCII characters of number literals,
then one ``float`` parse, decides most numeric blocks, and only other
text is checked a cell at a time.  A column numeric so far also keeps
each block's text as one comma-joined string, so that it can be coded
from its own spelling if a later block holds a label: a number literal
holds no comma, so splitting at commas gives the cells back.
A regular file whose front half holds ``SPLIT_ROWS // 2`` lines, no
quote and no bare CR is read by two processes where two CPUs are free
(``read_dataset``): a worker reads the records after the first line
end past the middle and hands back its columns' state, which is
merged in file order.  The result and every error are those of one
process; any failure reads the file again in one process.  Both
splits fork through ``_forked``.
"""

from __future__ import annotations

import csv
import gc
import io
import os
import pickle
import re
import shutil
import signal
import stat
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, islice
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping, NoReturn, Sequence

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
# the ASCII characters of those literals, and the comma that joins
# cells; over them float() accepts exactly the strings _NUMERIC_RE
# accepts, so it rejects any cell that holds a comma
_LITERAL_CHARS_RE = re.compile(r"[0-9+\-.eE,]*")

# rows in one block of the CSV reader and writer; neither holds more
# records or output text than one block at a time
BLOCK_ROWS = 1 << 11
# outputs of this many rows or more are written by two processes, when
# two CPUs are free (``write_dataset``); the worker's bytes are then
# appended COPY_BYTES at a time.  Inputs whose front half holds half as
# many lines are read by two processes (``read_dataset``), and scanned
# for the split point COPY_BYTES at a time.
SPLIT_ROWS = 8 * BLOCK_ROWS
COPY_BYTES = 1 << 18
# formatting a line takes this many times the work of writing a line
# kept for a repeated origin again (``_split_row``)
FORMAT_WORK = 16


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
    codes of ``_code_dtype(len(categories))``, -1 for a missing cell,
    into ``categories``: the labels its cells use, in ``sorted()``
    order, and no other.
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

        A nominal column drops the categories that no code uses, and
        keeps its codes in the dtype its categories call for.
        """
        if kind is ColumnKind.NOMINAL:
            # indexing by the codes makes no full-length intp copy of
            # them, as ``bincount`` would; code -1, a missing cell,
            # marks the trailing slot
            used = np.zeros(len(categories) + 1, dtype=bool)
            used[values] = True
            used = used[:-1]
            dtype = _code_dtype(np.count_nonzero(used))
            if used.all():
                values = values.astype(dtype, copy=False)
            else:
                categories = tuple(compress(categories, used))
                # code -1 picks the trailing -1
                values = np.append(np.cumsum(used) - 1, -1).astype(dtype)[values]
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
            # codes into this column's categories fit its codes' dtype
            values = np.concatenate([values, extra], dtype=values.dtype, casting="same_kind")
        return Column._of(self.name, self.kind, values, self.categories)


@dataclass
class Dataset:
    """A columnar table with one designated target column.

    A strategy's output keeps in ``origins`` the input row that each of
    its rows copies, -1 for a row it added; any other dataset has no
    origins.  The writer formats the line of an origin that repeats once.
    """

    columns: list[Column]
    target: str
    origins: np.ndarray | None = field(default=None, init=False, repr=False)

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
        idx = np.asarray(indices)
        if idx.dtype != np.intp:
            idx = idx.astype(index_dtype(self.n_rows), copy=False)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.target == other.target and self.columns == other.columns


class ClassCounts(dict):
    """Label -> count mapping ordered by label byte order."""

    @property
    def total(self) -> int:
        return sum(self.values())


def index_dtype(n_rows: int) -> np.dtype:
    """The dtype of row numbers into ``n_rows`` rows, and of -1:
    int32, or intp past 2**31 rows."""
    return np.dtype(np.int32 if n_rows <= 1 << 31 else np.intp)


def _code_dtype(n_categories: int) -> np.dtype:
    """The narrowest signed integer dtype of codes into ``n_categories``
    labels: it holds -1 and, one past the top code, ``n_categories``, so
    a code shifted by one still fits."""
    return np.min_scalar_type(-n_categories - 1)


def _codes(cells: list, missing) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of a list of labels, ``missing`` marking a missing cell, and
    the categories they index: the present labels in ``sorted()`` order.
    """
    categories = tuple(sorted(set(cells) - {missing}))
    index = {v: i for i, v in enumerate(categories)}
    index[missing] = -1
    codes = np.fromiter(map(index.__getitem__, cells), dtype=_code_dtype(len(categories)),
                        count=len(cells))
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


def read_dataset(
    source,
    target: str,
    schema: Mapping[str, ColumnKind] | None = None,
) -> Dataset:
    """Read an RFC-4180 CSV with a header row into a Dataset.

    A file's UTF-8 byte-order mark is skipped.  Empty fields are missing
    cells.  Column kinds are taken from ``schema`` where given, each a
    ``ColumnKind``, and inferred otherwise: a column is Numeric iff
    every non-empty cell is a plain or scientific real literal
    (``parses_as_number``; one too large for a float reads as
    infinity).  A missing cell in the target column is an error.

    ``source`` is a path or a text stream.  A regular file is read by
    two processes when two CPUs are free and this process runs one
    thread, if a scan of its front half proves a split point
    (``_split_point``): no ``"``, no CR outside a CRLF pair and at least
    ``SPLIT_ROWS // 2`` lines.  A forked worker reads the records after
    the split point while this process reads those before it.  The
    result is the one process's, and so is every error: if either side
    fails, the whole file is read again by one process.  A stream, a
    file whose front half holds a quote or a bare CR, or a smaller file
    is read by one process.
    """
    columns = None
    if isinstance(source, (str, Path)) and _may_fork():
        columns = _read_split(source, target, schema)
    if columns is None:
        columns = _read_serial(source, target, schema)

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


def _read_serial(source, target: str, schema) -> list["_ColumnReader"]:
    """The columns of ``source``, read by this process alone."""
    owned = isinstance(source, (str, Path))
    fh = open(source, "r", encoding="utf-8-sig", newline="") if owned else source
    try:
        reader = csv.reader(fh)
        columns = _header(reader, target, schema)
        _read_records(reader, columns, 2)
    except UnicodeDecodeError as exc:
        raise TabularError(f"input is not UTF-8 text: {exc}") from None
    finally:
        if owned:
            fh.close()
    return columns


def _header(reader, target: str, schema) -> list["_ColumnReader"]:
    """Read and check the header record; one column reader per name."""
    try:
        header = next(reader)
    except StopIteration:
        raise TabularError("empty input: no header row") from None
    except csv.Error as exc:
        raise _csv_error(exc, 1) from None
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
    return [_ColumnReader(name, schema.get(name) if schema else None, name == target)
            for name in header]


def _read_records(reader, columns: list["_ColumnReader"], lineno: int) -> None:
    """Add ``reader``'s records to ``columns`` a block at a time, the
    first being record ``lineno``."""
    while records := _read_block(reader, len(columns), lineno):
        for col, cells in zip(columns, zip(*records)):
            col.add(cells)
        lineno += len(records)
        del records, cells  # before the next block is read


def _read_split(path, target: str, schema) -> list["_ColumnReader"] | None:
    """The columns of the file at ``path``, read by two processes, or
    None if the file has no proven split point or either side fails."""
    try:
        split = _split_point(path)
        if split is None:
            return None
        start, lines = split
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            columns = _header(reader, target, schema)
            with _forked(lambda tmp: _read_back(path, start, columns, lines + 1, tmp),
                         f"the process reading {path} from byte {start}") as join:
                if join is None:
                    return None
                # before ``start`` lie the header and lines - 1 records
                _read_records(islice(reader, lines - 1), columns, 2)
                back = pickle.load(join())
    except Exception:
        # the serial reader reads the file again, and raises its own
        # error if there is one
        return None
    for col, rest in zip(columns, back):
        col.extend(rest)
    return columns


def _split_point(path) -> tuple[int, int] | None:
    """``(p, L)``: ``p`` the byte after the first LF at or past the
    middle of the regular file at ``path``, ``L`` the LFs before it.

    None unless bytes ``[0, p)`` hold no ``"``, no CR outside a CRLF
    pair and at least ``SPLIT_ROWS // 2`` LFs.  Then each line before
    ``p`` is one record, so ``p`` starts record ``L + 1``, the header
    being record 1.  The file is read ``COPY_BYTES`` at a time.
    """
    # a pipe would be drained by the scan
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    with open(path, "rb") as raw:
        half = os.fstat(raw.fileno()).st_size // 2
        pos = lines = 0
        cr = False  # the last chunk ended in a CR
        while chunk := raw.read(COPY_BYTES):
            end = chunk.find(b"\n", max(half - pos, 0)) + 1
            if end:
                chunk = chunk[:end]
            if (b'"' in chunk or (cr and not chunk.startswith(b"\n"))
                    or chunk.count(b"\r") - chunk.endswith(b"\r") > chunk.count(b"\r\n")):
                return None
            cr = chunk.endswith(b"\r")
            lines += chunk.count(b"\n")
            pos += len(chunk)
            if end:
                return (pos, lines) if lines >= SPLIT_ROWS // 2 else None
    return None


def _read_back(path, start: int, columns: list["_ColumnReader"], lineno: int,
               tmp: IO[bytes]) -> None:
    """In the forked worker: add the records from byte ``start`` of
    ``path`` on, the first being record ``lineno``, to ``columns``, and
    dump the columns to ``tmp``."""
    with open(path, "rb") as raw:
        raw.seek(start)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
            _read_records(csv.reader(fh), columns, lineno)
    pickle.dump(columns, tmp, pickle.HIGHEST_PROTOCOL)


class _ColumnReader:
    """One CSV column, parsed and coded a block of cells at a time.

    A column not declared nominal is numeric while each block's cells
    are number literals (``_numbers``); it keeps each block's floats
    and, unless declared numeric, the block's cells joined by commas.
    A block holding a label makes it nominal: the kept text is split at
    the commas and coded block by block, so each label keeps its
    spelling.  A nominal column keeps each block's codes and
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
        self.texts: list[str] = []
        self.codes: list[tuple[np.ndarray, tuple[str, ...]]] = []

    def add(self, cells: tuple[str, ...]) -> None:
        if self.bad is not None:
            return
        has_empty = "" in cells
        self.has_empty |= has_empty
        if self.numeric:
            text = ",".join(cells)
            present = list(filter(None, cells)) if has_empty else cells
            numbers = _numbers(present, text)
            if numbers is not None:
                if has_empty:
                    values = np.full(len(cells), np.nan)
                    values[np.fromiter(map(bool, cells), dtype=bool, count=len(cells))] = numbers
                    numbers = values
                self.floats.append(numbers)
                if self.declared is None:
                    self.texts.append(text)
                return
            if self.declared is ColumnKind.NUMERIC:
                self.bad = next(v for v in present if not parses_as_number(v))
                return
            self._code_text()
        self.codes.append(_codes(cells, ""))

    def _code_text(self) -> None:
        """Make the column nominal: code its kept text block by block,
        so that each label keeps its spelling."""
        self.numeric = False
        for joined in self.texts:
            self.codes.append(_codes(joined.split(","), ""))
        self.floats, self.texts = [], []

    def extend(self, back: "_ColumnReader") -> None:
        """Take in the cells ``back`` read, which follow this reader's."""
        self.has_empty |= back.has_empty
        if self.bad is None:
            self.bad = back.bad
        if self.numeric != back.numeric:
            (self if self.numeric else back)._code_text()
        self.floats += back.floats
        self.texts += back.texts
        self.codes += back.codes

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
    dtype = _code_dtype(len(categories))
    # code -1, a missing cell, picks the trailing -1
    values = [np.array([*map(pos.__getitem__, cats), -1], dtype=dtype)[codes]
              for codes, cats in parts]
    return np.concatenate([*values, np.empty(0, dtype=dtype)]), categories


def _numbers(cells: Sequence[str], text: str) -> np.ndarray | None:
    """The float64 values of ``cells`` if each is a number literal, else None.

    ``text`` is the cells joined by commas.  One scan of it decides
    cells that are ASCII literals: over their characters ``float``
    accepts exactly what ``_NUMERIC_RE`` accepts, so a ValueError
    means some cell is not a literal.  Other text, such as non-ASCII
    digits or labels, goes through ``_NUMERIC_RE`` a cell at a time, up
    to the first cell it rejects.
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
    except csv.Error as exc:
        raise _csv_error(exc, lineno + len(records)) from None
    finally:
        # a ragged record is reported ahead of a read error after it
        sizes = list(map(len, records))
        if sizes.count(width) < len(sizes):
            i = next(i for i, size in enumerate(sizes) if size != width)
            raise TabularError(f"row {lineno + i} has {sizes[i]} fields, expected {width}")
    return records


def _csv_error(exc: csv.Error, lineno: int) -> TabularError:
    """The error for record ``lineno``, which ``csv`` could not read."""
    return TabularError(f"row {lineno} cannot be read: {exc}")


def write_dataset(ds: Dataset, sink) -> None:
    """Write ``ds`` as RFC-4180 CSV (CRLF rows, missing cells empty).

    ``sink`` is a path or a text stream.  A path that gets at least
    ``SPLIT_ROWS`` rows is written by two processes when two CPUs are
    free and this process runs one thread: a forked worker formats the
    back rows into a temporary file while this process writes the front
    rows, then appends the worker's bytes.  The split falls where both
    sides have equal formatting work (``_split_row``).  The bytes are
    those one process would write.

    Each side holds one block of output text and, where ``ds`` was made
    by ``take``, the line of each origin that repeats in its rows: that
    line is formatted once, at the origin's first row, and written
    again for every later row that copies the same row.
    """
    if not isinstance(sink, (str, Path)):
        _write_rows(ds, sink)
        return
    with open(sink, "w", encoding="utf-8", newline="") as fh:
        if ds.n_rows >= SPLIT_ROWS and _may_fork():
            _write_split(ds, fh)
        else:
            _write_rows(ds, fh)


def _may_fork() -> bool:
    """A forked worker gets a CPU of its own and copies no other thread."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _write_split(ds: Dataset, fh: IO[str]) -> None:
    """Write the front rows of ``ds`` to ``fh`` while a forked worker
    formats the back rows; then append the worker's bytes."""
    mid = _split_row(ds)
    with _forked(lambda tmp: _write_back(ds, tmp, mid),
                 f"the process formatting rows {mid + 1}-{ds.n_rows} of {fh.name}") as join:
        if join is None:
            _write_rows(ds, fh)
            return
        _write_rows(ds, fh, stop=mid)
        tmp = join()
        fh.flush()
        shutil.copyfileobj(tmp, fh.buffer, COPY_BYTES)


def _split_row(ds: Dataset) -> int:
    """The first row of the worker's side, or ``n // 2`` for a dataset
    without origins: the first row where the front's formatting work
    reaches the back's.

    A side formats the line of each of its rows without an origin and
    of each origin it holds, once, at ``FORMAT_WORK``; every other row
    reuses a line, at 1.  The front formats the first row of each
    origin, and the back as many lines as it holds last rows of one.
    Moving the split one row on adds that row's front work and takes
    its back work, so the split is found from per-block sums, then row
    by row in one block.
    """
    n, origins = ds.n_rows, ds.origins
    if origins is None:
        return n // 2
    ends = _ends(origins, 0, n)
    if ends is None:  # each row is formatted
        return (n + 1) // 2
    first, last = ends

    def formats(lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row of the block at ``lo``: whether the front formats its
        line, and whether the back does."""
        o = origins[lo:lo + BLOCK_ROWS]
        rows, none = np.arange(lo, lo + len(o), dtype=o.dtype), o < 0
        return none | (first[o] == rows), none | (last[o] == rows)

    starts = np.arange(0, n, BLOCK_ROWS)
    # per block, the front's work and the back's: 1 a row, and
    # FORMAT_WORK - 1 more a line formatted
    work = (np.minimum(n - starts, BLOCK_ROWS)[:, None] + (FORMAT_WORK - 1)
            * np.array([list(map(np.count_nonzero, formats(lo))) for lo in starts]))
    # at each block's end, the front work before it less the back work
    # after it; it rises to the whole front work at the last block
    gap = np.cumsum(work.sum(axis=1)) - work[:, 1].sum()
    b = int(np.searchsorted(gap, 0))
    front, back = formats(starts[b])
    rows = (gap[b - 1] if b else -work[:, 1].sum()) + np.cumsum(
        2 + (FORMAT_WORK - 1) * (front.astype(np.intp) + back))
    return int(starts[b]) + int(np.searchsorted(rows, 0)) + 1


def _ends(origins: np.ndarray, start: int, stop: int
          ) -> tuple[np.ndarray, np.ndarray] | None:
    """Per origin, the first and the last of rows ``start:stop`` that
    copy it (``stop`` and -1 for an origin none copies), or None where
    no two of them copy the same row; the last slot, which -1 indexes,
    takes the rows without an origin."""
    first = np.full(int(origins[start:stop].max(initial=-1)) + 2, stop, dtype=origins.dtype)
    last = np.full(len(first), -1, dtype=origins.dtype)
    for lo in range(start, stop, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, stop)
        o, rows = origins[lo:hi], np.arange(lo, hi, dtype=origins.dtype)
        np.minimum.at(first, o, rows)
        np.maximum.at(last, o, rows)
    return (first, last) if (first[:-1] < last[:-1]).any() else None


def _write_back(ds: Dataset, tmp: IO[bytes], start: int) -> None:
    """In the forked worker: write rows ``start:`` of ``ds`` to ``tmp``."""
    out = io.TextIOWrapper(tmp, encoding="utf-8", newline="")
    _write_rows(ds, out, start=start, header=False)
    out.detach()  # flushes, and leaves tmp open


@contextmanager
def _forked(work: Callable[[IO[bytes]], None], what: str
            ) -> Iterator[Callable[[], IO[bytes]] | None]:
    """Run ``work(tmp)`` in a forked worker, ``tmp`` being an unlinked
    temporary file in the temp dir, so that any output path works,
    /dev/stdout included.

    Yields None if the fork fails, else ``join``: it reaps the worker
    and gives back ``tmp`` at its start, or raises a TabularError that
    says ``what`` exited with which status and, if the worker raised,
    the exception's type and message.  On leaving, a worker not yet
    reaped is killed and reaped.
    """
    with tempfile.TemporaryFile() as tmp:
        try:
            pid = os.fork()
        except OSError:
            yield None
            return
        if pid == 0:
            _child(work, tmp)

        def join() -> IO[bytes]:
            nonlocal pid
            _, status = os.waitpid(pid, 0)
            pid = 0
            code = os.waitstatus_to_exitcode(status)
            tmp.seek(0)
            if code:
                # status 1 comes from ``_child``, which left the exception in tmp
                why = tmp.read().decode("utf-8", "replace") if code == 1 else ""
                raise TabularError(f"{what} exited with status {code}"
                                   + (f": {why}" if why else ""))
            return tmp

        try:
            yield join
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(work: Callable[[IO[bytes]], None], tmp: IO[bytes]) -> NoReturn:
    """In the forked worker: run ``work(tmp)``, then exit without running
    any of the parent's clean-up.  If it raises, ``tmp`` holds the
    exception's type and message in place of its output."""
    try:
        # a collection could finalise, and so flush, a file object the
        # parent owns
        gc.disable()
        work(tmp)
        tmp.flush()
    except BaseException as exc:
        try:
            why = f"{type(exc).__name__}: {exc}".removesuffix(": ")
            os.ftruncate(tmp.fileno(), 0)
            os.pwrite(tmp.fileno(), why.encode("utf-8", "replace"), 0)
        finally:
            # before ``exc`` goes, with its frames and any file object
            # they hold that could flush into tmp
            os._exit(1)
    os._exit(0)


def _write_rows(ds: Dataset, fh: IO[str], start: int = 0, stop: int | None = None,
                header: bool = True) -> None:
    """Write rows ``start:stop`` of ``ds``, after the header if ``header``.

    Where two of these rows copy the same row (``ds.origins``), the
    line of the first is kept and written again for the others.
    """
    stop = ds.n_rows if stop is None else stop
    dialect = csv.excel
    if header:
        csv.writer(fh, dialect).writerow([c.name for c in ds.columns])
    # csv quotes a field by its content alone, except that a row of one
    # empty field is written '""' so that it is not a blank line
    empty = _quote("", dialect) if ds.n_cols == 1 else ""
    # each category's field, quoted once; code -1, a missing cell, picks
    # the trailing empty field
    quoted = [[_quote(v, dialect) if v else empty for v in c.categories] + [empty]
              for c in ds.columns]

    def lines(rows) -> list[str]:
        fields = [_fields(c, q, rows, empty) for c, q in zip(ds.columns, quoted)]
        return list(map(",".join, zip(*fields)))

    ends = None if ds.origins is None else _ends(ds.origins, start, stop)
    if ends is not None:
        first, last = ends
        # the line of each origin that repeats in these rows, from its
        # first row on
        kept = np.empty(len(first), dtype=object)

    def block(lo: int, hi: int) -> list[str]:
        """The lines of rows ``lo:hi``; a repeated origin's line is
        formatted at its first row only."""
        if ends is None:
            return lines(slice(lo, hi))
        o = ds.origins[lo:hi]
        at = first[o]
        repeats = (o >= 0) & (at != last[o])
        if not repeats.any():
            return lines(slice(lo, hi))
        fresh = ~repeats | (at == np.arange(lo, hi, dtype=o.dtype))
        text = np.empty(hi - lo, dtype=object)
        text[fresh] = lines(np.flatnonzero(fresh) + lo)
        new = repeats & fresh
        kept[o[new]] = text[new]
        text[~fresh] = kept[o[~fresh]]
        return text.tolist()

    for lo in range(start, stop, BLOCK_ROWS):
        fh.write("\r\n".join(block(lo, min(lo + BLOCK_ROWS, stop))) + "\r\n")


def _fields(col: Column, quoted: list[str], rows: slice | np.ndarray,
            empty: str) -> list[str]:
    """The CSV fields of ``col``'s cells in ``rows``, a slice or row
    numbers; ``quoted`` holds a nominal column's field per code."""
    values = col.values[rows]
    if col.kind is ColumnKind.NOMINAL:
        return list(map(quoted.__getitem__, values.tolist()))
    # repr of a Python float is the shortest string that round-trips
    fields = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        fields[i] = empty
    return fields


def _quote(value: str, dialect) -> str:
    """``value`` as ``csv.writer`` writes it in a row of ``dialect``."""
    buf = io.StringIO()
    csv.writer(buf, dialect).writerow([value])
    return buf.getvalue().removesuffix(dialect.lineterminator)
