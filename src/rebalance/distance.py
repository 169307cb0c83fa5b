"""Distance metrics over mixed-type rows, and a blocked neighbour engine.

Eight metrics are supported.  The plain numeric family (euclidean,
manhattan, minkowsky, chebyshev, canberra) requires all-numeric
features and applies no normalization.  Overlap requires all-nominal
features.  HEOM and HVDM accept mixed features and missing cells; HVDM
additionally needs a nominal target because its nominal terms are
class-conditional.

A MetricContext caches the per-feature statistics a metric needs
(ranges, standard deviations, value-difference tables) so that row
distances are pure lookups.

One kernel computes every distance.  Its operands are per-feature
arrays, values for a numeric feature and codes for a nominal one
(``encode_rows``).  It has two forms: a block, query rows against
candidate columns, which ``pairwise`` and the neighbour engine use; and
a paired form (``paired_distances``), row i against row i, which SMOTER
uses for its synthetic rows and ``distance()`` for one pair of cell
sequences.  Per feature, the kernel computes its term in place in one
preallocated buffer and adds it to a second, and the first term goes
straight into the result.  A missing cell makes a HEOM or HVDM term 1.
That override is applied only where a chunk's row or column operands
hold a missing cell, and it is read from the operands' NaN values and
-1 codes, never from a NaN result: inf - inf stays NaN.  HEOM and
overlap add nominal mismatches as booleans, since a 0/1 term is its own
square.  HVDM reads nominal terms from the squared value-difference
table, which is padded with a row and column of 1.0 that code -1
(missing) indexes, plus an all-zero-frequency row for values unseen at
build time (only ``distance()`` meets those).  A block gathers a term
with two 1-D ``take``s, one for the query rows' table rows and one for
the candidate columns.

The neighbour engine (``nearest`` and ``knn_table``) never holds the
full n x m distance matrix.  It measures a chunk of query rows against
every candidate at a time, at most ``BLOCK_PAIRS`` distances per chunk
(one row when a single row is wider), and reduces the chunk at once to
each row's nearest candidate or k nearest candidates.  Peak memory is
therefore O(BLOCK_PAIRS + n*k) rather than O(n*m).  On equal distance
the candidate listed first wins.

The plain metrics give a NaN distance when a cell is missing, and the
two reductions order NaN the way their dense forms always did:

- ``nearest`` follows ``argmin``: the first NaN candidate ranks
  nearest of all.  Tomek links, OSS and CNN use it.
- ``knn_table`` follows a stable ``argsort`` with the row itself at an
  infinite distance: NaN ranks after every number, the row itself
  included, so a row whose distances are all NaN lists itself first.
  ENN, NCL, SMOTE and SMOTER use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import sample_sd
from .tabular import ColumnKind, Dataset, nominal_codes

__all__ = [
    "Metric",
    "MetricContext",
    "MetricError",
    "build_context",
    "distance",
    "encode_rows",
    "knn",
    "knn_table",
    "nearest",
    "paired_distances",
    "pairwise",
]

PLAIN_METRICS = ("euclidean", "manhattan", "minkowsky", "chebyshev", "canberra")
METRIC_NAMES = PLAIN_METRICS + ("overlap", "heom", "hvdm")
# metrics that sum squared terms and take the square root
SQUARED = ("euclidean", "heom", "hvdm")

# distances the neighbour engine computes per chunk; the kernel holds
# two float64 buffers of this size (canberra a third) and, for nominal
# mismatches, one bool buffer: 17 B per pair, 24 B under canberra
BLOCK_PAIRS = 1 << 18


class MetricError(ValueError):
    """Raised when a metric cannot be used with the given data."""


@dataclass(frozen=True, slots=True)
class Metric:
    """A metric tag, plus the exponent for the minkowsky family."""

    name: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.name not in METRIC_NAMES:
            raise MetricError(f"unknown distance {self.name!r}")
        if self.name == "minkowsky":
            if self.p is None or not (0 < self.p < math.inf):
                raise MetricError("the minkowsky distance requires a finite p > 0")
        elif self.p is not None:
            raise MetricError(f"the {self.name} distance takes no p")


@dataclass
class MetricContext:
    """Per-feature statistics for one metric over one dataset."""

    metric: Metric
    kinds: tuple[str, ...]              # 'num' | 'nom' per feature column
    names: tuple[str, ...]
    n_rows: int
    num_values: dict[int, np.ndarray] = field(default_factory=dict)
    nom_codes: dict[int, np.ndarray] = field(default_factory=dict)
    nom_encode: dict[int, dict[str, int]] = field(default_factory=dict)
    ranges: dict[int, float] = field(default_factory=dict)
    four_sd: dict[int, float] = field(default_factory=dict)
    vdm_sq: dict[int, np.ndarray] = field(default_factory=dict)
    classes: tuple[str, ...] = ()


def build_context(metric: Metric, ds: Dataset) -> MetricContext:
    """Validate the metric against the schema and cache its statistics."""
    feats = ds.feature_columns
    if not feats:
        raise MetricError("dataset has no feature columns")
    kinds = tuple(
        "num" if c.kind is ColumnKind.NUMERIC else "nom" for c in feats
    )
    names = tuple(c.name for c in feats)

    if metric.name in PLAIN_METRICS and "nom" in kinds:
        if metric.name == "euclidean":
            raise MetricError(
                "the default distance (Euclidean) is not possible to use "
                "with nominal features"
            )
        raise MetricError(
            f"the {metric.name} distance is not possible to use with "
            "nominal features"
        )
    if metric.name == "overlap" and "num" in kinds:
        raise MetricError(
            "the overlap distance is only defined for nominal features"
        )
    if metric.name == "hvdm" and ds.target_column.kind is not ColumnKind.NOMINAL:
        raise MetricError("HVDM requires a nominal target column")

    ctx = MetricContext(metric, kinds, names, ds.n_rows)
    for j, col in enumerate(feats):
        if kinds[j] == "num":
            ctx.num_values[j] = col.values
        else:
            codes, values = nominal_codes(col.values)
            ctx.nom_codes[j] = codes
            ctx.nom_encode[j] = {v: i for i, v in enumerate(values)}

    if metric.name == "heom":
        for j, vals in ctx.num_values.items():
            present = vals[~np.isnan(vals)]
            ctx.ranges[j] = (
                float(present.max() - present.min()) if len(present) else 0.0
            )
    elif metric.name == "hvdm":
        for j, vals in ctx.num_values.items():
            ctx.four_sd[j] = 4.0 * sample_sd(vals)
        y, ctx.classes = nominal_codes(ds.target_column.values)
        if (y < 0).any():
            raise MetricError("missing value in the target column")
        for j, codes in ctx.nom_codes.items():
            n_vals = len(ctx.nom_encode[j])
            counts = np.zeros((n_vals, len(ctx.classes)), dtype=np.float64)
            mask = codes >= 0
            np.add.at(counts, (codes[mask], y[mask]), 1.0)
            totals = counts.sum(axis=1, keepdims=True)
            probs = np.divide(
                counts, totals, out=np.zeros_like(counts), where=totals > 0
            )
            # q=2 value difference: euclidean norm between the two
            # conditional probability vectors, squared.  Row n_vals holds
            # values unseen at build time (all-zero frequencies); the
            # last row and column, which code -1 indexes, missing cells.
            probs = np.vstack([probs, np.zeros((1, len(ctx.classes)))])
            diffs = probs[:, None, :] - probs[None, :, :]
            pair = np.sqrt((diffs**2).sum(axis=2))
            sq = np.ones((n_vals + 2, n_vals + 2))
            sq[:-1, :-1] = pair * pair
            ctx.vdm_sq[j] = sq
    return ctx


def _is_missing(v) -> bool:
    if v is None:
        return True
    return isinstance(v, float) and math.isnan(v)


def encode_rows(ctx: MetricContext, rows) -> list[np.ndarray]:
    """Kernel operands of the given rows, one array per feature.

    A numeric feature gives its values (NaN missing), a nominal one its
    codes (-1 missing).
    """
    return [
        ctx.num_values[j][rows] if kind == "num" else ctx.nom_codes[j][rows]
        for j, kind in enumerate(ctx.kinds)
    ]


def _nominal_code(metric: Metric, ctx: MetricContext, j: int, v, first) -> int:
    # a value unseen at build time gets a code past the table: the same
    # code as an equal unseen ``first``, a different one otherwise.
    # Under HVDM every unseen value takes the all-zero frequency row.
    if _is_missing(v):
        return -1
    encode = ctx.nom_encode[j]
    if v in encode:
        return encode[v]
    return len(encode) + int(metric.name != "hvdm" and v != first)


def distance(metric: Metric, ctx: MetricContext, row_a, row_b) -> float:
    """Distance between two feature-cell sequences.

    Rows need not belong to the context's dataset.  A nominal value
    never seen at context build time has all-zero conditional
    frequencies under HVDM, and equals only itself under HEOM and
    overlap.
    """
    if len(row_a) != len(ctx.kinds) or len(row_b) != len(ctx.kinds):
        raise MetricError("row width does not match the context")
    a, b = [], []
    for j, kind in enumerate(ctx.kinds):
        x, y = row_a[j], row_b[j]
        if kind == "num":
            a.append(np.array([x], dtype=np.float64))
            b.append(np.array([y], dtype=np.float64))
        else:
            a.append(np.array([_nominal_code(metric, ctx, j, x, x)]))
            b.append(np.array([_nominal_code(metric, ctx, j, y, x)]))
    return float(paired_distances(metric, ctx, a, b)[0])


def _override(term: np.ndarray, miss_a: np.ndarray, miss_b: np.ndarray,
              value) -> None:
    """Set ``term`` to ``value`` wherever either operand's cell is missing."""
    for miss in (miss_a, miss_b):
        if miss.any():
            np.copyto(term, value, where=miss)


def _kernel(metric: Metric, ctx: MetricContext, a: list, b: list,
            shape: tuple[int, ...]) -> np.ndarray:
    """Distances between the operands ``a`` and ``b``, broadcast to shape.

    ``a[j]`` and ``b[j]`` hold feature j as ``encode_rows`` gives it:
    columns (n, 1) against rows (1, m) for a block, or two 1-D arrays
    for the paired form.
    """
    name = metric.name
    acc = np.empty(shape)
    tmp = np.empty(shape) if len(ctx.kinds) > 1 else None
    hits = None
    for j, kind in enumerate(ctx.kinds):
        x, y = a[j], b[j]
        # the first term goes straight into acc, the rest through tmp
        term = acc if j == 0 else tmp
        if kind == "nom" and name != "hvdm":
            # a 0/1 mismatch is its own square
            if hits is None:
                hits = np.empty(shape, dtype=bool)
            np.not_equal(x, y, out=hits)
            if name == "heom":
                _override(hits, x < 0, y < 0, True)
            if j:
                np.add(acc, hits, out=acc)
            else:
                np.copyto(acc, hits)
            continue
        if kind == "nom":
            sq = ctx.vdm_sq[j]
            if x.ndim == 2:
                # the query rows' table rows, then the candidates'
                # columns; "wrap" sends code -1 to the padded last
                # column and lets take write into term unbuffered
                sq.take(x[:, 0], axis=0).take(y[0], axis=1, out=term, mode="wrap")
            else:
                np.copyto(term, sq[x, y])
        else:
            np.subtract(x, y, out=term)
            if name not in SQUARED:  # a square needs no sign
                np.abs(term, out=term)
            if name in ("heom", "hvdm"):
                scale = ctx.ranges[j] if name == "heom" else ctx.four_sd[j]
                if scale > 0:
                    np.divide(term, scale, out=term)
                else:
                    term.fill(0.0)
                _override(term, np.isnan(x), np.isnan(y), 1.0)
            if name in SQUARED:
                np.multiply(term, term, out=term)
            elif name == "minkowsky":
                term **= metric.p
            elif name == "canberra":  # 0/0 counts as 0, NaN propagates
                denom = np.abs(x) + np.abs(y)
                with np.errstate(invalid="ignore"):
                    np.divide(term, denom, out=term, where=denom > 0)
        if not j:
            continue
        if name == "chebyshev":
            np.maximum(acc, term, out=acc)
        else:
            np.add(acc, term, out=acc)
    if name in SQUARED:
        np.sqrt(acc, out=acc)
    elif name == "minkowsky":
        acc **= 1.0 / metric.p
    return acc


def _block(metric: Metric, ctx: MetricContext, rows_a: np.ndarray,
           rows_b: np.ndarray) -> np.ndarray:
    """Distance matrix between two index arrays."""
    a = [v[:, None] for v in encode_rows(ctx, rows_a)]
    b = [v[None, :] for v in encode_rows(ctx, rows_b)]
    return _kernel(metric, ctx, a, b, (len(rows_a), len(rows_b)))


def paired_distances(metric: Metric, ctx: MetricContext, a: list,
                     b: list) -> np.ndarray:
    """Distance between row i of ``a`` and row i of ``b``, for every i.

    ``a`` and ``b`` are operands as ``encode_rows`` gives them, of
    equal length; rows built outside the dataset reuse its codes.
    """
    return _kernel(metric, ctx, a, b, (len(a[0]),))


def pairwise(metric: Metric, ctx: MetricContext, rows=None) -> np.ndarray:
    """Full distance matrix over the given row indices (all by default)."""
    idx = np.arange(ctx.n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    return _block(metric, ctx, idx, idx)


def _row_chunks(metric: Metric, ctx: MetricContext, rows: np.ndarray,
                cols: np.ndarray | None = None):
    """Yield (start, block): distances of row chunks against all of cols.

    With ``cols`` omitted, rows are measured against themselves and
    each row's distance to itself is set to infinity.
    """
    self_pairs = cols is None
    if self_pairs:
        cols = rows
    step = max(1, BLOCK_PAIRS // max(len(cols), 1))
    for start in range(0, len(rows), step):
        block = _block(metric, ctx, rows[start:start + step], cols)
        if self_pairs:
            i = np.arange(len(block))
            block[i, start + i] = np.inf
        yield start, block


def nearest(metric: Metric, ctx: MetricContext, rows=None,
            cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Distance to, and position in ``cols`` of, each row's nearest col.

    ``rows`` defaults to all rows.  With ``cols`` omitted, the
    candidates are ``rows`` themselves minus the row itself.  The rule
    is ``argmin``'s: the lowest distance wins, ties go to the earlier
    position, and a NaN distance beats every number (the first NaN
    wins).
    """
    rows = np.arange(ctx.n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    if cols is not None:
        cols = np.asarray(cols, dtype=np.intp)
    dist = np.empty(len(rows))
    pos = np.empty(len(rows), dtype=np.intp)
    for start, block in _row_chunks(metric, ctx, rows, cols):
        best = block.argmin(axis=1)
        stop = start + len(block)
        pos[start:stop] = best
        dist[start:stop] = block[np.arange(len(block)), best]
    return dist, pos


def knn_table(metric: Metric, ctx: MetricContext, k: int,
              rows=None) -> np.ndarray:
    """Positions in ``rows`` (all rows by default) of each row's k nearest.

    Row i of the result equals the first k entries of a stable argsort
    of row i of ``pairwise(metric, ctx, rows)`` with its diagonal set to
    infinity: ascending distance, ties to the earlier position, NaN
    after every number.  Requires 1 <= k < len(rows).
    """
    rows = np.arange(ctx.n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    if not 1 <= k < len(rows):
        raise MetricError("k must satisfy 1 <= k < number of rows")
    table = np.empty((len(rows), k), dtype=np.intp)
    first_k = np.arange(k)
    for start, block in _row_chunks(metric, ctx, rows):
        # every candidate at or below the k-th distance survives, so a
        # tie across the cut still goes to the earlier position; a NaN
        # k-th distance means fewer than k numbers, and the whole row
        # goes to the sort
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        keep = block <= kth[:, None]
        keep[np.isnan(kth)] = True
        r, c = np.nonzero(keep)
        order = np.lexsort((c, block[r, c], r))
        counts = keep.sum(axis=1)
        offsets = np.cumsum(counts) - counts
        table[start:start + len(block)] = c[order[offsets[:, None] + first_k]]
    return table


def knn(
    metric: Metric,
    ctx: MetricContext,
    ds: Dataset,
    query: int,
    k: int,
    candidates=None,
) -> list[int]:
    """Indices of the k nearest candidates, ascending by distance.

    Ties break toward the lower row index.  Fewer than k candidates
    returns them all.
    """
    if not 0 <= query < ctx.n_rows:
        raise MetricError(f"query row {query} out of range")
    if k < 1:
        raise MetricError("k must be at least 1")
    if candidates is None:
        cand = np.concatenate(
            [np.arange(query), np.arange(query + 1, ctx.n_rows)]
        )
    else:
        cand = np.asarray(list(candidates), dtype=np.intp)
        if len(cand) and (cand.min() < 0 or cand.max() >= ctx.n_rows):
            raise MetricError("candidate row out of range")
    if len(cand) == 0:
        return []
    dists = _block(metric, ctx, np.array([query], dtype=np.intp), cand)[0]
    order = np.lexsort((cand, dists))
    return [int(cand[i]) for i in order[: min(k, len(cand))]]
