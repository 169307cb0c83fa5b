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
full n x m distance matrix.  It walks the query rows sorted by one
numeric feature and measures each chunk of consecutive sorted rows
only against the slice of candidates, sorted the same way, that this
feature cannot rule out (projection pruning after Friedman, Baskett
and Shustek 1975):

- The chunk is first measured against a window of sorted candidates
  around it.  Each row's k-th distance in the window bounds its k-th
  distance overall.
- A candidate whose term in the sort feature alone exceeds that bound
  cannot be among the row's k nearest.  Every term is >= 0, and IEEE
  subtract, divide, square, add, ``maximum``, ``sqrt`` and the
  minkowsky power are monotone, so a distance is never below the same
  operations applied to one of its terms.  The term grows with the gap
  in the feature, so the candidates left form one slice per row.
- A radius in feature units (the bound times the feature's range, 4 sd
  or 1) guesses the slice with ``searchsorted``.  The cut is then
  decided in term space, with the kernel's own operations, on the first
  candidate outside it on each side: only a term strictly ``>`` the
  bound ends the slice there, else the slice runs to that end.  So the
  slice may be wider than needed but never narrower, also where
  ``gap / scale`` underflows to 0 while the gap is not 0.
- When the chunk's slice lies inside the window, the window's block
  already holds the answer; otherwise the slice is measured.  A block's
  candidates are in position order, so the reductions' "earlier column
  wins" is "lower position wins".

The sort feature is the numeric one whose values spread widest in units
of its scale.  On wider data a single feature bounds the distance less
tightly than on ``gen imbc``'s one numeric feature, and the walk prunes
less.  The walk is left out, and every candidate measured in position
order, where the bound would not be exact: under canberra; under
overlap, or with no numeric feature of finite positive scale; wherever
a distance could be NaN (a plain metric with a missing cell, an
infinite cell, a scale that overflowed); and for rows missing the sort
feature.  Candidates missing it join every block.  No block holds more
than ``BLOCK_PAIRS`` distances (one row when a single row is wider),
and each is reduced at once to each row's nearest candidate or k
nearest candidates, so peak memory is O(BLOCK_PAIRS + n*k) rather than
O(n*m).  On equal distance the candidate listed first wins.

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
from .tabular import ColumnKind, Dataset

__all__ = [
    "Metric",
    "MetricContext",
    "MetricError",
    "build_context",
    "distance",
    "encode_rows",
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
            ctx.nom_codes[j] = col.values
            ctx.nom_encode[j] = {v: i for i, v in enumerate(col.categories)}

    if metric.name == "heom":
        for j, vals in ctx.num_values.items():
            present = vals[~np.isnan(vals)]
            ctx.ranges[j] = (
                float(present.max() - present.min()) if len(present) else 0.0
            )
    elif metric.name == "hvdm":
        for j, vals in ctx.num_values.items():
            ctx.four_sd[j] = 4.0 * sample_sd(vals)
        y, ctx.classes = ds.target_column.values, ds.target_column.categories
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


def _numeric_term(metric: Metric, ctx: MetricContext, j: int, x: np.ndarray,
                  y: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Numeric feature j's term between operands ``x`` and ``y``, in ``term``."""
    name = metric.name
    np.subtract(x, y, out=term)
    if name not in SQUARED:  # a square needs no sign
        np.abs(term, out=term)
    if name in ("heom", "hvdm"):
        scale = _scale(metric, ctx, j)
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
    return term


def _finish(metric: Metric, acc: np.ndarray) -> np.ndarray:
    """Turn summed terms into distances, in place."""
    if metric.name in SQUARED:
        np.sqrt(acc, out=acc)
    elif metric.name == "minkowsky":
        acc **= 1.0 / metric.p
    return acc


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
            _numeric_term(metric, ctx, j, x, y, term)
        if not j:
            continue
        if name == "chebyshev":
            np.maximum(acc, term, out=acc)
        else:
            np.add(acc, term, out=acc)
    return _finish(metric, acc)


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


def _scale(metric: Metric, ctx: MetricContext, j: int) -> float:
    """What numeric feature j's difference is divided by: 1 if nothing."""
    if metric.name == "heom":
        return ctx.ranges[j]
    return ctx.four_sd[j] if metric.name == "hvdm" else 1.0


def _sort_feature(metric: Metric, ctx: MetricContext, rows: np.ndarray,
                  cols: np.ndarray) -> int | None:
    """The numeric feature the engine prunes by, or None.

    None where pruning would not be exact: under canberra, with no
    numeric feature of finite positive scale, and wherever a distance
    could be NaN (a plain metric with a missing cell, an infinite cell,
    a HEOM or HVDM scale that overflowed).  Otherwise the feature whose
    values over rows and cols spread widest in units of its scale.
    """
    if metric.name == "canberra":
        return None
    best, widest = None, 0.0
    for j, values in ctx.num_values.items():
        vals = values[np.concatenate([rows, cols])]
        scale = _scale(metric, ctx, j)
        if metric.name in PLAIN_METRICS:
            if not np.isfinite(vals).all():
                return None
        elif np.isinf(vals).any() or not scale < np.inf:
            return None
        vals = vals[~np.isnan(vals)]
        if scale > 0 and len(vals) and (vals.max() - vals.min()) / scale > widest:
            best, widest = j, (vals.max() - vals.min()) / scale
    return best


def _row_chunks(metric: Metric, ctx: MetricContext, rows: np.ndarray,
                cols: np.ndarray | None = None, k: int = 1):
    """Yield (q, c, block): the distances of the rows at positions q
    against the cols at positions c, c ascending.

    Every row is in exactly one q, and its c holds every col at or
    below its k-th distance.  With ``cols`` omitted, rows are measured
    against themselves and each row's distance to itself is infinite.
    """
    self_pairs = cols is None
    if self_pairs:
        cols = rows

    def measure(q, c):
        block = _block(metric, ctx, rows[q], cols[c])
        if self_pairs:
            block[np.arange(len(q)), np.searchsorted(c, q)] = np.inf
        return block

    unsorted = np.arange(len(rows))
    j = _sort_feature(metric, ctx, rows, cols)
    if j is not None:
        xc = ctx.num_values[j][cols]
        c_order = np.argsort(xc, kind="stable")  # missing last, by position
        n_c = len(cols) - int(np.isnan(xc).sum())
        if n_c >= k + self_pairs:
            xq = xc if self_pairs else ctx.num_values[j][rows]
            q_order = c_order if self_pairs else np.argsort(xq, kind="stable")
            n_q = len(rows) - int(np.isnan(xq).sum())
            unsorted = q_order[n_q:]
            yield from _sorted_chunks(
                metric, ctx, j, k, measure, self_pairs,
                xq, q_order[:n_q], xc[c_order[:n_c]], c_order[:n_c], c_order[n_c:],
            )
    step = max(1, BLOCK_PAIRS // max(len(cols), 1))
    every = np.arange(len(cols))
    for start in range(0, len(unsorted), step):
        q = unsorted[start:start + step]
        yield q, every, measure(q, every)


def _sorted_chunks(metric, ctx, j, k, measure, self_pairs, xq, qs, xs, cs, blank):
    """The sorted walk of ``_row_chunks``.

    ``qs`` and ``cs`` are the positions of the rows and of the cols
    that hold a value of feature j, ascending by it; ``xq`` are the
    rows' values and ``xs`` the sorted cols' values.  ``blank`` are the
    cols missing feature j, which join every block.
    """
    n = len(cs)
    scale = _scale(metric, ctx, j)
    # a chunk is up to isqrt(BLOCK_PAIRS) // 8 rows, 64 by default
    chunk = max(1, math.isqrt(BLOCK_PAIRS) // 8)
    margin = k + 1

    def term_bound(v, x):
        return _finish(metric, _numeric_term(metric, ctx, j, v, x, np.empty(len(v))))

    def columns(lo, hi):
        return np.sort(np.concatenate([cs[lo:hi], blank]))

    start = 0
    while start < len(qs):
        stop = min(start + chunk, len(qs))
        while True:
            # the chunk's own span of sorted cols, widened by the margin
            if self_pairs:
                a, b = start, stop
            else:
                a = np.searchsorted(xs, xq[qs[start]], "left")
                b = np.searchsorted(xs, xq[qs[stop - 1]], "right")
            w_lo, w_hi = max(0, a - margin), min(n, b + margin)
            width = w_hi - w_lo + len(blank)
            if (stop - start) * width <= BLOCK_PAIRS or stop - start == 1:
                break
            stop = start + max(1, BLOCK_PAIRS // width)
        q = qs[start:stop]
        start = stop
        c = columns(w_lo, w_hi)
        block = measure(q, c)
        bound = np.partition(block, k - 1, axis=1)[:, k - 1].copy()
        # a radius in feature units guesses each row's slice; the cut is
        # then checked in term space on the first col outside it on each
        # side, and a side that fails (a rounding-short radius, or a
        # term that underflows to 0) runs to its end
        v = xq[q]
        reach = bound * (scale * (1.0 + 2.0**-20))
        lo = np.searchsorted(xs, v - reach, "left")
        hi = np.searchsorted(xs, v + reach, "right")
        lo[~(term_bound(v, xs[np.maximum(lo - 1, 0)]) > bound)] = 0
        hi[~(term_bound(v, xs[np.minimum(hi, n - 1)]) > bound)] = n
        s_lo, s_hi = lo.min(), hi.max()
        # the next chunk's margin: twice what this chunk's slice needed
        margin = max(k + 1, 2 * (a - s_lo), 2 * (s_hi - b))
        if w_lo <= s_lo and s_hi <= w_hi:
            yield q, c, block
            continue
        del block  # freed before the slice is measured
        step = max(1, BLOCK_PAIRS // (s_hi - s_lo + len(blank)))
        for i in range(0, len(q), step):
            c = columns(lo[i:i + step].min(), hi[i:i + step].max())
            yield q[i:i + step], c, measure(q[i:i + step], c)


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
    for q, c, block in _row_chunks(metric, ctx, rows, cols):
        best = block.argmin(axis=1)
        pos[q] = c[best]
        dist[q] = block[np.arange(len(q)), best]
    return dist, pos


def _k_nearest(block: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest entries, as a stable argsort
    orders them: ascending, ties to the earlier column, NaN last."""
    part = np.argpartition(block, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(block, part, axis=1)
    out = np.take_along_axis(part, np.lexsort((part, dist), axis=1), axis=1)
    # a row whose k-th distance ties one outside the partitioned k, or
    # is NaN (fewer than k numbers), sorts every candidate at or below
    # it, so a tie across the cut still goes to the earlier column
    kth = dist[:, k - 1]
    slow = np.count_nonzero(block <= kth[:, None], axis=1) != k
    if slow.any():
        sub, kth = block[slow], kth[slow]
        keep = sub <= kth[:, None]
        keep[np.isnan(kth)] = True
        r, c = np.nonzero(keep)
        order = np.lexsort((c, sub[r, c], r))
        counts = keep.sum(axis=1)
        offsets = np.cumsum(counts) - counts
        out[slow] = c[order[offsets[:, None] + np.arange(k)]]
    return out


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
    for q, c, block in _row_chunks(metric, ctx, rows, k=k):
        table[q] = c[_k_nearest(block, k)]
    return table

