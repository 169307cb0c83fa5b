"""Distance metrics over mixed-type rows, and a blocked neighbour engine.

Eight metrics are supported.  The plain numeric family (euclidean,
manhattan, minkowsky, chebyshev, canberra) requires all-numeric
features with no missing cell and applies no normalization.  Overlap
requires all-nominal features.  HEOM and HVDM accept mixed features and
missing cells (Wilson and Martinez 1997); HVDM additionally needs a
nominal target because its nominal terms are class-conditional.  Under
every metric, a numeric feature's present cells must span a finite
range: an infinite cell, or a span that overflows, is refused, and so
is an HVDM 4 sd that overflows.

A MetricContext belongs to one metric, which every function taking it
measures by.  It holds one operand array per feature, the column's
values for a numeric feature and its codes for a nominal one, and the
statistics the metric needs, so that row distances are pure lookups.
Each numeric feature has one scale that its differences are divided
by: its range under HEOM, 4 sd under HVDM, and 1 under every other
metric.  Under HVDM each nominal feature has a value-difference table.
``build_context`` is where a table is refused, with a ``MetricError``
naming the column, so no distance is ever NaN.  A distance can still
be infinite where a term overflows; it orders like any number.

One kernel computes every distance and every bound.  Its operands are
the context's operand arrays taken at the rows measured
(``encode_rows``).  It has two forms: a block, query rows against
candidate columns, which ``pairwise`` and the neighbour engine use;
and a paired form (``paired_distances``), row i against row i, which
SMOTER uses for its synthetic rows.  Per feature, the kernel computes its term in place in
one preallocated buffer and adds it to a second, and the first term
goes straight into the result.  A missing cell makes a HEOM
or HVDM term 1.  That override is applied only where a chunk's row or
column operands hold a missing cell, and it is read from the operands'
NaN values and -1 codes.
HEOM and overlap add nominal mismatches as booleans, since a 0/1 term
is its own square.  HVDM reads nominal terms from the squared value-difference
table, which is padded with a row and column of 1.0 that code -1
(missing) indexes.  A block gathers a term with two 1-D ``take``s, one
for the query rows' table rows and one for the candidate columns.

The neighbour engine (``knn_table``) never holds the full n x m
distance matrix.  It splits the candidates (cols) into k-d
leaves, level by level at the median of the numeric feature that
spreads widest over a node in units of its scale, and keeps each leaf's
per-feature box (Friedman, Bentley and Finkel 1977).  Query rows go in
chunks: subtrees of the same tree, or leaves of a tree over the rows
when they are not the candidates.  A chunk is measured first against
the leaves its own box touches and the nearest few others; then each
row's k-th distance so far rules out every leaf whose bound from the
row lies strictly above it, and the leaves left are measured, nearest
first, for the rows that need them, tightening the k-th distances as
they go.  Only the columns each block adds are measured, and each
block is reduced once, to each row's k nearest; the lists are merged
by distance, then position.

The bound is exact:

- It is the kernel's distance from the per-feature gaps between a
  row's cell and a leaf's box, ``max(lo - x, x - hi, 0)``, to 0.  A gap
  never exceeds the difference to any cell in the box, since IEEE
  subtraction is monotone, and so are the kernel's operations.  It is
  shrunk by a factor of 1 - 2^-20 against a last-bit difference in a
  power.
- Nominal features add nothing, and a feature takes no bound from a
  row missing it or from a leaf with a missing cell in it: under HVDM
  a gap over 4 sd would exceed the term of 1 a missing cell gets.
- Only a bound strictly ``>`` the k-th distance rules a leaf out, so a
  candidate tying it is measured and the lower position wins.

The walk is left out, and every candidate measured in position order,
where the bound would not be exact: under canberra, and under overlap
or with no numeric feature that spreads on a positive scale.  No block
holds more than ``BLOCK_PAIRS`` distances (one row when a single row
is wider), so peak memory is
O(BLOCK_PAIRS + n*k) plus bounds of one chunk against the leaves,
rather than O(n*m).

Every neighbour method asks ``knn_table``, Tomek links, OSS and CNN
with k = 1, and so keeps one tie rule: the lower distance wins, and on
equal distance the lower position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import sample_sd
from .tabular import ColumnKind, Dataset, present_target

__all__ = [
    "Metric",
    "MetricContext",
    "MetricError",
    "build_context",
    "encode_rows",
    "knn_table",
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
# the k-d walk's candidate leaves hold at most LEAF_ROWS cols; a query
# chunk spans about CHUNK_ROWS cols, and its first block adds the
# nearest leaves that hold CHUNK_ROWS more per numeric feature bounded
LEAF_ROWS = 16
CHUNK_ROWS = 64


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
    """One metric's operands and statistics over one dataset.

    ``metric`` is the metric of every distance over the context.
    ``operands[j]`` is feature j's column: values (NaN missing) or codes
    (-1 missing).  ``scale`` maps each numeric feature's position to what
    its differences are divided by, and ``vdm_sq`` each nominal one's to
    its squared HVDM value-difference table.
    """

    metric: Metric
    kinds: tuple[str, ...]              # 'num' | 'nom' per feature column
    n_rows: int
    operands: list[np.ndarray] = field(default_factory=list)
    scale: dict[int, float] = field(default_factory=dict)
    vdm_sq: dict[int, np.ndarray] = field(default_factory=dict)


def build_context(metric: Metric, ds: Dataset) -> MetricContext:
    """Validate the metric against the schema and cache its statistics."""
    feats = ds.feature_columns
    if not feats:
        raise MetricError("dataset has no feature columns")
    kinds = tuple(
        "num" if c.kind is ColumnKind.NUMERIC else "nom" for c in feats
    )

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

    ctx = MetricContext(metric, kinds, ds.n_rows, [c.values for c in feats])
    for j, col in enumerate(feats):
        vals = col.values
        if kinds[j] == "nom":
            continue
        missing = np.isnan(vals)
        if metric.name in PLAIN_METRICS and missing.any():
            raise MetricError(
                f"column {col.name!r} has a missing cell, where the "
                f"{metric.name} distance is not defined; --dist heom "
                "handles missing cells"
            )
        present = vals[~missing]
        # a span that is not finite (an infinite cell, or an overflow)
        # would make NaN terms; a 4 sd that is not finite (squares that
        # overflow) would make every term of the column 0, or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            span = float(present.max() - present.min()) if len(present) else 0.0
            scale = 4.0 * sample_sd(present) if metric.name == "hvdm" else 1.0
        check_spread(col.name, span, scale)
        ctx.scale[j] = span if metric.name == "heom" else scale

    if metric.name == "hvdm":
        y, classes = present_target(ds.target_column), ds.target_column.categories
        for j, codes in enumerate(ctx.operands):
            if kinds[j] != "nom":
                continue
            n_vals = len(feats[j].categories)
            counts = np.zeros((n_vals, len(classes)), dtype=np.float64)
            mask = codes >= 0
            np.add.at(counts, (codes[mask], y[mask]), 1.0)
            totals = counts.sum(axis=1, keepdims=True)
            probs = np.divide(
                counts, totals, out=np.zeros_like(counts), where=totals > 0
            )
            # q=2 value difference: euclidean norm between the two
            # conditional probability vectors, squared.  The last row
            # and column, which code -1 indexes, hold missing cells.
            diffs = probs[:, None, :] - probs[None, :, :]
            pair = np.sqrt((diffs**2).sum(axis=2))
            sq = np.ones((n_vals + 1, n_vals + 1))
            sq[:-1, :-1] = pair * pair
            ctx.vdm_sq[j] = sq
    return ctx


def check_spread(name: str, *spreads: float) -> None:
    """Refuse column ``name`` unless each of its spreads is finite."""
    if not all(map(math.isfinite, spreads)):
        raise MetricError(f"column {name!r} has an infinite cell, or cells so "
                          "far apart that their spread overflows")


def encode_rows(ctx: MetricContext, rows) -> list[np.ndarray]:
    """Kernel operands of the given rows, one array per feature."""
    return [v[rows] for v in ctx.operands]


def _override(term: np.ndarray, miss_a: np.ndarray, miss_b: np.ndarray,
              value) -> None:
    """Set ``term`` to ``value`` wherever either operand's cell is missing."""
    for miss in (miss_a, miss_b):
        if miss.any():
            np.copyto(term, value, where=miss)


def _numeric_term(ctx: MetricContext, j: int, x: np.ndarray, y: np.ndarray,
                  term: np.ndarray) -> np.ndarray:
    """Numeric feature j's term between operands ``x`` and ``y``, in ``term``."""
    name = ctx.metric.name
    np.subtract(x, y, out=term)
    if name not in SQUARED:  # a square needs no sign
        np.abs(term, out=term)
    if name in ("heom", "hvdm"):
        scale = ctx.scale[j]
        if scale > 0:
            np.divide(term, scale, out=term)
        else:
            term.fill(0.0)
        _override(term, np.isnan(x), np.isnan(y), 1.0)
    if name in SQUARED:
        np.multiply(term, term, out=term)
    elif name == "minkowsky":
        term **= ctx.metric.p
    elif name == "canberra":  # 0/0 counts as 0
        denom = np.abs(x) + np.abs(y)
        np.divide(term, denom, out=term, where=denom > 0)
    return term


@np.errstate(over="ignore")
def _kernel(ctx: MetricContext, a: list, b: list) -> np.ndarray:
    """Distances between the operands ``a`` and ``b``, broadcast together.

    ``a[j]`` and ``b[j]`` hold feature j: as ``encode_rows`` gives it,
    (n, 1) against (1, m) for a block or 1-D for the paired form, or a
    bound's gaps against 0.  A term that overflows is infinite, and so
    is its distance: it orders like any number.
    """
    name = ctx.metric.name
    shape = np.broadcast(a[0], b[0]).shape  # every feature's operands share it
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
            _numeric_term(ctx, j, x, y, term)
        if not j:
            continue
        if name == "chebyshev":
            np.maximum(acc, term, out=acc)
        else:
            np.add(acc, term, out=acc)
    if name in SQUARED:
        np.sqrt(acc, out=acc)
    elif name == "minkowsky":
        acc **= 1.0 / ctx.metric.p
    return acc


def _block(ctx: MetricContext, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Distance matrix between two index arrays."""
    a = [v[:, None] for v in encode_rows(ctx, rows_a)]
    b = [v[None, :] for v in encode_rows(ctx, rows_b)]
    return _kernel(ctx, a, b)


def paired_distances(ctx: MetricContext, a: list, b: list) -> np.ndarray:
    """Distance between row i of ``a`` and row i of ``b``, for every i.

    ``a`` and ``b`` are operands as ``encode_rows`` gives them, of
    equal length; rows built outside the dataset reuse its codes.
    """
    return _kernel(ctx, a, b)


def pairwise(ctx: MetricContext, rows=None) -> np.ndarray:
    """Full distance matrix over the given row indices (all by default)."""
    idx = np.arange(ctx.n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    return _block(ctx, idx, idx)


def _bounded_features(ctx: MetricContext, rows: np.ndarray,
                      cols: np.ndarray) -> list[int] | None:
    """The numeric features the k-d walk bounds distances by, or None.

    None where pruning would not be exact: under canberra, and where no
    numeric feature spreads over rows and cols on a positive scale
    (``build_context`` refuses a scale that is not finite).
    """
    if ctx.metric.name == "canberra":
        return None
    both = np.concatenate([rows, cols])
    feats = []
    for j, scale in ctx.scale.items():
        vals = ctx.operands[j][both]
        vals = vals[~np.isnan(vals)]
        if scale > 0 and len(vals) and vals.max() > vals.min():
            feats.append(j)
    return feats or None


def _kd_leaves(ctx: MetricContext, idx: np.ndarray, size: int):
    """Split ``idx`` into k-d leaves of at most ``size`` rows, or two
    where a leaf of one would leave another empty.

    ``ctx`` holds the bounded features alone, as ``_neighbours`` builds
    it.  Level by level, every node splits at the median of the feature
    whose values spread widest over it in units of its scale.  Returns
    the positions in ``idx`` leaf by leaf, the leaves' bounds into that
    order, and their boxes, (features, leaves) arrays of per-feature
    minima and maxima; a leaf missing a cell of a feature has a NaN box
    in it.
    """
    m = len(idx)
    depth = 0
    while -(-m // (1 << depth)) > size and 2 << depth <= m:
        depth += 1
    vals = np.array(encode_rows(ctx, idx))
    scale = np.array([*ctx.scale.values()])[:, None]
    # each cell's place in its feature's order, missing cells last
    rank = np.empty(vals.size, dtype=np.intp)
    rank[np.argsort(vals, axis=1) + np.arange(0, vals.size, m)[:, None]] = np.arange(m)
    perm = np.arange(m)
    by = np.array([-1])  # the feature each node is sorted by
    for level in range(depth):
        starts = np.arange(1 << level) * m >> level
        v = vals[:, perm]
        with np.errstate(over="ignore"):
            spread = (np.fmax.reduceat(v, starts, axis=1)
                      - np.fmin.reduceat(v, starts, axis=1)) / scale
        widest = np.where(spread >= 0, spread, -1.0).argmax(axis=0)
        if (widest != by).any():
            node = np.repeat(np.arange(1 << level), np.diff(starts, append=m))
            perm = perm[np.argsort(node * m + rank[widest[node] * m + perm])]
        by = np.repeat(widest, 2)  # a sorted node's halves stay sorted
    bounds = np.arange((1 << depth) + 1) * m >> depth
    v = vals[:, perm]
    lo = np.minimum.reduceat(v, bounds[:-1], axis=1)
    hi = np.maximum.reduceat(v, bounds[:-1], axis=1)
    return perm, bounds, lo, hi


def _box_bound(ctx: MetricContext, lo, hi, x_lo, x_hi) -> np.ndarray:
    """A lower bound on the distance between a row in the box [x_lo,
    x_hi] and a row in the box [lo, hi].

    ``ctx`` holds the bounded features alone, and the boxes are
    (features, ...) arrays over them that broadcast together.  The
    bound is the kernel's distance from the per-feature gaps between
    the boxes, ``max(lo - x_hi, x_lo - hi, 0)``, to 0: a difference of
    cells never lies below its gap, and the kernel's operations are
    monotone.  Nominal features add nothing, and a NaN box (a missing
    cell) leaves a gap of 0.
    """
    gap = np.subtract(lo, x_hi)
    np.fmax(gap, x_lo - hi, out=gap)
    np.fmax(gap, 0.0, out=gap)
    # shrunk by a hair against a last-bit difference in a power between
    # the bound and the kernel
    bound = _kernel(ctx, list(gap), [0.0] * len(gap))
    bound *= 1.0 - 2.0**-20
    return bound


def _neighbours(ctx: MetricContext, rows: np.ndarray, cols: np.ndarray | None, k: int):
    """Positions in cols of each row's k nearest cols, n x k, ascending,
    ties to the lower position; each row has at least k candidates.

    With ``cols`` omitted, rows are measured against themselves and each
    row's distance to itself is infinite.
    """
    self_pairs = cols is None
    if self_pairs:
        cols = rows

    def measure(q, c):
        """The k nearest of the rows at positions q among the cols at
        ascending positions c, in blocks within the budget."""
        d = np.empty((len(q), min(k, len(c))))
        p = np.empty(d.shape, dtype=np.intp)
        step = max(1, BLOCK_PAIRS // len(c))
        for i in range(0, len(q), step):
            qi = q[i:i + step]
            block = _block(ctx, rows[qi], cols[c])
            if self_pairs:
                at = np.minimum(np.searchsorted(c, qi), len(c) - 1)
                hit = c[at] == qi
                block[hit, at[hit]] = np.inf
            d[i:i + step], best = _k_nearest(block, d.shape[1])
            p[i:i + step] = c[best]
        return d, p

    feats = _bounded_features(ctx, rows, cols)
    if feats is None:
        return measure(np.arange(len(rows)), np.arange(len(cols)))[1]

    # the bounded features alone, which the k-d split and the bound read
    bctx = MetricContext(ctx.metric, ("num",) * len(feats), ctx.n_rows,
                         [ctx.operands[j] for j in feats],
                         {f: ctx.scale[j] for f, j in enumerate(feats)})
    perm, bounds, lo, hi = _kd_leaves(bctx, cols, LEAF_ROWS)
    sizes = np.diff(bounds)
    # query chunks: subtrees of the cols' tree, or for other rows the
    # leaves of their own tree, each spanning about CHUNK_ROWS cols
    if self_pairs:
        q_perm = perm
        q_bounds = np.append(bounds[:-1:max(1, CHUNK_ROWS // LEAF_ROWS)], len(cols))
    else:
        size = max(CHUNK_ROWS, CHUNK_ROWS * len(rows) // len(cols))
        q_perm, q_bounds = _kd_leaves(bctx, rows, size)[:2]
    xs = np.array(encode_rows(bctx, rows[q_perm]))
    q_lo = np.minimum.reduceat(xs, q_bounds[:-1], axis=1)[:, :, None]
    q_hi = np.maximum.reduceat(xs, q_bounds[:-1], axis=1)[:, :, None]
    lo, hi = lo[:, None], hi[:, None]
    pos = np.empty((len(rows), k), dtype=np.intp)

    def members(leaves):
        """Ascending positions of the cols in the given leaves."""
        n = sizes[leaves]
        ends = np.cumsum(n)
        return np.sort(perm[np.repeat(bounds[leaves] - ends + n, n) + np.arange(ends[-1])])

    def merge(d, p, d2, p2):
        """Two rows of k nearest lists as one, lower position on ties."""
        d, p = np.concatenate([d, d2], axis=1), np.concatenate([p, p2], axis=1)
        o = np.lexsort((p, d), axis=1)[:, :k]
        return np.take_along_axis(d, o, axis=1), np.take_along_axis(p, o, axis=1)

    n_chunks = len(q_bounds) - 1
    # chunks at a time: their bounds against every leaf take a 16th of
    # a block
    per = max(1, BLOCK_PAIRS // 16 // len(sizes))
    for g0 in range(0, n_chunks, per):
        g1 = min(g0 + per, n_chunks)
        # each chunk first measures the leaves its box touches, then the
        # nearest others, (2p - 1) x CHUNK_ROWS more cols over p bounded
        # features, since more features put more leaves beside a chunk;
        # k cols at least
        box = _box_bound(bctx, lo, hi, q_lo[:, g0:g1], q_hi[:, g0:g1])
        order = np.argsort(box, axis=1)
        filled = np.cumsum(sizes[order], axis=1)
        touching = np.count_nonzero(box == 0, axis=1)
        touched = np.where(touching > 0, filled[np.arange(g1 - g0), touching - 1], 0)
        want = np.maximum(touched + (2 * len(feats) - 1) * CHUNK_ROWS, k + self_pairs)
        firsts = np.count_nonzero(filled < want[:, None], axis=1) + 1
        for g in range(g0, g1):
            a, b = q_bounds[g], q_bounds[g + 1]
            q, o, first = q_perm[a:b], order[g - g0], firsts[g - g0]
            best_d, best_p = measure(q, members(o[:first]))
            # then, while a row's k-th distance so far is not below its
            # bound to some leaf left, its nearest such leaves by that
            # bound, twice as many each round; only a bound strictly
            # above the k-th distance rules a leaf out
            rest = o[first:np.searchsorted(box[g - g0, o], best_d[:, -1].max(), "right")]
            if len(rest):
                x = xs[:, a:b, None]
                bound = _box_bound(bctx, lo[:, :, rest], hi[:, :, rest], x, x)
                left = np.ones(len(rest), dtype=bool)
                batch = first
                while True:
                    need = (bound <= best_d[:, -1:]) & left
                    if batch < len(rest):
                        nth = np.partition(np.where(need, bound, np.inf), batch - 1, axis=1)
                        need &= bound <= nth[:, batch - 1:batch]
                    leaves = need.any(axis=0)
                    if not leaves.any():
                        break
                    sel = np.flatnonzero(need.any(axis=1))
                    d, p = measure(q[sel], members(rest[leaves]))
                    best_d[sel], best_p[sel] = merge(best_d[sel], best_p[sel], d, p)
                    left &= ~leaves
                    batch *= 2
            pos[q] = best_p
    return pos


def _k_nearest(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k smallest entries and their columns, as a stable
    argsort orders them: ascending, ties to the earlier column.

    k argmin passes, each striking its picks out of ``block`` with inf:
    once a row's least entry left is inf, its pick is its earliest
    column not yet taken.
    """
    r = np.arange(len(block))
    c = block.argmin(axis=1)
    d = block[r, c]
    if k == 1:  # one pass, with no buffers to fill
        return d[:, None], c[:, None]
    dist, cols = np.empty((len(block), k)), np.empty((len(block), k), dtype=np.intp)
    dist[:, 0], cols[:, 0] = d, c
    for j in range(1, k):
        block[r, c] = np.inf
        c = block.argmin(axis=1)
        dist[:, j] = d = block[r, c]
        stuck = np.flatnonzero(d == np.inf)
        if len(stuck):
            taken = (cols[stuck, :j, None] == np.arange(j + 1)).any(axis=1)
            c[stuck] = taken.argmin(axis=1)
        cols[:, j] = c
    return dist, cols


def knn_table(ctx: MetricContext, k: int, rows=None, cols=None) -> np.ndarray:
    """Positions of each row's k nearest candidates in ``cols``, or,
    with ``cols`` omitted, in ``rows`` (all by default) less the row.

    Row i equals the first k entries of a stable argsort of row i of
    ``pairwise(ctx)[np.ix_(rows, cols)]``, or of ``pairwise(ctx, rows)``
    with an infinite diagonal.  No rows give a (0, k) table; otherwise
    1 <= k <= the number of candidates, ``len(cols)`` or ``len(rows) - 1``.
    """
    rows = np.arange(ctx.n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    cols = None if cols is None else np.asarray(cols, dtype=np.intp)
    if k < 1 or len(rows) and k > (len(rows) - 1 if cols is None else len(cols)):
        raise MetricError("k must lie between 1 and the number of candidate rows")
    return _neighbours(ctx, rows, cols, k) if len(rows) else np.empty((0, k), dtype=np.intp)

