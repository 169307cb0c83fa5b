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

from .tabular import ColumnKind, Dataset

__all__ = [
    "Metric",
    "MetricContext",
    "MetricError",
    "build_context",
    "distance",
    "knn",
    "knn_table",
    "nearest",
    "pairwise",
]

PLAIN_METRICS = ("euclidean", "manhattan", "minkowsky", "chebyshev", "canberra")
METRIC_NAMES = PLAIN_METRICS + ("overlap", "heom", "hvdm")

# distances the neighbour engine computes per chunk; _block holds a few
# float64 temporaries of this size, about 40 B per pair in all
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
    vdm_prob: dict[int, np.ndarray] = field(default_factory=dict)
    vdm_pair: dict[int, np.ndarray] = field(default_factory=dict)
    classes: tuple[str, ...] = ()


def _encode_nominal(values: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    # codes are assigned in sorted value order; -1 marks a missing cell
    seen = sorted({v for v in values if v is not None})
    encode = {v: i for i, v in enumerate(seen)}
    codes = np.fromiter(
        (encode[v] if v is not None else -1 for v in values),
        dtype=np.int64,
        count=len(values),
    )
    return codes, encode


def _sample_sd(values: np.ndarray) -> float:
    vals = values[~np.isnan(values)]
    if len(vals) < 2:
        return 0.0
    return float(np.std(vals, ddof=1))


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
            codes, encode = _encode_nominal(col.values)
            ctx.nom_codes[j] = codes
            ctx.nom_encode[j] = encode

    if metric.name == "heom":
        for j, vals in ctx.num_values.items():
            present = vals[~np.isnan(vals)]
            ctx.ranges[j] = (
                float(present.max() - present.min()) if len(present) else 0.0
            )
    elif metric.name == "hvdm":
        for j, vals in ctx.num_values.items():
            ctx.four_sd[j] = 4.0 * _sample_sd(vals)
        labels = ds.target_column.values
        if any(v is None for v in labels):
            raise MetricError("missing value in the target column")
        classes = sorted(set(labels))
        ctx.classes = tuple(classes)
        class_idx = {c: i for i, c in enumerate(classes)}
        y = np.fromiter((class_idx[v] for v in labels), dtype=np.int64)
        for j, codes in ctx.nom_codes.items():
            n_vals = len(ctx.nom_encode[j])
            counts = np.zeros((n_vals, len(classes)), dtype=np.float64)
            mask = codes >= 0
            np.add.at(counts, (codes[mask], y[mask]), 1.0)
            totals = counts.sum(axis=1, keepdims=True)
            probs = np.divide(
                counts, totals, out=np.zeros_like(counts), where=totals > 0
            )
            ctx.vdm_prob[j] = probs
            # q=2 value difference: euclidean norm between the two
            # conditional probability vectors
            diffs = probs[:, None, :] - probs[None, :, :]
            ctx.vdm_pair[j] = np.sqrt((diffs**2).sum(axis=2))
    return ctx


def _is_missing(v) -> bool:
    if v is None:
        return True
    return isinstance(v, float) and math.isnan(v)


def distance(metric: Metric, ctx: MetricContext, row_a, row_b) -> float:
    """Distance between two feature-cell sequences.

    Rows need not belong to the context's dataset; nominal values never
    seen at context build time use all-zero conditional frequencies
    under HVDM.
    """
    if len(row_a) != len(ctx.kinds) or len(row_b) != len(ctx.kinds):
        raise MetricError("row width does not match the context")
    name = metric.name
    if name in PLAIN_METRICS:
        acc = 0.0
        for x, y in zip(row_a, row_b):
            diff = abs(x - y)
            if name == "euclidean":
                acc += diff * diff
            elif name == "manhattan":
                acc += diff
            elif name == "minkowsky":
                acc += diff ** metric.p
            elif name == "chebyshev":
                acc = max(acc, diff)
            else:  # canberra; 0/0 counts as 0
                denom = abs(x) + abs(y)
                if denom > 0:
                    acc += diff / denom
                elif diff != diff:  # NaN propagates
                    acc += diff
        if name == "euclidean":
            return math.sqrt(acc)
        if name == "minkowsky":
            return acc ** (1.0 / metric.p)
        return float(acc)

    if name == "overlap":
        return float(sum(0.0 if x == y else 1.0 for x, y in zip(row_a, row_b)))

    # heom / hvdm
    acc = 0.0
    for j, kind in enumerate(ctx.kinds):
        x, y = row_a[j], row_b[j]
        if _is_missing(x) or _is_missing(y):
            d = 1.0
        elif kind == "nom":
            if name == "heom":
                d = 0.0 if x == y else 1.0
            else:
                probs = ctx.vdm_prob[j]
                zeros = np.zeros(probs.shape[1])
                cx = ctx.nom_encode[j].get(x, -1)
                cy = ctx.nom_encode[j].get(y, -1)
                px = probs[cx] if cx >= 0 else zeros
                py = probs[cy] if cy >= 0 else zeros
                d = float(np.sqrt(((px - py) ** 2).sum()))
        else:
            if name == "heom":
                rng = ctx.ranges[j]
                d = abs(x - y) / rng if rng > 0 else 0.0
            else:
                denom = ctx.four_sd[j]
                d = abs(x - y) / denom if denom > 0 else 0.0
        acc += d * d
    return math.sqrt(acc)


def _block(metric: Metric, ctx: MetricContext, rows_a: np.ndarray,
           rows_b: np.ndarray) -> np.ndarray:
    """Distance matrix between two index arrays, vectorized per feature."""
    name = metric.name
    shape = (len(rows_a), len(rows_b))
    acc = np.zeros(shape)
    for j, kind in enumerate(ctx.kinds):
        if kind == "num":
            vals = ctx.num_values[j]
            a = vals[rows_a][:, None]
            b = vals[rows_b][None, :]
            diff = np.abs(a - b)
            if name in ("euclidean", "heom", "hvdm"):
                if name == "heom":
                    rng = ctx.ranges[j]
                    term = diff / rng if rng > 0 else np.zeros(shape)
                elif name == "hvdm":
                    denom = ctx.four_sd[j]
                    term = diff / denom if denom > 0 else np.zeros(shape)
                else:
                    term = diff
                if name != "euclidean":
                    term = np.where(np.isnan(a) | np.isnan(b), 1.0, term)
                acc += term * term
            elif name == "manhattan":
                acc += diff
            elif name == "minkowsky":
                acc += diff ** metric.p
            elif name == "chebyshev":
                acc = np.maximum(acc, diff)
            else:  # canberra
                denom = np.abs(a) + np.abs(b)
                with np.errstate(invalid="ignore", divide="ignore"):
                    term = diff / denom
                term[denom == 0] = 0.0
                acc += term
        else:
            codes = ctx.nom_codes[j]
            a = codes[rows_a][:, None]
            b = codes[rows_b][None, :]
            missing = (a < 0) | (b < 0)
            if name == "overlap":
                acc += (a != b).astype(np.float64)
            elif name == "heom":
                term = np.where(missing, 1.0, (a != b).astype(np.float64))
                acc += term * term
            else:  # hvdm
                pair = ctx.vdm_pair[j]
                if pair.size:
                    term = pair[np.maximum(a, 0), np.maximum(b, 0)]
                    term = np.where(missing, 1.0, term)
                else:  # no cell of the column is present
                    term = np.ones(shape)
                acc += term * term
    if name in ("euclidean", "heom", "hvdm"):
        return np.sqrt(acc)
    if name == "minkowsky":
        return acc ** (1.0 / metric.p)
    return acc


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
