"""Independent direct-formula oracles used to pin expected test values.

Everything here is written with plain Python loops, straight from the
metric definitions, on purpose: no shared code with the library under
test.  Rows are sequences of feature cells; numeric cells are floats
(NaN = missing), nominal cells are strings (None = missing).  The CSV
oracles return the library's own Dataset, so that results compare
with ``==``.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

from rebalance.tabular import Column, ColumnKind, Dataset, TabularError


def _is_missing(v) -> bool:
    if v is None:
        return True
    return isinstance(v, float) and math.isnan(v)


def dataset_row(ds, i, feature_only=True):
    """Cell values of row ``i`` of ``ds`` (features only by default):
    floats for numeric cells, labels or None for nominal ones."""
    cols = ds.feature_columns if feature_only else ds.columns
    cells = []
    for c in cols:
        v = c.values[i]
        if c.kind is ColumnKind.NUMERIC:
            cells.append(float(v))
        else:
            cells.append(c.categories[v] if v >= 0 else None)
    return tuple(cells)


def added_rows(out):
    """A strategy outcome's added rows as (seed row, synthetic) pairs."""
    return list(zip(out.seeds.tolist(), out.synthetic.tolist()))


def euclidean_oracle(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def manhattan_oracle(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


def minkowsky_oracle(a, b, p):
    return sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p)


def chebyshev_oracle(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def canberra_oracle(a, b):
    total = 0.0
    for x, y in zip(a, b):
        denom = abs(x) + abs(y)
        if denom > 0:
            total += abs(x - y) / denom
        # 0/0 contributes 0
    return total


def overlap_oracle(a, b):
    return float(sum(0.0 if x == y else 1.0 for x, y in zip(a, b)))


def refused_column_oracle(name, ds):
    """The first numeric feature column on which the ``name`` distance
    is not defined, or None: one with a missing cell under a plain
    metric, or, under any metric, one whose present cells span a range
    that is not finite (an infinite cell, or a span that overflows), or,
    under HVDM, one whose 4 sd is not finite."""
    plain = name in ("euclidean", "manhattan", "minkowsky", "chebyshev", "canberra")
    for col in ds.feature_columns:
        if col.kind is not ColumnKind.NUMERIC:
            continue
        vals = [float(v) for v in col.values]
        present = [v for v in vals if not math.isnan(v)]
        if plain and len(present) < len(vals):
            return col.name
        if present and not math.isfinite(max(present) - min(present)):
            return col.name
        if name == "hvdm" and not math.isfinite(4 * _sd_or_inf(present)):
            return col.name
    return None


def _sd_or_inf(vals):
    """The sample sd of ``vals``, inf where a sum or square overflows."""
    if len(vals) < 2:
        return 0.0
    mean = sum(vals) / len(vals)
    if not math.isfinite(mean):
        return math.inf
    return math.sqrt(sum((v - mean) * (v - mean) for v in vals) / (len(vals) - 1))


def ranges_oracle(rows, kinds):
    """Per-numeric-feature value range over non-missing cells."""
    out = {}
    for j, kind in enumerate(kinds):
        if kind != "num":
            continue
        vals = [r[j] for r in rows if not _is_missing(r[j])]
        out[j] = (max(vals) - min(vals)) if vals else 0.0
    return out


def sds_oracle(rows, kinds):
    """Per-numeric-feature sample standard deviation (ddof=1)."""
    out = {}
    for j, kind in enumerate(kinds):
        if kind != "num":
            continue
        vals = [r[j] for r in rows if not _is_missing(r[j])]
        if len(vals) < 2:
            out[j] = 0.0
            continue
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        out[j] = math.sqrt(var)
    return out


def heom_oracle(a, b, kinds, ranges):
    total = 0.0
    for j, kind in enumerate(kinds):
        x, y = a[j], b[j]
        if _is_missing(x) or _is_missing(y):
            d = 1.0
        elif kind == "nom":
            d = 0.0 if x == y else 1.0
        else:
            rng = ranges[j]
            d = abs(x - y) / rng if rng > 0 else 0.0
        total += d * d
    return math.sqrt(total)


def vdm_tables_oracle(rows, labels, kinds):
    """Per nominal feature: value -> per-class conditional frequencies."""
    classes = sorted(set(labels))
    tables = {}
    for j, kind in enumerate(kinds):
        if kind != "nom":
            continue
        table = {}
        for row, label in zip(rows, labels):
            v = row[j]
            if _is_missing(v):
                continue
            per_class = table.setdefault(v, {c: 0 for c in classes})
            per_class[label] += 1
        probs = {}
        for v, per_class in table.items():
            n = sum(per_class.values())
            probs[v] = {c: per_class[c] / n for c in classes}
        tables[j] = (classes, probs)
    return tables


def hvdm_oracle(a, b, kinds, sds, vdm_tables):
    total = 0.0
    for j, kind in enumerate(kinds):
        x, y = a[j], b[j]
        if _is_missing(x) or _is_missing(y):
            d = 1.0
        elif kind == "nom":
            classes, probs = vdm_tables[j]
            zero = {c: 0.0 for c in classes}
            px = probs.get(x, zero)
            py = probs.get(y, zero)
            d = math.sqrt(sum((px[c] - py[c]) ** 2 for c in classes))
        else:
            sd = sds[j]
            d = abs(x - y) / (4.0 * sd) if sd > 0 else 0.0
        total += d * d
    return math.sqrt(total)


def scalar_distance_oracle(name, p, kinds, a, b, ranges, four_sd, vdm_tables):
    """One distance between two cell sequences, one pair at a time.

    The scalar loop the library used before its distances came from one
    vectorised kernel.  ``name`` and ``p`` name the metric; ``ranges``
    (HEOM) and ``four_sd`` (HVDM) map each numeric feature position to
    its statistic, and ``vdm_tables`` is ``vdm_tables_oracle``'s output.
    A nominal value absent from a VDM table has all-zero frequencies.
    The HVDM nominal term sums with numpy, as the loop did, so that the
    sum is associated as the library's table is.  Chebyshev lets a NaN
    difference win, as the module documents for a missing cell under a
    plain metric (the loop's built-in ``max`` skipped it).
    """
    if name in ("euclidean", "manhattan", "minkowsky", "chebyshev", "canberra"):
        acc = 0.0
        for x, y in zip(a, b):
            diff = abs(x - y)
            if name == "euclidean":
                acc += diff * diff
            elif name == "manhattan":
                acc += diff
            elif name == "minkowsky":
                acc += diff ** p
            elif name == "chebyshev":
                acc = diff if diff != diff else max(acc, diff)
            else:  # canberra; 0/0 counts as 0
                denom = abs(x) + abs(y)
                if denom > 0:
                    acc += diff / denom
                elif diff != diff:  # NaN propagates
                    acc += diff
        if name == "euclidean":
            return math.sqrt(acc)
        if name == "minkowsky":
            return acc ** (1.0 / p)
        return float(acc)

    if name == "overlap":
        return float(sum(0.0 if x == y else 1.0 for x, y in zip(a, b)))

    # heom / hvdm
    acc = 0.0
    for j, kind in enumerate(kinds):
        x, y = a[j], b[j]
        if _is_missing(x) or _is_missing(y):
            d = 1.0
        elif kind == "nom":
            if name == "heom":
                d = 0.0 if x == y else 1.0
            else:
                classes, probs = vdm_tables[j]
                zero = {c: 0.0 for c in classes}
                px = np.array([probs.get(x, zero)[c] for c in classes])
                py = np.array([probs.get(y, zero)[c] for c in classes])
                d = float(np.sqrt(((px - py) ** 2).sum()))
        else:
            scale = ranges[j] if name == "heom" else four_sd[j]
            d = abs(x - y) / scale if scale > 0 else 0.0
        acc += d * d
    return math.sqrt(acc)


def knn_oracle(dists, candidates, k):
    """k smallest by (distance, candidate index)."""
    order = sorted(candidates, key=lambda c: (dists[c], c))
    return order[: min(k, len(order))]


def gamma_half_cdf(x):
    """CDF of Gamma(shape 0.5, scale 1): the regularised P(1/2, x) = erf(sqrt x)."""
    return math.erf(math.sqrt(x)) if x > 0 else 0.0


def exponential_cdf(x):
    """CDF of Gamma(shape 1, scale 1), the unit exponential."""
    return 1.0 - math.exp(-x) if x > 0 else 0.0


def ks_statistic(sample, cdf):
    """One-sample Kolmogorov-Smirnov distance of ``sample`` from ``cdf``."""
    xs = sorted(sample)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, (i + 1) / n - f, f - i / n)
    return d


def _bisect(f, lo, hi, target):
    """x in [lo, hi] with f(x) = target, for f non-decreasing."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def imbr_bump_expectation(n_rows, thr_rel):
    """Expected (normal, rare) bump sizes for ``gen imbr`` at ``thr_rel``.

    Population version of the automatic "both" relevance on the
    documented ``gen_imbr`` target law, the mixture
    0.95 * (Gamma(0.5, 1) + 10) + 0.05 * (Gamma(1, 1) + 20).
    Quartiles and median come from the mixture CDF by bisection.  The
    low fence Q1 - 1.5 IQR lies below the support minimum 10, so only
    the high side has outliers: relevance is 0 from the minimum to the
    median and rises from 0 at the median to 1 at the fence
    Q3 + 1.5 IQR along the zero-slope Hermite cubic 3t^2 - 2t^3.  Rows
    at or above the target where that cubic reaches ``thr_rel`` are
    rare.
    """

    def cdf(y):
        return 0.95 * gamma_half_cdf(y - 10.0) + 0.05 * exponential_cdf(y - 20.0)

    hi = 100.0  # 1 - cdf(100) is below 1e-30
    q1 = _bisect(cdf, 10.0, hi, 0.25)
    med = _bisect(cdf, 10.0, hi, 0.5)
    q3 = _bisect(cdf, 10.0, hi, 0.75)
    assert q1 - 1.5 * (q3 - q1) < 10.0, "low outliers would change the anchors"
    fence = q3 + 1.5 * (q3 - q1)
    t = _bisect(lambda s: 3 * s * s - 2 * s ** 3, 0.0, 1.0, thr_rel)
    rare = n_rows * (1.0 - cdf(med + t * (fence - med)))
    return n_rows - rare, rare


def cnn_full_matrix_oracle(d, labels, kept):
    """The dense CNN loop: 1-NN against the kept set until consistent.

    ``d`` is the full distance matrix (a numpy array), ``labels`` the
    class of each row and ``kept`` the initial kept mask.  Each round
    takes ``argmin`` over the kept columns of every row (so the first
    NaN distance counts as nearest) and pulls in every row the kept set
    misclassifies.  Returns the final kept mask as a list of bools.
    """
    n = len(labels)
    kept = list(kept)
    while True:
        kept_idx = [i for i in range(n) if kept[i]]
        pred = [kept_idx[int(j)] for j in d[:, kept_idx].argmin(axis=1)]
        mis = [i for i in range(n) if not kept[i] and labels[pred[i]] != labels[i]]
        if not mis:
            return kept
        for i in mis:
            kept[i] = True


def relevance_oracle(fn, y):
    """Relevance of the values ``y`` from one evaluation of the cubic
    over all of them, clipped to [0, 1]."""
    values = np.atleast_1d(np.asarray(y, dtype=np.float64))
    ys, phis, m = fn.ys, fn.phis, fn.slopes
    out = values.copy()
    out[values <= ys[0]] = phis[0]
    out[values >= ys[-1]] = phis[-1]
    inner = (values > ys[0]) & (values < ys[-1])
    x = values[inner]
    seg = np.searchsorted(ys, x, side="right") - 1
    h = ys[seg + 1] - ys[seg]
    t = (x - ys[seg]) / h
    t2 = t * t
    t3 = t2 * t
    out[inner] = (
        phis[seg] * (2 * t3 - 3 * t2 + 1)
        + m[seg] * h * (t3 - 2 * t2 + t)
        + phis[seg + 1] * (-2 * t3 + 3 * t2)
        + m[seg + 1] * h * (t3 - t2)
    )
    return np.clip(out, 0.0, 1.0)


def find_bumps_loop_oracle(y, phi, thr_rel):
    """Bumps as the plain per-row loop cuts them.

    ``y`` holds the targets and ``phi`` their relevance, both in row
    order.  Rows are sorted by (target, row index), and every maximal
    run with relevance >= ``thr_rel``, or below it, is one bump.
    Returns (rare, row indices, lowest target, highest target) per bump.
    """
    order = sorted(range(len(y)), key=lambda i: (y[i], i))
    rare = [phi[i] >= thr_rel for i in order]
    bumps = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or rare[i] != rare[start]:
            run = order[start:i]
            bumps.append((rare[start], run, float(y[run[0]]), float(y[run[-1]])))
            start = i
    return bumps


# ------------------------------------------------ label coding and rules
#
# The loops below are the per-cell and per-row code the library ran
# before nominal columns were coded once in ``tabular`` and the
# editing rules became array expressions.  ``labels`` is a sequence of
# class labels in row order; neighbour tables come from the library's
# engine, which ``tests/test_engine.py`` checks on its own.


def nominal_codes_oracle(values):
    """Codes in sorted label order, -1 for None, and the sorted labels."""
    seen = sorted({v for v in values if v is not None})
    encode = {v: i for i, v in enumerate(seen)}
    return [encode[v] if v is not None else -1 for v in values], seen


def code_dtype_oracle(n_categories):
    """The dtype of codes into ``n_categories`` labels: int8 up to 127
    categories, int16 up to 32,767, then int32."""
    for dtype, top in ((np.int8, 127), (np.int16, 32_767), (np.int32, 2**31 - 1)):
        if n_categories <= top:
            return np.dtype(dtype)
    raise ValueError("too many categories")


def label_counts_oracle(values):
    """(label, count) pairs in sorted label order, None skipped."""
    counts = {}
    for v in values:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items())


def class_rows_oracle(labels):
    """Label -> ascending row indices, in sorted label order."""
    out = {}
    for i, v in enumerate(labels):
        out.setdefault(v, []).append(i)
    return dict(sorted(out.items()))


def tomek_oracle(labels, nn, cl_set, rem):
    """Rows the Tomek pair loop removes.

    ``nn`` is each row's nearest neighbour.  A link is a mutual pair
    with different labels; an end whose class is not in ``cl_set``
    stays, and under ``rem="maj"`` with both ends in ``cl_set`` only the
    end of the strictly bigger class goes.
    """
    counts = dict(label_counts_oracle(labels))
    out = set()
    for i in range(len(labels)):
        j = int(nn[i])
        if j <= i or nn[j] != i or labels[i] == labels[j]:
            continue
        in_i, in_j = labels[i] in cl_set, labels[j] in cl_set
        if in_i and in_j:
            if rem == "both":
                out.update((i, j))
            elif counts[labels[i]] > counts[labels[j]]:
                out.add(i)
            elif counts[labels[j]] > counts[labels[i]]:
                out.add(j)
        elif in_i:
            out.add(i)
        elif in_j:
            out.add(j)
    return out


def enn_oracle(labels, nbrs, cl_set, k, seed):
    """Rows ENN removes: fewer than ceil(k/2) same-class neighbours.

    A class whose rows are all marked gets one back, drawn per class in
    label order from ``default_rng(seed)``.
    """
    need = math.ceil(k / 2)
    marked = [
        labels[i] in cl_set and sum(labels[j] == labels[i] for j in nbrs[i]) < need
        for i in range(len(labels))
    ]
    rng = np.random.default_rng(seed)
    for idx in class_rows_oracle(labels).values():
        if all(marked[i] for i in idx):
            marked[idx[rng.integers(len(idx))]] = False
    return {i for i, m in enumerate(marked) if m}


def ncl_oracle(labels, nbrs, key, k):
    """(A1, A2) of neighbourhood cleaning around the ``key`` classes.

    A1: rows outside the key classes with at least ceil(k/2) neighbours
    of another class.  A2: neighbours of key rows whose class is outside
    and holds at least half as many rows as the smallest key class.
    """
    counts = dict(label_counts_oracle(labels))
    outside = set(counts) - set(key)
    need = math.ceil(k / 2)
    min_key = min(counts[c] for c in key)
    a1, a2 = set(), set()
    for i in range(len(labels)):
        if labels[i] in outside:
            if sum(labels[j] != labels[i] for j in nbrs[i]) >= need:
                a1.add(i)
        else:
            for j in nbrs[i]:
                j = int(j)
                if labels[j] in outside and counts[labels[j]] >= 0.5 * min_key:
                    a2.add(j)
    return a1, a2


def oss_removed_oracle(n, first_removed, second_removed):
    """Original rows OSS removes, from its two phases' ``removed``.

    The second phase ran on the rows the first kept, so its indices
    count those rows only.
    """
    orig_ids = sorted(set(range(n)) - set(first_removed))
    kept = [i for pos, i in enumerate(orig_ids) if pos not in set(second_removed)]
    return sorted(set(range(n)) - set(kept))


def imp_samp_mode_a_oracle(phi, bumps, targets, seed):
    """Kept rows and replica seeds of importance sampling's mode A.

    Per bump in order: above its target it drops count - target rows
    drawn without replacement with weights 1 - phi; below it, it draws
    the missing rows with replacement with weights phi.  A weight sum
    of 0 draws uniformly.
    """
    rng = np.random.default_rng(seed)
    kept, seeds = [], []
    for idx, t in zip(bumps, targets):
        if t < len(idx):
            w = 1.0 - phi[idx]
            p = w / w.sum() if w.sum() > 0 else None
            drop = rng.choice(idx, size=len(idx) - t, replace=False, p=p)
            kept += [i for i in idx if i not in set(drop.tolist())]
            continue
        kept += list(idx)
        if t > len(idx):
            w = phi[idx]
            p = w / w.sum() if w.sum() > 0 else None
            seeds += rng.choice(idx, size=t - len(idx), replace=True, p=p).tolist()
    return sorted(kept), seeds


# a plain or scientific real literal; "inf", "nan" and "1_0" are not
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


def numeric_cells_oracle(cells):
    """The reader's old kind check: every cell matches the literal regex."""
    return all(_NUMBER.match(v) for v in cells)


def read_dataset_oracle(fh, target, schema=None):
    """The row-wise CSV reader: every record, then column by column.

    Raises the reader's ``TabularError`` messages in its order: header
    checks, the first ragged record, then per column a declared-numeric
    bad cell and a missing target cell.
    """
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
            raise TabularError(f"schema names unknown columns: {sorted(unknown)}")
    cells = [[] for _ in header]
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise TabularError(f"row {lineno} has {len(row)} fields, expected {len(header)}")
        for col, value in zip(cells, row):
            col.append(value)
    columns = []
    for name, raw in zip(header, cells):
        declared = schema.get(name) if schema else None
        non_empty = [v for v in raw if v != ""]
        if declared is ColumnKind.NUMERIC:
            bad = next((v for v in non_empty if not _NUMBER.match(v)), None)
            if bad is not None:
                raise TabularError(f"column {name!r} declared numeric but cell {bad!r} is not")
            kind = ColumnKind.NUMERIC
        elif declared is ColumnKind.NOMINAL:
            kind = ColumnKind.NOMINAL
        else:
            numeric = all(_NUMBER.match(v) for v in non_empty)
            kind = ColumnKind.NUMERIC if numeric else ColumnKind.NOMINAL
        if name == target and any(v == "" for v in raw):
            raise TabularError("missing value in the target column")
        if kind is ColumnKind.NUMERIC:
            values = [math.nan if v == "" else float(v) for v in raw]
        else:
            values = [None if v == "" else v for v in raw]
        columns.append(Column(name, kind, values))
    return Dataset(columns, target)


def write_rows_oracle(ds, fh):
    """The row-wise CSV writer: one ``csv.writer.writerow`` per row."""
    writer = csv.writer(fh)
    writer.writerow([c.name for c in ds.columns])
    for i in range(ds.n_rows):
        row = []
        for c, v in zip(ds.columns, dataset_row(ds, i, feature_only=False)):
            if c.kind is ColumnKind.NUMERIC:
                # repr of a float is the shortest string that round-trips
                row.append("" if math.isnan(v) else repr(float(v)))
            else:
                row.append("" if v is None else v)
        writer.writerow(row)


def driver_added_oracle(n_rows, groups, shrunk, grown):
    """The added rows as the shrink/grow driver listed them, one
    (seed row, synthetic) pair at a time.

    ``groups`` holds (row indices, target) per group in order;
    ``shrunk`` the rows the shrink callback kept for each group above
    its target, and ``grown`` (seed rows, synthetic) for each group the
    grow callback added to, both in group order.  The extra copies of a
    row kept more than once come first, by row, then each grown group's
    seeds.
    """
    parts = iter(shrunk)
    kept = []
    for idx, t in groups:
        kept += list(next(parts)) if t < len(idx) else list(idx)
    times = [0] * n_rows
    for i in kept:
        times[i] += 1
    copies = [(i, False) for i in range(n_rows) for _ in range(times[i] - 1)]
    return copies + [(int(s), flag) for seeds, flag in grown for s in seeds]


def imp_samp_mode_b_added_oracle(phi, u, o, seed):
    """The added rows of importance sampling's mode B: after one drop
    draw per row, trunc(o * sum(phi)) replicas drawn with weights phi.
    """
    rng = np.random.default_rng(seed)
    rng.random(len(phi))  # the drop draw
    m = math.floor(o * phi.sum())
    seeds = rng.choice(len(phi), size=m, p=phi / phi.sum()) if m > 0 else []
    return [(int(s), False) for s in seeds]
