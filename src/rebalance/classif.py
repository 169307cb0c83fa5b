"""Resampling strategies for imbalanced classification.

Each strategy takes a Dataset with a nominal target and returns a
StrategyOutcome: the resampled dataset plus bookkeeping about which
original rows were dropped and which rows were added (replicas or
synthetic).  All randomized strategies draw from a single seeded
generator per invocation, so a fixed seed reproduces the output
exactly.

Class percentage specs come in three modes.  Balance and Extreme
derive per-class targets from the class counts alone; explicit mode
maps class labels to percentages (shrink below 1, grow above 1,
classes not named stay untouched).

The strategies that move groups toward row targets (random under- and
over-sampling, importance sampling, Gaussian noise and SMOTE, here and
their bump twins in ``rebalance.regress``) run through one driver,
``_resample``: it shrinks each group above its target to a random
sample, lets a grow callback add rows to each group below it,
and builds the output and the removed/added bookkeeping once.  Groups
are classes in label order or bumps in partition order.  Two
synthesisers serve classes and bumps alike: ``_noise_rows`` (Gaussian
noise) and ``_smote_rows`` (SMOTE interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._util import balanced_quota, floor_frac, inverted_quota, nominal_freqs, sample_sd
from .distance import Metric, MetricContext, build_context, knn_table, nearest
from .tabular import ColumnKind, Dataset, class_counts

__all__ = [
    "ClassPercSpec",
    "AddedRow",
    "StrategyOutcome",
    "ResampleError",
    "WARN_TOMEK_NONE",
    "WARN_ENN_NONE",
    "resolve_targets_under",
    "resolve_targets_over",
    "rand_under_classif",
    "rand_over_classif",
    "imp_samp_classif",
    "tomek_classif",
    "cnn_classif",
    "oss_classif",
    "enn_classif",
    "ncl_classif",
    "gauss_noise_classif",
    "smote_classif",
]

WARN_TOMEK_NONE = "TomekClassif found no examples to remove!"
WARN_ENN_NONE = "ENNClassif found no examples to remove!"


class ResampleError(ValueError):
    """Raised for invalid percentage specs or strategy parameters."""


@dataclass(frozen=True)
class ClassPercSpec:
    """Per-class resampling intensity: balance, extreme, or explicit."""

    mode: str
    percs: Mapping[str, float] | None = None

    @classmethod
    def balance(cls) -> "ClassPercSpec":
        return cls("balance")

    @classmethod
    def extreme(cls) -> "ClassPercSpec":
        return cls("extreme")

    @classmethod
    def explicit(cls, percs: Mapping[str, float]) -> "ClassPercSpec":
        if not percs:
            raise ResampleError("explicit percentage spec is empty")
        return cls("explicit", dict(percs))

    def __post_init__(self) -> None:
        if self.mode not in ("balance", "extreme", "explicit"):
            raise ResampleError(f"unknown percentage mode {self.mode!r}")
        if self.mode == "explicit" and not self.percs:
            raise ResampleError("explicit percentage spec is empty")


@dataclass(frozen=True, slots=True)
class AddedRow:
    """Descriptor of one added row: its seed row and whether it is new."""

    seed: int
    synthetic: bool


@dataclass
class StrategyOutcome:
    dataset: Dataset
    removed: list[int]
    added: list[AddedRow]
    warnings: list[str] = field(default_factory=list)


def _check_percs(percs: Mapping[str, float], counts: Mapping[str, int]) -> None:
    unknown = sorted(set(percs) - set(counts))
    if unknown:
        raise ResampleError(f"percentages name unknown classes: {unknown}")
    for c, perc in sorted(percs.items()):
        if not math.isfinite(perc):
            raise ResampleError(f"percentage for class {c!r} must be a finite number")


def resolve_targets_under(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    """Per-class row targets for under-sampling strategies."""
    labels = sorted(counts)
    if spec.mode == "balance":
        m = min(counts.values())
        return {c: m for c in labels}
    if spec.mode == "extreme":
        m = min(counts.values())
        return {c: m * m // counts[c] for c in labels}
    _check_percs(spec.percs, counts)
    out = {}
    for c in labels:
        perc = spec.percs.get(c)
        if perc is None:
            out[c] = counts[c]
            continue
        if not 0 < perc <= 1:
            raise ResampleError(
                f"under-sampling percentage for class {c!r} must be in (0, 1]"
            )
        out[c] = floor_frac(perc, counts[c])
    return out


def resolve_targets_over(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    """Per-class row targets for over-sampling strategies."""
    labels = sorted(counts)
    if spec.mode == "balance":
        m = max(counts.values())
        return {c: m for c in labels}
    if spec.mode == "extreme":
        m = max(counts.values())
        return {c: round(m * m / counts[c]) for c in labels}
    _check_percs(spec.percs, counts)
    out = {}
    for c in labels:
        perc = spec.percs.get(c)
        if perc is None:
            out[c] = counts[c]
            continue
        if perc < 1:
            raise ResampleError(
                f"over-sampling percentage for class {c!r} must be at least 1"
            )
        out[c] = floor_frac(perc, counts[c])
    return out


def _resolve_mixed(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    """Targets for strategies that shrink and grow in one pass."""
    labels = sorted(counts)
    total = sum(counts.values())
    if spec.mode == "balance":
        quota = balanced_quota(total, len(labels))
        return dict(zip(labels, quota))
    if spec.mode == "extreme":
        quota = inverted_quota([counts[c] for c in labels], total)
        return dict(zip(labels, quota))
    _check_percs(spec.percs, counts)
    out = {}
    for c in labels:
        perc = spec.percs.get(c)
        if perc is None:
            out[c] = counts[c]
            continue
        if perc <= 0:
            raise ResampleError(f"percentage for class {c!r} must be positive")
        out[c] = floor_frac(perc, counts[c])
    return out


def _resolve_impsamp(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    labels = sorted(counts)
    total = sum(counts.values())
    if spec.mode == "balance":
        base = total // len(labels)
        return {c: base for c in labels}
    if spec.mode == "extreme":
        quota = inverted_quota([counts[c] for c in labels], total)
        return dict(zip(labels, quota))
    return _resolve_mixed(counts, spec)


def _class_indices(ds: Dataset) -> dict[str, np.ndarray]:
    labels = ds.target_column.values
    if ds.target_column.kind is not ColumnKind.NOMINAL:
        raise ResampleError("classification strategies need a nominal target")
    out: dict[str, list[int]] = {}
    for i, v in enumerate(labels):
        if v is None:
            raise ResampleError("missing value in the target column")
        out.setdefault(v, []).append(i)
    return {c: np.array(idx, dtype=np.intp) for c, idx in sorted(out.items())}


def _class_groups(ds: Dataset, targets: Mapping[str, int]) -> list[tuple]:
    """Driver groups: (label, row indices, target) in label order."""
    return [(c, idx, targets[c]) for c, idx in _class_indices(ds).items()]


def _resample(
    ds: Dataset,
    groups: Sequence[tuple],
    rng: np.random.Generator,
    grow: Callable | None = None,
    repl: bool = False,
    warnings: list[str] | None = None,
) -> StrategyOutcome:
    """The shrink/grow driver shared by the class and bump strategies.

    ``groups`` holds (key, row indices, target) per class or bump.  A
    group above its target keeps a random sample of its rows drawn with
    ``repl``.  Any other group keeps every row, and when it is below its
    target ``grow(key, idx, extra)`` adds ``extra`` rows: it returns
    their seed rows and a column block, or None for plain replicas of
    the seeds.  The output holds the kept rows in row order, then the
    replicas, then the blocks, each in group order.  A row kept twice
    or replicated counts as an added copy, a block row as synthetic.
    """
    parts, replicas, blocks, grown = [], [], [], []
    for key, idx, t in groups:
        if t < len(idx):
            parts.append(rng.choice(idx, size=t, replace=repl))
            continue
        parts.append(idx)
        if t > len(idx):
            seeds, block = grow(key, idx, t - len(idx))
            # replicas ride in the one take, which is cheaper than
            # appending copies of nominal cells
            if block is None:
                replicas.append(seeds)
            else:
                blocks.append(block)
            grown += [AddedRow(int(s), synthetic=block is not None) for s in seeds]
    kept = np.sort(np.concatenate(parts))
    out = ds.take(np.concatenate([kept, *replicas]))
    if blocks:
        out = out.append({c: np.concatenate([b[c] for b in blocks]) for c in blocks[0]})
    counts = np.bincount(kept, minlength=ds.n_rows)
    removed = [int(i) for i in np.nonzero(counts == 0)[0]]
    copies = [
        AddedRow(int(i), synthetic=False)
        for i in np.nonzero(counts > 1)[0]
        for _ in range(counts[i] - 1)
    ]
    return StrategyOutcome(out, removed, copies + grown, warnings or [])


def _replicas(rng: np.random.Generator) -> Callable:
    """Grow callback: replicas of rows drawn uniformly from the group."""
    return lambda key, idx, extra: (rng.choice(idx, size=extra, replace=True), None)


def _copies(ds: Dataset, idx: np.ndarray, extra: int) -> tuple[np.ndarray, dict]:
    """Grow a single-row group with synthetic rows that copy it."""
    seeds = np.repeat(idx, extra)
    return seeds, {c.name: c.values[seeds] for c in ds.columns}


def _noise_rows(
    ds: Dataset, rng: np.random.Generator, pert: float, idx: np.ndarray, extra: int
) -> tuple[np.ndarray, dict]:
    """Gaussian-noise synthesis, shared by classes and bumps.

    Each new row copies a seed row drawn uniformly from ``idx`` and
    adds N(0, pert * sd) to every numeric column, a numeric target
    included, where sd is the sample standard deviation within the
    group.  A nominal feature is drawn from its frequencies within the
    group; it is copied from the seed when ``pert`` is 0 or the group
    has no present cell.  A nominal target is copied with no draw.
    """
    seeds = rng.choice(idx, size=extra, replace=True)
    block = {}
    for col in ds.columns:
        vals = col.values
        if col.kind is ColumnKind.NUMERIC:
            sd = sample_sd(vals[idx])
            block[col.name] = vals[seeds] + rng.normal(0.0, 1.0, size=extra) * pert * sd
        elif pert == 0 or col.name == ds.target:
            block[col.name] = vals[seeds]
        else:
            values, freqs = nominal_freqs(vals[idx])
            block[col.name] = (
                np.array(values, dtype=object)[rng.choice(len(values), size=extra, p=freqs)]
                if values else vals[seeds]
            )
    return seeds, block


def _smote_rows(
    ds: Dataset, metric: Metric, ctx: MetricContext, k: int, rng: np.random.Generator,
    idx: np.ndarray, extra: int,
) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """SMOTE synthesis, shared by classes and bumps.

    Each new row takes a seed row drawn uniformly from ``idx`` (two rows
    or more) and one of its min(k, len(idx) - 1) nearest neighbours
    within ``idx``.  A numeric column moves a uniform fraction of the
    way from the seed to the neighbour, a nominal feature copies one of
    the two ends at even odds, and a nominal target is copied from the
    seed.  The draws come in one order: seed positions, neighbour
    picks, fractions, then one coin per nominal feature in column
    order.  Returns the seeds, their neighbours, the block and each
    nominal feature's coins (True takes the seed's value).
    """
    k_eff = min(k, len(idx) - 1)
    nbr_table = knn_table(metric, ctx, k_eff, rows=idx)
    seed_pos = rng.integers(0, len(idx), size=extra)
    nbr_pick = rng.integers(0, k_eff, size=extra)
    u = rng.random(size=extra)
    seeds, nbrs = idx[seed_pos], idx[nbr_table[seed_pos, nbr_pick]]
    block, coins = {}, {}
    for col in ds.columns:
        s_vals, n_vals = col.values[seeds], col.values[nbrs]
        if col.kind is ColumnKind.NUMERIC:
            block[col.name] = s_vals + u * (n_vals - s_vals)
        elif col.name == ds.target:
            block[col.name] = s_vals
        else:
            coins[col.name] = rng.random(size=extra) < 0.5
            block[col.name] = np.where(coins[col.name], s_vals, n_vals)
    return seeds, nbrs, block, coins


def rand_under_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Randomly drop rows of the classes ``spec`` shrinks."""
    targets = resolve_targets_under(class_counts(ds), spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, _class_groups(ds, targets), rng, repl=repl)


def rand_over_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    seed: int | None = None,
) -> StrategyOutcome:
    """Append uniformly chosen replicas until each class meets its target."""
    targets = resolve_targets_over(class_counts(ds), spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, _class_groups(ds, targets), rng, _replicas(rng))


def imp_samp_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    seed: int | None = None,
) -> StrategyOutcome:
    """Move every class toward its target by dropping or replicating."""
    targets = _resolve_impsamp(class_counts(ds), spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, _class_groups(ds, targets), rng, _replicas(rng))


def _resolve_cl(cl, counts: Mapping[str, int], smaller_ok: bool = True) -> list[str]:
    """Interpret a class-list parameter: 'all', 'smaller', or labels."""
    if cl == "all":
        return sorted(counts)
    if cl == "smaller":
        if not smaller_ok:
            raise ResampleError("'smaller' is not accepted here")
        total = sum(counts.values())
        k = len(counts)
        return sorted(c for c, n in counts.items() if n * k < total)
    labels = [cl] if isinstance(cl, str) else list(cl)
    unknown = sorted(set(labels) - set(counts))
    if unknown:
        raise ResampleError(f"unknown classes: {unknown}")
    return sorted(set(labels))


def tomek_classif(
    ds: Dataset,
    metric: Metric,
    cl="all",
    rem: str = "both",
    seed: int | None = None,
) -> StrategyOutcome:
    """Drop rows participating in Tomek links.

    A Tomek link is a pair of mutual 1-nearest-neighbours with
    different classes.  ``cl`` limits which classes may lose rows; when
    both ends are in ``cl``, ``rem`` picks between dropping both ends
    or only the end of the more populated class.
    """
    if rem not in ("both", "maj"):
        raise ResampleError(f"rem must be 'both' or 'maj', not {rem!r}")
    counts = class_counts(ds)
    cl_set = set(_resolve_cl(cl, counts))
    _, nn = nearest(metric, build_context(metric, ds))
    labels = ds.target_column.values
    to_remove: set[int] = set()
    for i in range(ds.n_rows):
        j = int(nn[i])
        if j <= i or nn[j] != i or labels[i] == labels[j]:
            continue
        in_i, in_j = labels[i] in cl_set, labels[j] in cl_set
        if in_i and in_j:
            if rem == "both":
                to_remove.update((i, j))
            else:
                ci, cj = counts[labels[i]], counts[labels[j]]
                # no strict majority: leave the tied pair alone
                if ci > cj:
                    to_remove.add(i)
                elif cj > ci:
                    to_remove.add(j)
        elif in_i:
            to_remove.add(i)
        elif in_j:
            to_remove.add(j)
    warnings = [] if to_remove else [WARN_TOMEK_NONE]
    kept = np.array(sorted(set(range(ds.n_rows)) - to_remove), dtype=np.intp)
    return StrategyOutcome(ds.take(kept), sorted(to_remove), [], warnings)


def cnn_classif(
    ds: Dataset,
    metric: Metric,
    cl="smaller",
    seed: int | None = None,
) -> tuple[StrategyOutcome, list[str], list[str]]:
    """Condense the dataset while keeping it 1-NN-consistent.

    All rows of the important classes are kept, plus one random row per
    remaining class; rows that the kept set misclassifies by 1-NN are
    pulled in until every original row classifies correctly.  Returns
    the outcome plus the important and unimportant class lists.
    """
    counts = class_counts(ds)
    important = _resolve_cl(cl, counts)
    if set(important) == set(counts):
        raise ResampleError("every class is marked important: nothing to condense")
    unimportant = sorted(set(counts) - set(important))
    rng = np.random.default_rng(seed)
    by_class = _class_indices(ds)
    kept_mask = np.zeros(ds.n_rows, dtype=bool)
    for label in important:
        kept_mask[by_class[label]] = True
    for label in unimportant:
        idx = by_class[label]
        kept_mask[idx[rng.integers(len(idx))]] = True

    ctx = build_context(metric, ds)
    labels = ds.target_column.values
    # each row's nearest kept row so far, under argmin's order: a NaN
    # distance first, then the lowest distance, then the lowest index
    best_d = np.full(ds.n_rows, np.inf)
    best_i = np.full(ds.n_rows, ds.n_rows)
    new = np.nonzero(kept_mask)[0]
    while True:
        q = np.nonzero(~kept_mask)[0]
        d, pos = nearest(metric, ctx, q, new)
        i = new[pos]
        old_d, old_i = best_d[q], best_i[q]
        nan, old_nan = np.isnan(d), np.isnan(old_d)
        better = (
            (nan & (~old_nan | (i < old_i)))
            | (d < old_d)
            | ((d == old_d) & (i < old_i))
        )
        best_d[q[better]] = d[better]
        best_i[q[better]] = i[better]
        new = q[labels[best_i[q]] != labels[q]]
        if not len(new):
            break
        kept_mask[new] = True
    kept = np.nonzero(kept_mask)[0].astype(np.intp)
    removed = [int(i) for i in np.nonzero(~kept_mask)[0]]
    outcome = StrategyOutcome(ds.take(kept), removed, [])
    return outcome, important, unimportant


def oss_classif(
    ds: Dataset,
    metric: Metric,
    cl="smaller",
    start: str = "cnn",
    seed: int | None = None,
) -> tuple[StrategyOutcome, list[str], list[str]]:
    """One-sided selection: condensation plus Tomek-link cleaning.

    ``cl`` names the important classes (kept aside); the embedded Tomek
    pass may only drop rows of the remaining classes and always removes
    both ends of a link.  ``start`` picks which phase runs first.
    """
    if start not in ("cnn", "tomek"):
        raise ResampleError(f"start must be 'cnn' or 'tomek', not {start!r}")
    counts = class_counts(ds)
    important = _resolve_cl(cl, counts)
    if set(important) == set(counts):
        raise ResampleError("every class is marked important: nothing to condense")
    unimportant = sorted(set(counts) - set(important))

    if start == "cnn":
        first, _, _ = cnn_classif(ds, metric, cl=important, seed=seed)
        second = tomek_classif(first.dataset, metric, cl=unimportant, rem="both")
    else:
        first = tomek_classif(ds, metric, cl=unimportant, rem="both")
        second, _, _ = cnn_classif(first.dataset, metric, cl=important, seed=seed)
    orig_ids = np.array(
        sorted(set(range(ds.n_rows)) - set(first.removed)), dtype=np.intp
    )
    kept_orig = np.delete(orig_ids, second.removed)
    removed = sorted(set(range(ds.n_rows)) - {int(i) for i in kept_orig})
    outcome = StrategyOutcome(
        second.dataset, removed, [], first.warnings + second.warnings
    )
    return outcome, important, unimportant


def enn_classif(
    ds: Dataset,
    metric: Metric,
    k: int = 3,
    cl="all",
    seed: int | None = None,
) -> StrategyOutcome:
    """Drop rows whose neighbourhood mostly disagrees with them.

    A row of an editable class is removed when fewer than ceil(k/2) of
    its k nearest neighbours share its class.  A class that would
    vanish entirely gets one uniformly chosen original row back.
    """
    n = ds.n_rows
    if not 1 <= k < n:
        raise ResampleError("k must satisfy 1 <= k < number of rows")
    counts = class_counts(ds)
    cl_set = set(_resolve_cl(cl, counts))
    nbrs = knn_table(metric, build_context(metric, ds), k)
    labels = ds.target_column.values
    need = math.ceil(k / 2)
    marked = np.zeros(n, dtype=bool)
    for i in range(n):
        if labels[i] not in cl_set:
            continue
        same = sum(1 for j in nbrs[i] if labels[j] == labels[i])
        if same < need:
            marked[i] = True
    rng = np.random.default_rng(seed)
    by_class = _class_indices(ds)
    for label, idx in by_class.items():
        if marked[idx].all():
            marked[idx[rng.integers(len(idx))]] = False
    removed = [int(i) for i in np.nonzero(marked)[0]]
    warnings = [] if removed else [WARN_ENN_NONE]
    kept = np.nonzero(~marked)[0].astype(np.intp)
    return StrategyOutcome(ds.take(kept), removed, [], warnings)


def ncl_classif(
    ds: Dataset,
    metric: Metric,
    k: int = 3,
    cl="smaller",
    seed: int | None = None,
) -> StrategyOutcome:
    """Neighbourhood cleaning: edit noisy rows outside the key classes.

    A1 takes rows outside the key classes whose k-neighbourhood
    disagrees with them at least ceil(k/2) times.  A2 scans the
    neighbours of every key-class row and takes those belonging to a
    sufficiently populated outside class.
    """
    n = ds.n_rows
    if not 1 <= k < n:
        raise ResampleError("k must satisfy 1 <= k < number of rows")
    counts = class_counts(ds)
    key = _resolve_cl(cl, counts)
    if not key:
        raise ResampleError("no key classes to clean around")
    key_set = set(key)
    outside = set(counts) - key_set
    nbrs = knn_table(metric, build_context(metric, ds), k)
    labels = ds.target_column.values
    need = math.ceil(k / 2)
    min_key = min(counts[c] for c in key)

    a1: set[int] = set()
    for i in range(n):
        if labels[i] not in outside:
            continue
        diff = sum(1 for j in nbrs[i] if labels[j] != labels[i])
        if diff >= need:
            a1.add(i)
    a2: set[int] = set()
    for i in range(n):
        if labels[i] not in key_set:
            continue
        for j in nbrs[i]:
            j = int(j)
            if labels[j] in outside and counts[labels[j]] >= 0.5 * min_key:
                a2.add(j)
    to_remove = a1 | a2
    warnings = [] if a1 else [WARN_ENN_NONE]
    kept = np.array(sorted(set(range(n)) - to_remove), dtype=np.intp)
    return StrategyOutcome(ds.take(kept), sorted(to_remove), [], warnings)


def gauss_noise_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    pert: float = 0.1,
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Grow classes with noisy copies, shrink the rest at random.

    Synthetic rows copy a random seed row of the class and jitter each
    numeric feature by N(0, pert * sd), where sd is the within-class
    sample standard deviation of that feature.  Nominal features are
    drawn from the within-class value frequencies.
    """
    if not (math.isfinite(pert) and pert >= 0):
        raise ResampleError("pert must be a finite non-negative number")
    targets = _resolve_mixed(class_counts(ds), spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, _class_groups(ds, targets), rng,
                     lambda _, idx, extra: _noise_rows(ds, rng, pert, idx, extra), repl)


def smote_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    k: int = 5,
    metric: Metric = Metric("euclidean"),
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Grow classes by interpolating toward same-class neighbours.

    Each synthetic row picks a random seed row of the class and one of
    its k nearest same-class neighbours; numeric features move a
    uniform fraction of the way to the neighbour, nominal features copy
    one of the two ends at even odds.  A single-row class falls back to
    plain replication with a warning.
    """
    if k < 1:
        raise ResampleError("k must be at least 1")
    targets = _resolve_mixed(class_counts(ds), spec)
    ctx = build_context(metric, ds)
    rng = np.random.default_rng(seed)
    warnings: list[str] = []

    def grow(label, idx, extra):
        if len(idx) == 1:
            warnings.append(
                f"SmoteClassif: class {label!r} has a single example; "
                "synthetic rows are plain replicas"
            )
            return _copies(ds, idx, extra)
        seeds, _, block, _ = _smote_rows(ds, metric, ctx, k, rng, idx, extra)
        return seeds, block

    return _resample(ds, _class_groups(ds, targets), rng, grow, repl, warnings)
