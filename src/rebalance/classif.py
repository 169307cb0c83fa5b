"""Resampling strategies for imbalanced classification.

Each strategy takes a Dataset with a nominal target and returns a
StrategyOutcome: the resampled dataset, the original rows it dropped,
and the rows it added as two arrays, each added row's seed row and
whether it is synthetic rather than a replica.  All randomized
strategies draw from a single seeded generator per invocation, so a
fixed seed reproduces the output exactly.

Class percentage specs come in three modes.  Balance and Extreme
derive per-class targets from the class counts alone; explicit mode
maps class labels to percentages (shrink below 1, grow above 1,
classes not named stay untouched).

The strategies that move groups toward row targets (random under- and
over-sampling, importance sampling, Gaussian noise and SMOTE, here and
their bump twins in ``rebalance.regress``) run through one driver,
``_resample``: a shrink callback picks the rows each group above its
target keeps (a uniform sample, ``_sample``, or regression importance
sampling's relevance-weighted drop), a grow callback adds rows to each
group below it and returns them as (seed rows, block or None), and
``_outcome`` builds from the list of those pairs the output, its
origins and the removed/added bookkeeping, once.  Groups are classes
in label order or bumps in partition order.  The driver writes the
one-row warnings.  Two synthesisers serve classes and bumps alike:
``_noise_rows`` (Gaussian noise) and ``_smote_rows`` (SMOTE
interpolation, which copies a one-row group's row).

The editing rules (Tomek links, ENN, NCL and the Tomek pass of OSS) are
array expressions over one k-NN or 1-NN table and each row's class
code, the target column's code: the label's position in label order.
The synthesisers' nominal cells are codes too, so the output is built
from codes and no label is coded again.  ``_outcome`` builds their
outputs too, and OSS's, so it builds every ``StrategyOutcome``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._util import balanced_quota, floor_frac, inverted_quota, nominal_freqs, sample_sd
from .distance import Metric, MetricContext, build_context, check_spread, knn_table
from .relevance import BumpPartition
from .tabular import ColumnKind, Dataset, class_counts, index_dtype

__all__ = [
    "ClassPercSpec",
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
class _PercSpec:
    """Per-group resampling intensity: balance, extreme, or explicit.

    The class and bump specs differ only in their explicit percentages.
    """

    mode: str
    percs: object = None

    @classmethod
    def balance(cls):
        return cls("balance")

    @classmethod
    def extreme(cls):
        return cls("extreme")

    def __post_init__(self) -> None:
        if self.mode not in ("balance", "extreme", "explicit"):
            raise ResampleError(f"unknown percentage mode {self.mode!r}")
        if self.mode == "explicit" and not self.percs:
            raise ResampleError("explicit percentage spec is empty")


class ClassPercSpec(_PercSpec):
    """Per-class intensity; explicit percentages map class labels."""

    @classmethod
    def explicit(cls, percs: Mapping[str, float]) -> "ClassPercSpec":
        return cls("explicit", dict(percs))


@dataclass
class StrategyOutcome:
    """A strategy's output and what it did to the input's rows.

    ``removed`` holds the input rows not kept, ascending; only
    importance sampling's mode B may add a replica of one.  ``seeds``
    holds each added row's seed row and ``synthetic`` whether that row
    is new rather than a copy: first the extra copies of rows kept more
    than once, then the rows each grown group added, in group order.
    ``removed`` and ``seeds`` are arrays in ``index_dtype`` of the
    input's row count, the dtype of the output's ``origins``.  A bump
    strategy keeps the input's bump ``partition``.  ``_outcome`` builds
    every outcome, and no field is set after it.
    """

    dataset: Dataset
    removed: np.ndarray
    seeds: np.ndarray
    synthetic: np.ndarray
    warnings: list[str]
    partition: BumpPartition | None = None


# explicit percentage rules, by name: which percentages are valid, the
# error for the others, whose template takes " for class 'c'" or "s",
# and (perc, count) -> target
_PERC_RULES = {
    "under": (lambda p: 0 < p <= 1, "under-sampling percentage{} must be in (0, 1]",
              floor_frac),
    "over": (lambda p: p >= 1, "over-sampling percentage{} must be at least 1", floor_frac),
    "positive": (lambda p: p > 0, "percentage{} must be positive", floor_frac),
    "additive": (lambda p: p >= 0, "over-sampling percentage{} must be non-negative",
                 lambda p, n: n + floor_frac(p, n)),
}


def _perc_targets(percs: Sequence[tuple[str, float, int, str]]) -> list[int]:
    """Targets of explicit percentages, each (whose, perc, count, rule):
    all must be finite, then each valid under ``_PERC_RULES[rule]``."""
    for whose, perc, _, _ in percs:
        if not math.isfinite(perc):
            raise ResampleError(f"percentage{whose} must be finite")
    targets = []
    for whose, perc, count, rule in percs:
        valid, error, target = _PERC_RULES[rule]
        if not valid(perc):
            raise ResampleError(error.format(whose))
        targets.append(target(perc, count))
    return targets


def _explicit_targets(counts: Mapping[str, int], percs: Mapping[str, float],
                      rule: str) -> dict[str, int]:
    """Explicit-mode targets: for each class ``percs`` names, its
    percentage under ``_PERC_RULES[rule]``; every other class keeps its
    count.
    """
    _resolve_cl(percs, counts)  # the classes named must be known
    targets = _perc_targets([(f" for class {c!r}", p, counts[c], rule)
                             for c, p in sorted(percs.items())])
    return {**dict(sorted(counts.items())), **dict(zip(sorted(percs), targets))}


def resolve_targets_under(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    """Per-class row targets for under-sampling strategies."""
    if spec.mode == "explicit":
        return _explicit_targets(counts, spec.percs, "under")
    m = min(counts.values())
    return {c: m if spec.mode == "balance" else m * m // counts[c] for c in sorted(counts)}


def resolve_targets_over(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    """Per-class row targets for over-sampling strategies."""
    if spec.mode == "explicit":
        return _explicit_targets(counts, spec.percs, "over")
    m = max(counts.values())
    return {c: m if spec.mode == "balance" else round(m * m / counts[c]) for c in sorted(counts)}


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
    return _explicit_targets(counts, spec.percs, "positive")


def _resolve_impsamp(counts: Mapping[str, int], spec: ClassPercSpec) -> dict[str, int]:
    """Mixed targets, except that Balance gives every class trunc(total / k)."""
    if spec.mode == "balance":
        return dict.fromkeys(sorted(counts), sum(counts.values()) // len(counts))
    return _resolve_mixed(counts, spec)


def _class_indices(ds: Dataset) -> dict[str, np.ndarray]:
    """Each class's row indices, ascending, in label order.

    Callers have checked the target with ``class_counts``.
    """
    codes, labels = ds.target_column.values, ds.target_column.categories
    ends = np.cumsum(np.bincount(codes, minlength=len(labels)))
    return dict(zip(labels, np.split(np.argsort(codes, kind="stable"), ends[:-1])))


def _class_mask(labels: Sequence[str], chosen) -> np.ndarray:
    """Per class code: whether its label is in ``chosen``."""
    return np.array([c in chosen for c in labels], dtype=bool)


def _nonempty(groups):
    """A table's class counts or bumps, refused where there is none: the
    table has no rows."""
    if not groups:
        raise ResampleError("empty dataset")
    return groups


def _check_pert(pert: float) -> None:
    """Refuse a noise scale that is negative or not finite."""
    if not (math.isfinite(pert) and pert >= 0):
        raise ResampleError("pert must be a finite non-negative number")


def _check_k(k: int) -> None:
    """Refuse a SMOTE neighbour count below 1."""
    if k < 1:
        raise ResampleError("k must be at least 1")


def _class_groups(ds: Dataset, resolve: Callable, spec: ClassPercSpec) -> list[tuple]:
    """Driver groups: (label, row indices, target) in label order, each
    target as ``resolve(counts, spec)`` gives it."""
    targets = resolve(_nonempty(class_counts(ds)), spec)
    return [(c, idx, targets[c]) for c, idx in _class_indices(ds).items()]


def _resample(
    ds: Dataset,
    groups: Sequence[tuple],
    shrink: Callable,
    grow: Callable | None = None,
    lone: str | None = None,
    partition: BumpPartition | None = None,
) -> StrategyOutcome:
    """The shrink/grow driver shared by the class and bump strategies.

    ``groups`` holds (key, row indices, target) per class or bump.  A
    group above its target keeps the rows ``shrink(key, idx, target)``
    returns.  Any other group keeps every row, and when it is below its
    target ``grow(key, idx, extra)`` adds ``extra`` rows: it returns
    their seed rows and a column block, or None for plain replicas of
    the seeds.  The callbacks run in group order.  A grown one-row group
    warns with ``lone``, if given, formatted with its key.  The outcome
    keeps a bump strategy's ``partition``.
    """
    parts, added, warnings = [], [], []
    for key, idx, t in groups:
        if t < len(idx):
            parts.append(shrink(key, idx, t))
            continue
        parts.append(idx)
        if t > len(idx):
            if lone and len(idx) == 1:
                warnings.append(lone.format(key))
            added.append(grow(key, idx, t - len(idx)))
    return _outcome(ds, np.sort(np.concatenate(parts)), added, warnings, partition)


def _outcome(
    ds: Dataset,
    kept: np.ndarray,
    added: Sequence[tuple[np.ndarray, dict | None]] = (),
    warnings: list[str] | None = None,
    partition: BumpPartition | None = None,
) -> StrategyOutcome:
    """The output and bookkeeping of kept rows plus added ones.

    ``kept`` ascends, and a row may repeat in it.  ``added`` holds
    (seed rows, block | None) per grown group: a column block of
    synthetic rows, or None for replicas of the seeds.  The output
    holds ``kept``, then the replicas, then the blocks; its ``origins``
    are those rows, then -1 per block row.  A row kept twice is one
    more added copy.  ``removed`` and ``seeds`` are in the origins'
    dtype.
    """
    blocks = [b for _, b in added if b is not None]
    block = ({c: np.concatenate([b[c] for b in blocks]) for c in blocks[0]}
             if blocks else None)
    # in the dtype of the output's origins, which it becomes
    dtype = index_dtype(ds.n_rows)
    idx = np.concatenate([kept, *(s for s, b in added if b is None)], dtype=dtype)
    out = ds.take(idx, block)
    kept = idx[:len(kept)]
    if blocks:
        idx = np.concatenate([idx, np.full(out.n_rows - len(idx), -1, dtype)])
    out.origins = idx
    gone = np.ones(ds.n_rows, dtype=bool)
    gone[kept] = False
    removed = np.arange(ds.n_rows, dtype=dtype)[gone]
    # the ascending kept rows hold each extra copy beside its row
    copies = kept[1:][kept[1:] == kept[:-1]]
    seeds = np.concatenate([copies, *(s for s, _ in added)], dtype=dtype)
    synthetic = np.repeat([False, *(b is not None for _, b in added)],
                          [len(copies), *(len(s) for s, _ in added)])
    return StrategyOutcome(out, removed, seeds, synthetic, warnings or [], partition)


def _sample(rng: np.random.Generator, repl: bool = False) -> Callable:
    """Shrink callback: a uniform sample of the group, drawn with ``repl``."""
    return lambda key, idx, t: rng.choice(idx, size=t, replace=repl)


def _replicas(rng: np.random.Generator) -> Callable:
    """Grow callback: replicas of rows drawn uniformly from the group."""
    return lambda key, idx, extra: (rng.choice(idx, size=extra, replace=True), None)


def _noise_rows(
    ds: Dataset, rng: np.random.Generator, pert: float, idx: np.ndarray, extra: int
) -> tuple[np.ndarray, dict]:
    """Gaussian-noise synthesis, shared by classes and bumps.

    Each new row copies a seed row drawn uniformly from ``idx`` and
    adds N(0, pert * sd) to every numeric column, a numeric target
    included, where sd is the sample standard deviation within the
    group.  A nominal feature is drawn from its frequencies within the
    group; it is copied from the seed when ``pert`` is 0 or the group
    has no present cell.  A nominal target is copied with no draw.  A
    numeric column whose sd within the group is not finite is refused,
    and so is one whose noise overflows a present seed's cell.
    """
    seeds = rng.choice(idx, size=extra, replace=True)
    block = {}
    for col in ds.columns:
        vals = col.values
        if col.kind is ColumnKind.NUMERIC:
            with np.errstate(over="ignore", invalid="ignore"):
                sd = sample_sd(vals[idx])
                new = vals[seeds] + rng.normal(0.0, 1.0, size=extra) * pert * sd
            check_spread(col.name, sd)
            if not np.isfinite(new[~np.isnan(vals[seeds])]).all():
                raise ResampleError(f"column {col.name!r}: the noise overflows; pert is too large")
            block[col.name] = new
        elif pert == 0 or col.name == ds.target:
            block[col.name] = vals[seeds]
        else:
            present, freqs = nominal_freqs(vals[idx])
            block[col.name] = (
                present[rng.choice(len(present), size=extra, p=freqs)]
                if len(present) else vals[seeds]
            )
    return seeds, block


def _smote_rows(
    ds: Dataset, ctx: MetricContext, k: int, rng: np.random.Generator,
    idx: np.ndarray, extra: int,
) -> tuple[np.ndarray, dict, np.ndarray]:
    """SMOTE synthesis, shared by classes and bumps.

    Each new row takes a seed row drawn uniformly from ``idx`` and one
    of its min(k, len(idx) - 1) nearest neighbours within ``idx``.  A
    numeric column moves a uniform fraction of the way from the seed to
    the neighbour, a nominal feature copies one of the two ends at even
    odds, and a nominal target is copied from the seed.  The draws come
    in one order: seed positions, neighbour picks, fractions, then one
    coin per nominal feature in column order.  A one-row group has no
    neighbour: its new rows copy the row, which is each one's seed and
    neighbour, and nothing is drawn.  Returns the seeds, the block and
    the neighbours.
    """
    if len(idx) == 1:
        seeds = np.repeat(idx, extra)
        return seeds, {c.name: c.values[seeds] for c in ds.columns}, seeds
    k_eff = min(k, len(idx) - 1)
    nbr_table = knn_table(ctx, k_eff, rows=idx)
    seed_pos = rng.integers(0, len(idx), size=extra)
    nbr_pick = rng.integers(0, k_eff, size=extra)
    u = rng.random(size=extra)
    seeds, nbrs = idx[seed_pos], idx[nbr_table[seed_pos, nbr_pick]]
    block = {}
    for col in ds.columns:
        s_vals, n_vals = col.values[seeds], col.values[nbrs]
        if col.kind is ColumnKind.NUMERIC:
            block[col.name] = s_vals + u * (n_vals - s_vals)
        elif col.name == ds.target:
            block[col.name] = s_vals
        else:
            block[col.name] = np.where(rng.random(size=extra) < 0.5, s_vals, n_vals)
    return seeds, block, nbrs


def rand_under_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Randomly drop rows of the classes ``spec`` shrinks."""
    groups = _class_groups(ds, resolve_targets_under, spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, groups, _sample(rng, repl))


def rand_over_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    seed: int | None = None,
) -> StrategyOutcome:
    """Append uniformly chosen replicas until each class meets its target."""
    groups = _class_groups(ds, resolve_targets_over, spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, groups, _sample(rng), _replicas(rng))


def imp_samp_classif(
    ds: Dataset,
    spec: ClassPercSpec,
    seed: int | None = None,
) -> StrategyOutcome:
    """Move every class toward its target by dropping or replicating."""
    groups = _class_groups(ds, _resolve_impsamp, spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, groups, _sample(rng), _replicas(rng))


def _resolve_cl(cl, counts: Mapping[str, int]) -> list[str]:
    """Interpret a class list: 'all', 'smaller', or labels, each of
    which must name a class of ``counts``."""
    if cl == "all":
        return sorted(counts)
    if cl == "smaller":
        total = sum(counts.values())
        k = len(counts)
        return sorted(c for c, n in counts.items() if n * k < total)
    labels = [cl] if isinstance(cl, str) else list(cl)
    unknown = sorted(set(labels) - set(counts))
    if unknown:
        raise ResampleError(f"unknown classes: {unknown}")
    return sorted(set(labels))


def _important_classes(cl, counts: Mapping[str, int]) -> tuple[list[str], list[str]]:
    """CNN's and OSS's important classes and the rest, which holds one."""
    important = _resolve_cl(cl, counts)
    if set(important) == set(counts):
        raise ResampleError("every class is marked important: nothing to condense")
    return important, sorted(set(counts) - set(important))


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
    code, labels = ds.target_column.values, ds.target_column.categories
    in_cl = _class_mask(labels, _resolve_cl(cl, counts))[code]
    size = np.bincount(code)[code]
    ctx = build_context(metric, ds)
    # a lone row has no other row to link with: it is its own partner
    nn = knn_table(ctx, 1)[:, 0] if ds.n_rows > 1 else np.arange(ds.n_rows)
    link = (nn[nn] == np.arange(ds.n_rows)) & (code != code[nn])
    # a row drops when its partner's class may not lose rows, or under
    # "maj" when its own class is strictly bigger: a tied pair stays
    drop = link & in_cl & ((rem == "both") | ~in_cl[nn] | (size > size[nn]))
    warnings = [] if drop.any() else [WARN_TOMEK_NONE]
    return _outcome(ds, np.flatnonzero(~drop), warnings=warnings)


def cnn_classif(
    ds: Dataset,
    metric: Metric,
    cl="smaller",
    seed: int | None = None,
) -> tuple[StrategyOutcome, list[str], list[str]]:
    """Condense the dataset while keeping it 1-NN-consistent.

    All rows of the important classes are kept, plus one random row per
    remaining class.  Each round asks ``knn_table`` for every unkept
    row's nearest kept row and pulls in the rows it misclassifies, until
    every original row classifies correctly by 1-NN over the kept set.
    Returns the outcome plus the important and unimportant class lists.
    """
    important, unimportant = _important_classes(cl, _nonempty(class_counts(ds)))
    code = ds.target_column.values
    kept_mask = _class_mask(ds.target_column.categories, important)[code]
    rng = np.random.default_rng(seed)
    by_class = _class_indices(ds)
    for label in unimportant:
        idx = by_class[label]
        kept_mask[idx[rng.integers(len(idx))]] = True

    ctx = build_context(metric, ds)
    # each round measures every unkept row against every kept row; the
    # kept rows ascend, so the engine's tie rule picks the lowest index
    while True:
        q, kept = np.flatnonzero(~kept_mask), np.flatnonzero(kept_mask)
        pos = knn_table(ctx, 1, q, kept)[:, 0]
        new = q[code[kept[pos]] != code[q]]
        if not len(new):
            break
        kept_mask[new] = True
    return _outcome(ds, np.flatnonzero(kept_mask)), important, unimportant


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
    important, unimportant = _important_classes(cl, _nonempty(class_counts(ds)))

    if start == "cnn":
        first, _, _ = cnn_classif(ds, metric, cl=important, seed=seed)
        second = tomek_classif(first.dataset, metric, cl=unimportant, rem="both")
    else:
        first = tomek_classif(ds, metric, cl=unimportant, rem="both")
        if set(class_counts(first.dataset)) <= set(important):
            # the Tomek pass left no row of an unimportant class: CNN has
            # nothing to condense
            return first, important, unimportant
        second, _, _ = cnn_classif(first.dataset, metric, cl=important, seed=seed)
    # second's origins index the rows the first phase kept
    kept = first.dataset.origins[second.dataset.origins]
    return _outcome(ds, kept, warnings=first.warnings + second.warnings), important, unimportant


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
    counts = _nonempty(class_counts(ds))
    code, labels = ds.target_column.values, ds.target_column.categories
    in_cl = _class_mask(labels, _resolve_cl(cl, counts))[code]
    nbrs = knn_table(build_context(metric, ds), k)
    same = (code[nbrs] == code[:, None]).sum(axis=1)
    marked = in_cl & (same < math.ceil(k / 2))
    rng = np.random.default_rng(seed)
    for idx in _class_indices(ds).values():
        if marked[idx].all():
            marked[idx[rng.integers(len(idx))]] = False
    warnings = [] if marked.any() else [WARN_ENN_NONE]
    return _outcome(ds, np.flatnonzero(~marked), warnings=warnings)


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
    counts = _nonempty(class_counts(ds))
    key = _resolve_cl(cl, counts)
    if not key:
        raise ResampleError("no key classes to clean around")
    code = ds.target_column.values
    is_key = _class_mask(ds.target_column.categories, key)
    sizes = np.bincount(code)
    # outside classes whose rows A2 may take
    takeable = ~is_key & (sizes >= 0.5 * sizes[is_key].min())
    nbrs = knn_table(build_context(metric, ds), k)
    diff = (code[nbrs] != code[:, None]).sum(axis=1)
    a1 = ~is_key[code] & (diff >= math.ceil(k / 2))
    near_key = nbrs[is_key[code]].ravel()
    drop = a1.copy()
    drop[near_key[takeable[code[near_key]]]] = True
    warnings = [] if a1.any() else [WARN_ENN_NONE]
    return _outcome(ds, np.flatnonzero(~drop), warnings=warnings)


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
    _check_pert(pert)
    groups = _class_groups(ds, _resolve_mixed, spec)
    rng = np.random.default_rng(seed)
    return _resample(ds, groups, _sample(rng, repl),
                     lambda _, idx, extra: _noise_rows(ds, rng, pert, idx, extra))


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
    _check_k(k)
    groups = _class_groups(ds, _resolve_mixed, spec)
    ctx = build_context(metric, ds)
    rng = np.random.default_rng(seed)
    return _resample(ds, groups, _sample(rng, repl),
                     lambda _, idx, extra: _smote_rows(ds, ctx, k, rng, idx, extra)[:2],
                     "SmoteClassif: class {!r} has a single example; "
                     "synthetic rows are plain replicas")
