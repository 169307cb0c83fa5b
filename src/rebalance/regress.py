"""Resampling strategies for imbalanced regression.

The strategies act on bumps: maximal runs of target-sorted rows on one
side of a relevance threshold (see ``rebalance.relevance``).  Rare
bumps (relevance >= threshold) hold the interesting extreme values and
get grown; Normal bumps get shrunk.

Count semantics differ per strategy and are part of the contract:
random over-sampling is additive (a percentage adds that fraction on
top), smote-style over-sampling is multiplicative (the percentage fixes
the final size), and Balance / Extreme modes derive absolute per-bump
targets from the bump sizes alone.

SMOTER is SMOTE on bumps, and the random and Gaussian-noise strategies
follow their classification twins: all of them run through the
shrink/grow driver and the synthesisers of ``rebalance.classif``, with
bumps, in partition order, standing in for classes.  SMOTER adds its
distance-weighted target on top of the shared SMOTE rows.
Importance sampling's mode A runs through the driver too, with a
relevance-weighted drop as its shrink callback and relevance-weighted
replicas as its grow callback; mode B has no bumps and builds its
outcome with the driver's ``_outcome``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import balanced_quota, floor_frac, inverted_quota
from .classif import (
    ResampleError,
    StrategyOutcome,
    _PercSpec,
    _copies,
    _noise_rows,
    _outcome,
    _replicas,
    _resample,
    _sample,
    _smote_rows,
)
from .distance import Metric, build_context, encode_rows, paired_distances
from .relevance import Bump, BumpPartition, RelevanceFn, find_bumps
from .tabular import ColumnKind, Dataset

__all__ = [
    "BumpPercSpec",
    "ImpSampParams",
    "rand_under_regress",
    "rand_over_regress",
    "gauss_noise_regress",
    "smoter",
    "imp_samp_regress",
]


class BumpPercSpec(_PercSpec):
    """Per-bump intensity; explicit percentages list one number per bump."""

    @classmethod
    def explicit(cls, percs: Sequence[float]) -> "BumpPercSpec":
        return cls("explicit", tuple(float(p) for p in percs))


@dataclass(frozen=True)
class ImpSampParams:
    """Parameters for importance sampling.

    Mode A uses a relevance threshold plus a per-bump spec; mode B uses
    the global knobs ``u`` (removal strength) and ``o`` (replication
    strength) with no threshold at all.
    """

    thr_rel: float | None = None
    spec: BumpPercSpec | None = None
    u: float | None = None
    o: float | None = None


# explicit percentage rules, one per kind of bump: which percentages
# are valid, the error for the others, and (perc, count) -> target
_UNDER = (lambda p: 0 < p <= 1, "under-sampling percentages must be in (0, 1]", floor_frac)
_ADDITIVE = (lambda p: p >= 0, "over-sampling percentages must be non-negative",
            lambda p, n: n + floor_frac(p, n))
_MULTIPLICATIVE = (lambda p: p >= 1, "over-sampling percentages must be at least 1",
                  floor_frac)


def _explicit_targets(spec: BumpPercSpec, bumps: Sequence[Bump], what: str,
                      rare_rule: tuple | None = None) -> list[int]:
    """Targets of an explicit spec, one percentage per bump in ``bumps``.

    Normal bumps follow ``_UNDER`` and Rare bumps ``rare_rule``.
    """
    if len(spec.percs) != len(bumps):
        raise ResampleError(
            f"expected one percentage per {what} ({len(bumps)}), got {len(spec.percs)}"
        )
    if not all(math.isfinite(p) for p in spec.percs):
        raise ResampleError("bump percentages must be finite numbers")
    targets = []
    for p, b in zip(spec.percs, bumps):
        valid, error, target = rare_rule if b.rare else _UNDER
        if not valid(p):
            raise ResampleError(error)
        targets.append(target(p, b.count))
    return targets


def _resample_bumps(ds: Dataset, part: BumpPartition, targets: Sequence[int],
                    shrink: Callable, grow: Callable | None = None,
                    warnings: list[str] | None = None,
                    rare: bool | None = None) -> StrategyOutcome:
    """The shrink/grow driver over every bump of ``part``, in partition order.

    ``targets`` covers the bumps of one side (``rare``) or all of them
    (None); the other side keeps its size.  The outcome keeps ``part``.
    """
    it = iter(targets)
    groups = [
        (b, b.indices, next(it) if rare is None or b.rare == rare else b.count)
        for b in part.bumps
    ]
    out = _resample(ds, groups, shrink, grow, warnings)
    out.partition = part
    return out


def rand_under_regress(
    ds: Dataset,
    fn: RelevanceFn,
    thr_rel: float = 0.5,
    spec: BumpPercSpec = BumpPercSpec.balance(),
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Randomly drop rows from the Normal bumps; Rare bumps stay whole."""
    part = find_bumps(ds, fn, thr_rel)
    normals = part.normal_bumps
    rares = part.rare_bumps
    if not normals:
        raise ResampleError("no bump below the relevance threshold to under-sample")
    if spec.mode == "explicit":
        targets = _explicit_targets(spec, normals, "Normal bump")
    else:
        total_rare = sum(b.count for b in rares)
        if total_rare == 0:
            raise ResampleError("no bump above the relevance threshold")
        if spec.mode == "balance":
            quota = total_rare // len(normals)
            targets = [min(quota, b.count) for b in normals]
        else:
            targets = [
                min(total_rare * total_rare // b.count, b.count) for b in normals
            ]
    rng = np.random.default_rng(seed)
    return _resample_bumps(ds, part, targets, _sample(rng, repl), rare=False)


def rand_over_regress(
    ds: Dataset,
    fn: RelevanceFn,
    thr_rel: float = 0.5,
    spec: BumpPercSpec = BumpPercSpec.balance(),
    seed: int | None = None,
) -> StrategyOutcome:
    """Append replicas inside the Rare bumps (additive percentages)."""
    part = find_bumps(ds, fn, thr_rel)
    rares = part.rare_bumps
    normals = part.normal_bumps
    if not rares:
        raise ResampleError("no bump above the relevance threshold to over-sample")
    if spec.mode == "explicit":
        targets = _explicit_targets(spec, rares, "Rare bump", _ADDITIVE)
    else:
        if not normals:
            raise ResampleError("no bump below the relevance threshold")
        m = max(b.count for b in normals)
        if spec.mode == "balance":
            extras = [m for _ in rares]
        else:
            extras = [m * m // b.count for b in rares]
        targets = [b.count + extra for b, extra in zip(rares, extras)]
    rng = np.random.default_rng(seed)
    return _resample_bumps(ds, part, targets, _sample(rng), _replicas(rng), rare=True)


def _mixed_bump_targets(spec: BumpPercSpec, part: BumpPartition,
                        rare_rule: tuple) -> list[int]:
    """Absolute per-bump targets for the shrink-and-grow strategies."""
    bumps = part.bumps
    counts = [b.count for b in bumps]
    total = sum(counts)
    if spec.mode == "balance":
        return balanced_quota(total, len(bumps))
    if spec.mode == "extreme":
        return inverted_quota(counts, total)
    return _explicit_targets(spec, bumps, "bump", rare_rule)


def gauss_noise_regress(
    ds: Dataset,
    fn: RelevanceFn,
    thr_rel: float = 0.5,
    spec: BumpPercSpec = BumpPercSpec.balance(),
    pert: float = 0.1,
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Grow Rare bumps with noisy copies, shrink Normal bumps at random.

    Synthetic rows jitter every numeric feature and the target by
    N(0, pert * sd) with sd taken within the bump.  Explicit rare-bump
    percentages are additive, like random over-sampling.
    """
    if not (math.isfinite(pert) and pert >= 0):
        raise ResampleError("pert must be a finite non-negative number")
    part = find_bumps(ds, fn, thr_rel)
    if not part.bumps:
        raise ResampleError("empty dataset")
    targets = _mixed_bump_targets(spec, part, _ADDITIVE)
    rng = np.random.default_rng(seed)
    warnings: list[str] = []

    def grow(bump, idx, extra):
        if len(idx) == 1:
            warnings.append(
                "GaussNoiseRegress: a single-example bump was grown with "
                "noise-free replicas"
            )
        return _noise_rows(ds, rng, pert, idx, extra)

    return _resample_bumps(ds, part, targets, _sample(rng, repl), grow, warnings)


def smoter(
    ds: Dataset,
    fn: RelevanceFn,
    thr_rel: float = 0.5,
    spec: BumpPercSpec = BumpPercSpec.balance(),
    k: int = 5,
    metric: Metric = Metric("euclidean"),
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Grow Rare bumps by neighbour interpolation; shrink Normal bumps.

    Explicit rare-bump percentages are multiplicative: the final bump
    size is trunc(perc * count).  The synthetic target is the
    inverse-distance weighted mean of the two parent targets.  Each
    bump's synthetic rows and both parent distances come from one
    vectorised pass.  ``build_context`` refuses missing cells under a
    plain metric; a synthetic target that comes out NaN, because both
    its parent distances overflow to infinity, raises ResampleError.
    """
    if k < 1:
        raise ResampleError("k must be at least 1")
    part = find_bumps(ds, fn, thr_rel)
    if not part.rare_bumps:
        raise ResampleError("no bump above the relevance threshold to over-sample")
    targets = _mixed_bump_targets(spec, part, _MULTIPLICATIVE)
    ctx = build_context(metric, ds)
    rng = np.random.default_rng(seed)
    y = ds.target_column.values
    warnings: list[str] = []

    def grow(bump, idx, extra):
        if len(idx) == 1:
            warnings.append(
                "SmoteRegress: a single-example bump was grown with plain replicas"
            )
            return _copies(ds, idx, extra)
        seeds, nbrs, block = _smote_rows(ds, metric, ctx, k, rng, idx, extra)
        # the block's cells are kernel operands: values and codes
        new_ops = [block[c.name] for c in ds.feature_columns]
        d1 = paired_distances(metric, ctx, new_ops, encode_rows(ctx, seeds))
        d2 = paired_distances(metric, ctx, new_ops, encode_rows(ctx, nbrs))
        y1, y2 = y[seeds], y[nbrs]
        with np.errstate(invalid="ignore", divide="ignore"):
            new_y = np.where(d1 + d2 == 0, (y1 + y2) / 2.0,
                             (d2 * y1 + d1 * y2) / (d1 + d2))
        if np.isnan(new_y).any():
            raise ResampleError(
                f"synthetic targets are NaN: the {metric.name} distances from a "
                "synthetic row to both its parents overflow to infinity; "
                "--dist heom scales each feature by its range"
            )
        block[ds.target] = new_y
        return seeds, block

    return _resample_bumps(ds, part, targets, _sample(rng, repl), grow, warnings)


def _proportional(w: np.ndarray) -> np.ndarray | None:
    """Draw probabilities proportional to ``w``, or None (uniform) if it sums to 0."""
    total = w.sum()
    return w / total if total > 0 else None


def imp_samp_regress(
    ds: Dataset,
    fn: RelevanceFn,
    params: ImpSampParams,
    seed: int | None = None,
) -> StrategyOutcome:
    """Importance sampling driven by the relevance of each target value.

    Mode A (threshold + spec) resolves per-bump targets like the random
    strategies but picks rows by relevance weight: removals prefer low
    relevance (weight 1 - phi), replications prefer high relevance
    (weight phi).  Mode B (u, o) skips bumps entirely: each row is
    dropped with probability u * (1 - phi(y)) and trunc(o * sum(phi))
    replicas are drawn with weights phi.
    """
    mode_a = params.thr_rel is not None or params.spec is not None
    mode_b = params.u is not None or params.o is not None
    if mode_a == mode_b:
        raise ResampleError(
            "give either thr_rel with a bump spec (mode A) or u and o (mode B)"
        )
    rng = np.random.default_rng(seed)
    y = ds.target_column.values
    if ds.target_column.kind is not ColumnKind.NUMERIC:
        raise ResampleError("importance sampling needs a numeric target")
    phi = np.asarray(fn(y), dtype=np.float64)

    if mode_a:
        if params.thr_rel is None or params.spec is None:
            raise ResampleError("mode A needs both thr_rel and a bump spec")
        part = find_bumps(ds, fn, params.thr_rel)
        targets = _mixed_bump_targets(params.spec, part, _ADDITIVE)

        def shrink(bump, idx, t):
            p = _proportional(1.0 - phi[idx])
            drop = len(idx) - t
            if p is not None and np.count_nonzero(p) < drop:
                raise ResampleError(
                    f"the {'Rare' if bump.rare else 'Normal'} bump of targets "
                    f"{bump.y_low!r} to {bump.y_high!r} must lose {drop} rows but holds "
                    f"only {np.count_nonzero(p)} with relevance below 1"
                )
            return np.setdiff1d(idx, rng.choice(idx, size=drop, replace=False, p=p))

        def grow(_, idx, extra):
            return rng.choice(idx, size=extra, replace=True, p=_proportional(phi[idx])), None

        return _resample_bumps(ds, part, targets, shrink, grow)

    u, o = params.u, params.o
    if u is None or o is None:
        raise ResampleError("mode B needs both u and o")
    if not 0 <= u <= 1:
        raise ResampleError("u must lie in [0, 1]")
    if not (math.isfinite(o) and o >= 0):
        raise ResampleError("o must be a finite non-negative number")
    drop = rng.random(ds.n_rows) < u * (1.0 - phi)
    total_phi = float(phi.sum())
    m = int(math.floor(o * total_phi))
    seeds = (rng.choice(ds.n_rows, size=m, p=phi / total_phi) if m > 0
             else np.empty(0, dtype=np.intp))
    return _outcome(ds, np.flatnonzero(~drop), [seeds], [], [(seeds, False)])
