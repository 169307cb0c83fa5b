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
bumps, in partition order, standing in for classes.  The driver
writes the one-row warnings and hands each outcome its partition.
SMOTER adds its distance-weighted target on top of the shared SMOTE
rows.  Importance sampling's mode A runs through the driver too, with
a relevance-weighted drop as its shrink callback and
relevance-weighted replicas as its grow callback; mode B has no bumps
and hands the driver's ``_outcome`` its replicas as one grown group,
(seeds, None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import balanced_quota, inverted_quota
from .classif import (
    ResampleError,
    StrategyOutcome,
    _PercSpec,
    _check_k,
    _check_pert,
    _noise_rows,
    _nonempty,
    _outcome,
    _perc_targets,
    _replicas,
    _resample,
    _sample,
    _smote_rows,
)
from .distance import Metric, build_context, encode_rows, paired_distances
from .relevance import Bump, BumpPartition, RelevanceFn, find_bumps, numeric_target
from .tabular import Dataset

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


def _explicit_targets(spec: BumpPercSpec, bumps: Sequence[Bump], what: str,
                      rare_rule: str | None = None) -> list[int]:
    """Targets of an explicit spec, one percentage per bump in ``bumps``.

    Normal bumps follow the "under" rule of ``_PERC_RULES`` and Rare
    bumps ``rare_rule``.
    """
    if len(spec.percs) != len(bumps):
        raise ResampleError(
            f"expected one percentage per {what} ({len(bumps)}), got {len(spec.percs)}"
        )
    return _perc_targets([("s", p, b.count, rare_rule if b.rare else "under")
                          for p, b in zip(spec.percs, bumps)])


def _bumps(ds: Dataset, fn: RelevanceFn, thr_rel: float) -> BumpPartition:
    """The bumps of ``ds``, which must hold a row."""
    part = find_bumps(ds, fn, thr_rel)
    _nonempty(part.bumps)
    return part


def _rare_bumps(part: BumpPartition) -> tuple[Bump, ...]:
    """The Rare bumps of ``part``, refused where there is none."""
    rares = part.rare_bumps
    if not rares:
        raise ResampleError("no bump above the relevance threshold")
    return rares


def _normal_bumps(part: BumpPartition) -> tuple[Bump, ...]:
    """The Normal bumps of ``part``, refused where there is none."""
    normals = part.normal_bumps
    if not normals:
        raise ResampleError("no bump below the relevance threshold")
    return normals


def _resample_bumps(ds: Dataset, part: BumpPartition, targets: Sequence[int],
                    shrink: Callable, grow: Callable | None = None,
                    lone: str | None = None, rare: bool | None = None) -> StrategyOutcome:
    """The shrink/grow driver over every bump of ``part``, in partition order.

    ``targets`` covers the bumps of one side (``rare``) or all of them
    (None); the other side keeps its size.  ``lone`` is the driver's
    one-row warning.  The outcome keeps ``part``.
    """
    it = iter(targets)
    groups = [
        (b, b.indices, next(it) if rare is None or b.rare == rare else b.count)
        for b in part.bumps
    ]
    return _resample(ds, groups, shrink, grow, lone, part)


def rand_under_regress(
    ds: Dataset,
    fn: RelevanceFn,
    thr_rel: float = 0.5,
    spec: BumpPercSpec = BumpPercSpec.balance(),
    repl: bool = False,
    seed: int | None = None,
) -> StrategyOutcome:
    """Randomly drop rows from the Normal bumps; Rare bumps stay whole."""
    part = _bumps(ds, fn, thr_rel)
    normals = _normal_bumps(part)
    if spec.mode == "explicit":
        targets = _explicit_targets(spec, normals, "Normal bump")
    else:
        total_rare = sum(b.count for b in _rare_bumps(part))
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
    part = _bumps(ds, fn, thr_rel)
    rares = _rare_bumps(part)
    if spec.mode == "explicit":
        targets = _explicit_targets(spec, rares, "Rare bump", "additive")
    else:
        m = max(b.count for b in _normal_bumps(part))
        if spec.mode == "balance":
            extras = [m for _ in rares]
        else:
            extras = [m * m // b.count for b in rares]
        targets = [b.count + extra for b, extra in zip(rares, extras)]
    rng = np.random.default_rng(seed)
    return _resample_bumps(ds, part, targets, _sample(rng), _replicas(rng), rare=True)


def _mixed_bump_targets(spec: BumpPercSpec, part: BumpPartition,
                        rare_rule: str) -> list[int]:
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
    _check_pert(pert)
    part = _bumps(ds, fn, thr_rel)
    targets = _mixed_bump_targets(spec, part, "additive")
    rng = np.random.default_rng(seed)
    return _resample_bumps(ds, part, targets, _sample(rng, repl),
                           lambda _, idx, extra: _noise_rows(ds, rng, pert, idx, extra),
                           "GaussNoiseRegress: a single-example bump was grown with "
                           "noise-free replicas")


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
    _check_k(k)
    part = _bumps(ds, fn, thr_rel)
    _rare_bumps(part)
    targets = _mixed_bump_targets(spec, part, "over")
    ctx = build_context(metric, ds)
    rng = np.random.default_rng(seed)
    y = ds.target_column.values

    def grow(_, idx, extra):
        seeds, block, nbrs = _smote_rows(ds, ctx, k, rng, idx, extra)
        # the block's cells are kernel operands: values and codes
        new_ops = [block[c.name] for c in ds.feature_columns]
        d1 = paired_distances(ctx, new_ops, encode_rows(ctx, seeds))
        d2 = paired_distances(ctx, new_ops, encode_rows(ctx, nbrs))
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
        # rounding can carry the weighted mean an ulp past both parents
        block[ds.target] = np.clip(new_y, np.minimum(y1, y2), np.maximum(y1, y2))
        return seeds, block

    return _resample_bumps(ds, part, targets, _sample(rng, repl), grow,
                           "SmoteRegress: a single-example bump was grown with plain replicas")


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
    phi = np.asarray(fn(numeric_target(ds)), dtype=np.float64)

    if mode_a:
        if params.thr_rel is None or params.spec is None:
            raise ResampleError("mode A needs both thr_rel and a bump spec")
        part = _bumps(ds, fn, params.thr_rel)
        targets = _mixed_bump_targets(params.spec, part, "additive")

        def shrink(bump, idx, t):
            p = _proportional(1.0 - phi[idx])
            drop = len(idx) - t
            if p is not None and np.count_nonzero(p) < drop:
                raise ResampleError(
                    f"the {'Rare' if bump.rare else 'Normal'} bump of targets "
                    f"{bump.y_low!r} to {bump.y_high!r} must lose {drop} rows but holds "
                    f"only {np.count_nonzero(p)} with relevance below 1"
                )
            # a mask over positions: np.setdiff1d would import numpy.ma
            gone = np.zeros(len(idx), dtype=bool)
            gone[rng.choice(len(idx), size=drop, replace=False, p=p)] = True
            return idx[~gone]

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
    return _outcome(ds, np.flatnonzero(~drop), [(seeds, None)])
