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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import balanced_quota, floor_frac, inverted_quota, nominal_freqs, sample_sd
from .classif import AddedRow, ResampleError, StrategyOutcome
from .distance import Metric, build_context, encode_rows, knn_table, paired_distances
from .relevance import BumpPartition, RelevanceFn, find_bumps
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


@dataclass(frozen=True)
class BumpPercSpec:
    """Per-bump resampling intensity: balance, extreme, or explicit."""

    mode: str
    percs: tuple[float, ...] | None = None

    @classmethod
    def balance(cls) -> "BumpPercSpec":
        return cls("balance")

    @classmethod
    def extreme(cls) -> "BumpPercSpec":
        return cls("extreme")

    @classmethod
    def explicit(cls, percs: Sequence[float]) -> "BumpPercSpec":
        percs = tuple(float(p) for p in percs)
        if not percs:
            raise ResampleError("explicit percentage spec is empty")
        return cls("explicit", percs)

    def __post_init__(self) -> None:
        if self.mode not in ("balance", "extreme", "explicit"):
            raise ResampleError(f"unknown percentage mode {self.mode!r}")
        if self.mode == "explicit" and not self.percs:
            raise ResampleError("explicit percentage spec is empty")


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


def _explicit_check(spec: BumpPercSpec, n_bumps: int, what: str) -> None:
    if len(spec.percs) != n_bumps:
        raise ResampleError(
            f"expected one percentage per {what} ({n_bumps}), got {len(spec.percs)}"
        )
    if not all(math.isfinite(p) for p in spec.percs):
        raise ResampleError("bump percentages must be finite numbers")


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
        _explicit_check(spec, len(normals), "Normal bump")
        for p in spec.percs:
            if not 0 < p <= 1:
                raise ResampleError("under-sampling percentages must be in (0, 1]")
        targets = [floor_frac(p, b.count) for p, b in zip(spec.percs, normals)]
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
    parts = [b.indices for b in rares]
    for b, t in zip(normals, targets):
        if t < b.count:
            parts.append(np.sort(rng.choice(b.indices, size=t, replace=repl)))
        else:
            parts.append(b.indices)
    kept = np.sort(np.concatenate(parts))
    counts = np.bincount(kept, minlength=ds.n_rows)
    removed = [int(i) for i in np.nonzero(counts == 0)[0]]
    added = []
    for i in np.nonzero(counts > 1)[0]:
        added.extend([AddedRow(int(i), synthetic=False)] * (int(counts[i]) - 1))
    return StrategyOutcome(ds.take(kept), removed, added)


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
        _explicit_check(spec, len(rares), "Rare bump")
        for p in spec.percs:
            if p < 0:
                raise ResampleError("over-sampling percentages must be non-negative")
        extras = [floor_frac(p, b.count) for p, b in zip(spec.percs, rares)]
    else:
        if not normals:
            raise ResampleError("no bump below the relevance threshold")
        m = max(b.count for b in normals)
        if spec.mode == "balance":
            extras = [m for _ in rares]
        else:
            extras = [m * m // b.count for b in rares]
    rng = np.random.default_rng(seed)
    replicas = []
    for b, extra in zip(rares, extras):
        if extra > 0:
            replicas.append(rng.choice(b.indices, size=extra, replace=True))
    seeds = np.concatenate(replicas) if replicas else np.empty(0, dtype=np.intp)
    final = np.concatenate([np.arange(ds.n_rows, dtype=np.intp), seeds])
    added = [AddedRow(int(s), synthetic=False) for s in seeds]
    return StrategyOutcome(ds.take(final), [], added)


def _mixed_bump_targets(spec: BumpPercSpec, part: BumpPartition,
                        additive_rare: bool) -> list[int]:
    """Absolute per-bump targets for the shrink-and-grow strategies."""
    bumps = part.bumps
    counts = [b.count for b in bumps]
    total = sum(counts)
    if spec.mode == "balance":
        return balanced_quota(total, len(bumps))
    if spec.mode == "extreme":
        return inverted_quota(counts, total)
    _explicit_check(spec, len(bumps), "bump")
    targets = []
    for p, b in zip(spec.percs, bumps):
        if b.rare:
            if additive_rare:
                if p < 0:
                    raise ResampleError(
                        "over-sampling percentages must be non-negative"
                    )
                targets.append(b.count + floor_frac(p, b.count))
            else:
                if p < 1:
                    raise ResampleError(
                        "over-sampling percentages must be at least 1"
                    )
                targets.append(floor_frac(p, b.count))
        else:
            if not 0 < p <= 1:
                raise ResampleError("under-sampling percentages must be in (0, 1]")
            targets.append(floor_frac(p, b.count))
    return targets


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
    targets = _mixed_bump_targets(spec, part, additive_rare=True)
    rng = np.random.default_rng(seed)
    parts = []
    blocks: list[dict[str, list]] = []
    added: list[AddedRow] = []
    warnings: list[str] = []
    for b, t in zip(part.bumps, targets):
        idx = b.indices
        if t < b.count:
            parts.append(np.sort(rng.choice(idx, size=t, replace=repl)))
            continue
        parts.append(idx)
        extra = t - b.count
        if extra == 0:
            continue
        if b.count == 1:
            warnings.append(
                "GaussNoiseRegress: a single-example bump was grown with "
                "noise-free replicas"
            )
        seeds = rng.choice(idx, size=extra, replace=True)
        block: dict[str, list] = {}
        for col in ds.columns:
            if col.kind is ColumnKind.NUMERIC:
                sd = sample_sd(col.values[idx])
                noise = rng.normal(0.0, 1.0, size=extra) * pert * sd
                block[col.name] = list(col.values[seeds] + noise)
            elif pert == 0:
                # noise-free runs must replicate rows exactly
                block[col.name] = list(col.values[seeds])
            else:
                values, freqs = nominal_freqs(col.values[idx])
                if not values:
                    block[col.name] = [None] * extra
                else:
                    pick = rng.choice(len(values), size=extra, p=freqs)
                    block[col.name] = [values[i] for i in pick]
        blocks.append(block)
        added.extend(AddedRow(int(s), synthetic=True) for s in seeds)
    kept = np.sort(np.concatenate(parts))
    out = ds.take(kept)
    for block in blocks:
        out = out.append(block)
    counts = np.bincount(kept, minlength=ds.n_rows)
    removed = [int(i) for i in np.nonzero(counts == 0)[0]]
    dup_added = []
    for i in np.nonzero(counts > 1)[0]:
        dup_added.extend([AddedRow(int(i), synthetic=False)] * (int(counts[i]) - 1))
    return StrategyOutcome(out, removed, dup_added + added, warnings)


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
    vectorised pass.  A plain metric makes NaN distances at missing
    feature cells; a synthetic target that comes out NaN raises
    ResampleError.
    """
    if k < 1:
        raise ResampleError("k must be at least 1")
    part = find_bumps(ds, fn, thr_rel)
    if not part.rare_bumps:
        raise ResampleError("no bump above the relevance threshold to over-sample")
    targets = _mixed_bump_targets(spec, part, additive_rare=False)
    ctx = build_context(metric, ds)
    rng = np.random.default_rng(seed)
    y = ds.target_column.values
    feat_cols = ds.feature_columns
    parts = []
    blocks: list[dict[str, Sequence]] = []
    added: list[AddedRow] = []
    warnings: list[str] = []
    for b, t in zip(part.bumps, targets):
        idx = b.indices
        if t < b.count:
            parts.append(np.sort(rng.choice(idx, size=t, replace=repl)))
            continue
        parts.append(idx)
        extra = t - b.count
        if extra == 0:
            continue
        if b.count == 1:
            warnings.append(
                "SmoteRegress: a single-example bump was grown with plain replicas"
            )
            seeds = np.repeat(idx, extra)
            block = {c.name: list(c.values[seeds]) for c in ds.columns}
            blocks.append(block)
            added.extend(AddedRow(int(s), synthetic=True) for s in seeds)
            continue
        k_eff = min(k, b.count - 1)
        nbr_table = knn_table(metric, ctx, k_eff, rows=idx)

        seed_pos = rng.integers(0, b.count, size=extra)
        nbr_pick = rng.integers(0, k_eff, size=extra)
        u = rng.random(size=extra)
        nbr_pos = nbr_table[seed_pos, nbr_pick]
        seeds = idx[seed_pos]
        nbrs = idx[nbr_pos]
        coin = {
            c.name: rng.random(size=extra) < 0.5
            for c in feat_cols
            if c.kind is ColumnKind.NOMINAL
        }
        seed_ops = encode_rows(ctx, seeds)
        nbr_ops = encode_rows(ctx, nbrs)
        new_ops = []
        block = {}
        for c, s_op, n_op in zip(feat_cols, seed_ops, nbr_ops):
            if c.kind is ColumnKind.NUMERIC:
                block[c.name] = s_op + u * (n_op - s_op)
                new_ops.append(block[c.name])
            else:
                pick = coin[c.name]
                block[c.name] = np.where(pick, c.values[seeds], c.values[nbrs])
                new_ops.append(np.where(pick, s_op, n_op))
        d1 = paired_distances(metric, ctx, new_ops, seed_ops)
        d2 = paired_distances(metric, ctx, new_ops, nbr_ops)
        y1, y2 = y[seeds], y[nbrs]
        with np.errstate(invalid="ignore", divide="ignore"):
            new_y = np.where(d1 + d2 == 0, (y1 + y2) / 2.0,
                             (d2 * y1 + d1 * y2) / (d1 + d2))
        if np.isnan(new_y).any():
            raise ResampleError(
                f"synthetic targets are NaN: the {metric.name} distance is NaN "
                "where a feature cell is missing; --dist heom handles "
                "missing cells"
            )
        block[ds.target] = new_y
        blocks.append(block)
        added.extend(AddedRow(int(s), synthetic=True) for s in seeds)
    kept = np.sort(np.concatenate(parts))
    out = ds.take(kept)
    for block in blocks:
        out = out.append(block)
    counts = np.bincount(kept, minlength=ds.n_rows)
    removed = [int(i) for i in np.nonzero(counts == 0)[0]]
    dup_added = []
    for i in np.nonzero(counts > 1)[0]:
        dup_added.extend([AddedRow(int(i), synthetic=False)] * (int(counts[i]) - 1))
    return StrategyOutcome(out, removed, dup_added + added, warnings)


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
        targets = _mixed_bump_targets(params.spec, part, additive_rare=True)
        parts = []
        replicas = []
        for b, t in zip(part.bumps, targets):
            idx = b.indices
            if t < b.count:
                w = 1.0 - phi[idx]
                total = w.sum()
                p = w / total if total > 0 else None
                drop = rng.choice(idx, size=b.count - t, replace=False, p=p)
                parts.append(np.setdiff1d(idx, drop))
            else:
                parts.append(idx)
                if t > b.count:
                    w = phi[idx]
                    total = w.sum()
                    p = w / total if total > 0 else None
                    replicas.append(
                        rng.choice(idx, size=t - b.count, replace=True, p=p)
                    )
        kept = np.sort(np.concatenate(parts))
        seeds = (
            np.concatenate(replicas) if replicas else np.empty(0, dtype=np.intp)
        )
    else:
        u, o = params.u, params.o
        if u is None or o is None:
            raise ResampleError("mode B needs both u and o")
        if not 0 <= u <= 1:
            raise ResampleError("u must lie in [0, 1]")
        if not (math.isfinite(o) and o >= 0):
            raise ResampleError("o must be a finite non-negative number")
        drop = rng.random(ds.n_rows) < u * (1.0 - phi)
        kept = np.nonzero(~drop)[0].astype(np.intp)
        total_phi = float(phi.sum())
        m = int(math.floor(o * total_phi))
        if m > 0:
            seeds = rng.choice(
                np.arange(ds.n_rows), size=m, replace=True, p=phi / total_phi
            )
        else:
            seeds = np.empty(0, dtype=np.intp)

    final = np.concatenate([kept, seeds])
    counts = np.bincount(kept, minlength=ds.n_rows)
    removed = [int(i) for i in np.nonzero(counts == 0)[0]]
    added = [AddedRow(int(s), synthetic=False) for s in seeds]
    return StrategyOutcome(ds.take(final), removed, added)
