"""Relevance functions mapping a numeric target onto [0, 1].

A relevance function says how interesting each target value is; rare
extreme values get relevance near 1 and common central values near 0.
It is built from control points (target value, relevance, slope) and
interpolated between them with a piecewise cubic Hermite.  Slopes pass
through the Fritsch-Carlson admissibility filter so that each segment
stays monotone between its endpoints, which also keeps the interpolant
inside [0, 1]; values are clamped after evaluation as a final guard.
Outside the outermost control points the function extrapolates as a
constant.

Control points can be given explicitly (``build_relevance_range``) or
derived from the target's boxplot (``build_relevance_extremes``): the
median anchors relevance 0 and a whisker fence at 1.5 IQR beyond the
quartiles anchors relevance 1 on each requested side.  A fence that
falls outside the observed data is replaced by the data extreme.  When
only one side of the data actually contains observations beyond its
fence, the other side of a "both" request anchors the data extreme at
relevance 0 instead: the boxplot found nothing rare there.

``find_bumps`` cuts the sorted target values into maximal runs above /
below a relevance threshold; resampling strategies for regression
operate on those runs ("bumps").  ``copied_bumps`` tells the bumps of
a table whose rows all copy rows of a partitioned one without a sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tabular import ColumnKind, Dataset

__all__ = [
    "ControlPoint",
    "RelevanceFn",
    "RelevanceError",
    "Bump",
    "BumpPartition",
    "BumpSummary",
    "build_relevance_range",
    "build_relevance_extremes",
    "find_bumps",
    "copied_bumps",
]


# values evaluated at once; the cubic's temporaries are this long
SLICE_VALUES = 1 << 12


class RelevanceError(ValueError):
    """Raised for unusable control points or target values."""


@dataclass(frozen=True, slots=True)
class ControlPoint:
    y: float
    phi: float
    dphi: float = 0.0


def _limit_slopes(ys: np.ndarray, phis: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson admissibility filter for user slopes.

    A slope is kept as supplied when the segment cubics around it stay
    monotone; otherwise it is zeroed (flat or opposing segments) or
    capped at 3x the smaller adjacent secant.
    """
    n = len(ys)
    # points closer than 1/max-float overflow their secant to inf, which
    # only lifts the 3x cap on that side
    with np.errstate(over="ignore"):
        secants = np.diff(phis) / np.diff(ys)
    m = raw.astype(np.float64).copy()
    for k in range(n):
        adjacent = []
        if k > 0:
            adjacent.append(secants[k - 1])
        if k < n - 1:
            adjacent.append(secants[k])
        if any(s == 0 for s in adjacent):
            m[k] = 0.0
            continue
        signs = {math.copysign(1.0, s) for s in adjacent}
        if len(signs) > 1:
            m[k] = 0.0
            continue
        if m[k] == 0.0:
            continue
        if math.copysign(1.0, m[k]) not in signs:
            m[k] = 0.0
            continue
        with np.errstate(over="ignore"):  # 3x a finite secant may overflow too
            cap = 3.0 * min(abs(s) for s in adjacent)
        if abs(m[k]) > cap:
            m[k] = math.copysign(cap, m[k])
    return m


@dataclass
class RelevanceFn:
    """Callable piecewise-cubic relevance mapping."""

    points: tuple[ControlPoint, ...]
    ys: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)

    def __call__(self, y):
        values = np.asarray(y, dtype=np.float64)
        scalar = values.ndim == 0
        out = np.atleast_1d(values).copy()
        flat = out.reshape(-1)  # a view: the copy is contiguous
        for lo in range(0, len(flat), SLICE_VALUES):
            self._evaluate(flat[lo:lo + SLICE_VALUES])
        np.clip(out, 0.0, 1.0, out=out)
        return float(out[0]) if scalar else out

    def _evaluate(self, values: np.ndarray) -> None:
        """Overwrite ``values``, a 1-d slice, with their relevance, unclipped."""
        ys, phis, m = self.ys, self.phis, self.slopes
        # constant beyond the outer control points (a NaN stays NaN);
        # the cubic is evaluated strictly between them only
        low, high = values <= ys[0], values >= ys[-1]
        inner = (values > ys[0]) & (values < ys[-1])
        x = values[inner]
        values[low] = phis[0]
        values[high] = phis[-1]
        seg = np.searchsorted(ys, x, side="right") - 1
        h = ys[seg + 1] - ys[seg]
        t = (x - ys[seg]) / h
        t2 = t * t
        t3 = t2 * t
        values[inner] = (
            phis[seg] * (2 * t3 - 3 * t2 + 1)
            + m[seg] * h * (t3 - 2 * t2 + t)
            + phis[seg + 1] * (-2 * t3 + 3 * t2)
            + m[seg + 1] * h * (t3 - t2)
        )


def build_relevance_range(points) -> RelevanceFn:
    """Relevance function through explicit control points.

    ``points`` is an iterable of ControlPoint or (y, phi[, dphi])
    tuples.  Target values must be distinct; relevance values must lie
    in [0, 1].
    """
    pts = []
    for p in points:
        if not isinstance(p, ControlPoint):
            p = ControlPoint(*p)
        pts.append(p)
    if len(pts) < 2:
        raise RelevanceError("need at least two control points")
    pts.sort(key=lambda p: p.y)
    ys = np.array([p.y for p in pts], dtype=np.float64)
    phis = np.array([p.phi for p in pts], dtype=np.float64)
    dphis = np.array([p.dphi for p in pts], dtype=np.float64)
    if not np.all(np.isfinite(ys)) or not np.all(np.isfinite(phis)) or not np.all(
        np.isfinite(dphis)
    ):
        raise RelevanceError("control points must be finite")
    if np.any(np.diff(ys) == 0):
        raise RelevanceError("duplicate target values in control points")
    if np.any(phis < 0) or np.any(phis > 1):
        raise RelevanceError("relevance values must lie in [0, 1]")
    slopes = _limit_slopes(ys, phis, dphis)
    return RelevanceFn(tuple(pts), ys, phis, slopes)


def build_relevance_extremes(values, extr_type: str = "both") -> RelevanceFn:
    """Relevance from the boxplot of the observed target values."""
    if extr_type not in ("high", "low", "both"):
        raise RelevanceError(f"unknown extremes type {extr_type!r}")
    try:
        y = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):  # labels, not numbers
        raise RelevanceError("target values must be present and numeric") from None
    if len(y) == 0 or np.any(np.isnan(y)):
        raise RelevanceError("target values must be present and numeric")
    y_min, y_max = float(y.min()), float(y.max())
    if y_min == y_max:
        raise RelevanceError("target has no spread")
    q1, med, q3 = (float(q) for q in np.percentile(y, [25, 50, 75]))
    iqr = q3 - q1
    fence_low = q1 - 1.5 * iqr
    fence_high = q3 + 1.5 * iqr
    has_low = bool(np.any(y < fence_low))
    has_high = bool(np.any(y > fence_high))

    pts: list[ControlPoint] = [ControlPoint(med, 0.0, 0.0)]
    if extr_type in ("low", "both"):
        anchor = fence_low if has_low else y_min
        if extr_type == "both" and not has_low and (has_low or has_high):
            # outliers exist only on the other side: nothing is rare here
            if anchor != med:
                pts.append(ControlPoint(anchor, 0.0, 0.0))
        else:
            if anchor == med:
                raise RelevanceError("target has no spread below the median")
            pts.append(ControlPoint(anchor, 1.0, 0.0))
    if extr_type in ("high", "both"):
        anchor = fence_high if has_high else y_max
        if extr_type == "both" and not has_high and (has_low or has_high):
            if anchor != med:
                pts.append(ControlPoint(anchor, 0.0, 0.0))
        else:
            if anchor == med:
                raise RelevanceError("target has no spread above the median")
            pts.append(ControlPoint(anchor, 1.0, 0.0))
    return build_relevance_range(pts)


@dataclass(frozen=True, slots=True)
class Bump:
    """A maximal run of target-sorted rows on one side of the threshold."""

    rare: bool
    indices: np.ndarray      # original row indices, ascending target order
    y_low: float
    y_high: float

    @property
    def count(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, slots=True)
class BumpPartition:
    bumps: tuple[Bump, ...]

    @property
    def rare_bumps(self) -> tuple[Bump, ...]:
        return tuple(b for b in self.bumps if b.rare)

    @property
    def normal_bumps(self) -> tuple[Bump, ...]:
        return tuple(b for b in self.bumps if not b.rare)

    @property
    def total(self) -> int:
        return sum(b.count for b in self.bumps)


def find_bumps(ds: Dataset, fn: RelevanceFn, thr_rel: float) -> BumpPartition:
    """Split rows into alternating Normal / Rare bumps.

    Rows are sorted by target value (ties keep row order); maximal runs
    with relevance >= thr_rel form Rare bumps, the rest Normal bumps.
    """
    if not 0.0 <= thr_rel <= 1.0:
        raise RelevanceError("thr_rel must lie in [0, 1]")
    col = ds.target_column
    if col.kind is not ColumnKind.NUMERIC:
        raise RelevanceError("bumps need a numeric target column")
    y = col.values
    if np.any(np.isnan(y)):
        raise RelevanceError("missing value in the target column")
    order = np.argsort(y, kind="stable")
    # the flags over slices of the order: the sorted targets and their
    # relevance are never held whole, and one buffer takes every slice,
    # since a fresh small array per slice left the heap larger (about
    # 1 MiB of bulk-io peak RSS)
    rare = np.empty(len(order), dtype=bool)
    buf = np.empty(min(len(order), SLICE_VALUES))
    for lo in range(0, len(order), SLICE_VALUES):
        part = order[lo:lo + SLICE_VALUES]
        rare[lo:lo + SLICE_VALUES] = fn(np.take(y, part, out=buf[:len(part)])) >= thr_rel
    starts = np.flatnonzero(rare[1:] != rare[:-1]) + 1
    runs = np.split(order, starts) if len(order) else []
    return BumpPartition(tuple(
        Bump(
            rare=bool(rare[start]),
            indices=run,
            y_low=float(y[run[0]]),
            y_high=float(y[run[-1]]),
        )
        for start, run in zip([0, *starts], runs)
    ))


class BumpSummary(NamedTuple):
    """A bump's side of the threshold, size and target range."""

    rare: bool
    count: int
    y_low: float
    y_high: float


def copied_bumps(part: BumpPartition, ds: Dataset) -> list[BumpSummary] | None:
    """The bumps ``find_bumps`` finds in ``ds``, with no sort, where each
    row of ``ds`` copies a row of the table ``part`` partitions (its
    ``origins``, see ``Dataset.take``), under the same relevance and
    threshold; None where a row copies none, or no row copies a row of
    some bump.

    Equal targets have equal relevance, so the bumps of ``part`` hold
    disjoint target ranges.  While each keeps a row, the runs of ``ds``
    in target order are those bumps' copies, in partition order.  As in
    ``find_bumps``, ties keep row order: ``y_low`` is the target of the
    first row at the bump's least target and ``y_high`` of the last at
    its greatest, so that -0.0 and 0.0 come out as the sort gives them.
    """
    origins = ds.origins
    if origins is None or (len(origins) and origins.min() < 0):
        return None
    n = len(part.bumps)
    bump_of = np.empty(part.total, dtype=np.min_scalar_type(n))
    for i, b in enumerate(part.bumps):
        bump_of[b.indices] = i
    bump = bump_of[origins]
    counts = np.bincount(bump, minlength=n)
    if not counts.all():
        return None
    y = ds.target_column.values
    low, high = np.full(n, np.inf), np.full(n, -np.inf)
    np.minimum.at(low, bump, y)
    np.maximum.at(high, bump, y)
    first, last = np.full(n, len(y)), np.full(n, -1)
    at = np.flatnonzero(y == low[bump])
    np.minimum.at(first, bump[at], at)
    at = np.flatnonzero(y == high[bump])
    np.maximum.at(last, bump[at], at)
    return [BumpSummary(b.rare, int(c), float(y[i]), float(y[j]))
            for b, c, i, j in zip(part.bumps, counts, first, last)]
