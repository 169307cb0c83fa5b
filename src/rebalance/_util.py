"""Shared count-resolution arithmetic and small sampling statistics."""

from __future__ import annotations

import math

import numpy as np


def floor_frac(perc: float, n: int) -> int:
    """trunc(perc * n) under ordinary float arithmetic."""
    return int(math.floor(perc * n))


def balanced_quota(total: int, k: int) -> list[int]:
    """Per-group targets for Balance mode over k groups.

    The first group gets trunc(total/k); when the division is not exact
    the remaining groups get one less.  This mirrors the published
    behaviour of balanced synthesis (e.g. 1000 rows over 3 classes give
    333, 332, 332).
    """
    base = total // k
    step = 1 if total % k else 0
    return [base] + [base - step] * (k - 1)


def inverted_quota(counts: list[int], total: int) -> list[int]:
    """Frequency-inverted targets preserving the overall total.

    Group i gets round(total * (1/n_i) / sum_j 1/n_j), so small groups
    grow and large groups shrink.
    """
    weights = [1.0 / c for c in counts]
    s = sum(weights)
    return [round(total * w / s) for w in weights]


def sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) over non-missing cells."""
    vals = values[~np.isnan(values)]
    if len(vals) < 2:
        return 0.0
    return float(np.std(vals, ddof=1))


def nominal_freqs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The codes present among nominal ``codes`` (ascending), in their
    dtype, and their relative frequencies."""
    counts = np.bincount(codes[codes >= 0])
    present = np.flatnonzero(counts).astype(codes.dtype)
    freqs = counts[present].astype(np.float64)
    if len(freqs):
        freqs /= freqs.sum()
    return present, freqs
