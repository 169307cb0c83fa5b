"""Seeded generators for two benchmark-style imbalanced datasets.

``gen_imbc`` builds a three-class classification table whose two rare
classes occupy specific regions of the feature space; ``gen_imbr``
builds a regression table whose interesting (high) target values sit on
a circumference far from the bulk of the data.  Both are deterministic
under a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .tabular import Column, ColumnKind, Dataset, TabularError

__all__ = ["gen_imbc", "gen_imbr"]


def gen_imbc(n_rows: int = 1000, seed: int | None = None) -> Dataset:
    """Three-class dataset with two localized rare classes.

    X1 is Gaussian (mean 0, sd 4).  X2 holds the labels cat, fish and
    dog at exactly 30%, 30% and 40% of the rows, randomly placed.  The
    class column is rare1 on a random 90% of {X1 > 9, X2 in {cat, dog}}
    plus 40% of {X1 > 7, X2 = fish}; rare2 on 80% of {-1 < X1 < 0.5}
    plus 70% of {X1 < -7, X2 = fish}; normal everywhere else.
    """
    if n_rows < 1:
        raise TabularError("n_rows must be positive")
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 4.0, size=n_rows)

    n_cat = round(0.3 * n_rows)
    n_fish = round(0.3 * n_rows)
    n_dog = n_rows - n_cat - n_fish
    x2 = np.array(["cat"] * n_cat + ["fish"] * n_fish + ["dog"] * n_dog, dtype=object)
    rng.shuffle(x2)

    is_cat_dog = (x2 == "cat") | (x2 == "dog")
    is_fish = x2 == "fish"
    s1 = np.nonzero((x1 > 9) & is_cat_dog)[0]
    s2 = np.nonzero((x1 > 7) & is_fish)[0]
    s3 = np.nonzero((x1 > -1) & (x1 < 0.5))[0]
    s4 = np.nonzero((x1 < -7) & is_fish)[0]

    labels = np.array(["normal"] * n_rows, dtype=object)

    def mark(region: np.ndarray, frac: float, label: str) -> None:
        take = int(frac * len(region))
        if take > 0:
            chosen = rng.choice(region, size=take, replace=False)
            labels[chosen] = label

    mark(s1, 0.9, "rare1")
    mark(s2, 0.4, "rare1")
    mark(s3, 0.8, "rare2")
    mark(s4, 0.7, "rare2")

    return Dataset(
        [
            Column("X1", ColumnKind.NUMERIC, x1),
            Column("X2", ColumnKind.NOMINAL, x2),
            Column("Class", ColumnKind.NOMINAL, labels),
        ],
        target="Class",
    )


def gen_imbr(n_rows: int = 1000, seed: int | None = None) -> Dataset:
    """Regression dataset whose high target values lie on a ring.

    95% of the rows sit in a Gaussian blob around (10, 10) with target
    Gamma(0.5, 1) + 10; the final 5% (the last rows of the table) sit
    on a circumference of radius about 9 around the blob with target
    Gamma(1, 1) + 20, so the interesting high targets are also the
    geometrically unusual points.
    """
    if n_rows < 1:
        raise TabularError("n_rows must be positive")
    rng = np.random.default_rng(seed)
    n_ring = int(round(0.05 * n_rows))
    n_bulk = n_rows - n_ring

    bulk_x1 = rng.normal(10.0, 2.5, size=n_bulk)
    bulk_x2 = rng.normal(10.0, 2.5, size=n_bulk)
    bulk_y = rng.gamma(0.5, 1.0, size=n_bulk) + 10.0

    rho = 9.0 + rng.normal(0.0, 1.0, size=n_ring)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n_ring)
    ring_x1 = rho * np.cos(theta) + 10.0
    ring_x2 = rho * np.sin(theta) + 10.0
    ring_y = rng.gamma(1.0, 1.0, size=n_ring) + 20.0

    return Dataset(
        [
            Column("X1", ColumnKind.NUMERIC, np.concatenate([bulk_x1, ring_x1])),
            Column("X2", ColumnKind.NUMERIC, np.concatenate([bulk_x2, ring_x2])),
            Column("Tgt", ColumnKind.NUMERIC, np.concatenate([bulk_y, ring_y])),
        ],
        target="Tgt",
    )
