#!/usr/bin/env python3
"""Resample a skewed regression target.

The generated set has a dense bulk around Tgt = 10 and a small cloud of
high-target rows.  A relevance function built from the target's boxplot
marks the high tail as interesting; every strategy then works on the
resulting bumps instead of on class labels.
"""

from rebalance import (
    BumpPercSpec,
    build_relevance_extremes,
    find_bumps,
    gauss_noise_regress,
    gen_imbr,
    rand_over_regress,
    rand_under_regress,
    smoter,
)

SEED = 3
ROWS = 1000
THR = 0.5


def bump_line(part):
    cells = []
    for b in part.bumps:
        kind = "rare" if b.rare else "normal"
        cells.append(f"{kind} {b.count} rows  y in [{b.y_low:.2f}, {b.y_high:.2f}]")
    return " | ".join(cells)


def show(tag, outcome, fn):
    part = find_bumps(outcome.dataset, fn, THR)
    print(f"{tag:<24} {bump_line(part)}")
    for w in outcome.warnings:
        print(f"{'':<24} [{w}]")


def main():
    ds = gen_imbr(ROWS, seed=SEED)
    y = ds.target_column.values

    fn = build_relevance_extremes(y, "both")
    print("control points (y, phi):",
          [(round(p.y, 2), p.phi) for p in fn.points])

    part = find_bumps(ds, fn, THR)
    print(f"{'original':<24} {bump_line(part)}")
    print()

    show("rand_under balance", rand_under_regress(ds, fn, THR, seed=SEED), fn)
    show("rand_under 0.2",
         rand_under_regress(ds, fn, THR, BumpPercSpec.explicit([0.2]), seed=SEED), fn)
    show("rand_over balance", rand_over_regress(ds, fn, THR, seed=SEED), fn)
    print()
    # noise also perturbs the target, so re-partitioning the output
    # lands near the quota rather than exactly on it
    show("gauss_noise balance",
         gauss_noise_regress(ds, fn, THR, pert=0.1, seed=SEED), fn)
    show("smoter balance", smoter(ds, fn, THR, k=5, seed=SEED), fn)
    show("smoter 0.5,4",
         smoter(ds, fn, THR, BumpPercSpec.explicit([0.5, 4]), k=5, seed=SEED), fn)

    # smoter's synthetic targets are distance-weighted means, so they
    # stay between the seed and the picked neighbour
    out = smoter(ds, fn, THR, k=5, seed=SEED)
    n_synth = int(out.synthetic.sum())
    print(f"\nsmoter added {n_synth} interpolated rows "
          f"and {len(out.seeds) - n_synth} plain copies")


if __name__ == "__main__":
    main()
