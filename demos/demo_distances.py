#!/usr/bin/env python3
# Distance metrics over a hand-built mixed table: which ones accept
# nominal columns, what the matrices look like, how knn_table ranks rows.

import numpy as np

from rebalance import (
    Column,
    ColumnKind,
    Dataset,
    Metric,
    MetricError,
    build_context,
    knn_table,
    pairwise,
)

ROWS = [
    # colour   size   cls
    ("red",    1.0,  "pos"),
    ("red",    2.0,  "pos"),
    ("blue",   3.0,  "neg"),
    ("blue",   5.0,  "neg"),
    ("red",    4.0,  "neg"),
    ("green",  0.0,  "pos"),
]


def build():
    return Dataset(
        [
            Column("colour", ColumnKind.NOMINAL, [r[0] for r in ROWS]),
            Column("size", ColumnKind.NUMERIC, [r[1] for r in ROWS]),
            Column("cls", ColumnKind.NOMINAL, [r[2] for r in ROWS]),
        ],
        target="cls",
    )


def show_matrix(name, m):
    print(name)
    for row in m:
        print("   " + "  ".join(f"{v:6.3f}" for v in row))


def main():
    ds = build()

    # plain metrics reject the nominal feature outright
    try:
        build_context(Metric("euclidean"), ds)
    except MetricError as exc:
        print(f"euclidean on mixed schema: {exc}\n")

    # overlap only accepts nominal features, so drop the numeric column
    nom_only = Dataset(
        [
            Column("colour", ColumnKind.NOMINAL, [r[0] for r in ROWS]),
            Column("cls", ColumnKind.NOMINAL, [r[2] for r in ROWS]),
        ],
        target="cls",
    )
    show_matrix("overlap (colour only)", pairwise(Metric("overlap"),
                build_context(Metric("overlap"), nom_only)))
    print()

    for name in ("heom", "hvdm"):
        ctx = build_context(Metric(name), ds)
        show_matrix(name, pairwise(Metric(name), ctx))
        print()

    ctx = build_context(Metric("heom"), ds)
    print("3 nearest to row 0 under heom:",
          knn_table(Metric("heom"), ctx, k=3)[0].tolist())

    # to probe two rows, make them a table of their own
    probe = Dataset(
        [
            Column("colour", ColumnKind.NOMINAL, ["red", "blue"]),
            Column("size", ColumnKind.NUMERIC, [1.0, np.nan]),
            Column("cls", ColumnKind.NOMINAL, ["pos", "neg"]),
        ],
        target="cls",
    )
    d = pairwise(Metric("heom"), build_context(Metric("heom"), probe))[0, 1]
    print(f"heom(('red', 1.0), ('blue', nan)) = {d:.6f}  (missing cell costs 1)")

    # minkowsky generalizes: p=1 manhattan, p=2 euclidean, p->inf chebyshev
    nums = Dataset(
        [
            Column("a", ColumnKind.NUMERIC, [0.0, 1.0]),
            Column("b", ColumnKind.NUMERIC, [0.0, 1.0]),
            Column("y", ColumnKind.NOMINAL, ["u", "v"]),
        ],
        target="y",
    )
    for p in (1, 2, 3, 10):
        ctx = build_context(Metric("minkowsky", p=p), nums)
        d = pairwise(Metric("minkowsky", p=p), ctx)[0, 1]
        print(f"minkowsky p={p:<3} between corners: {d:.6f}")


if __name__ == "__main__":
    main()
