#!/usr/bin/env python3
"""Walk the classification strategies over one generated dataset.

Generates the three-class set (one numeric feature, one nominal
feature, rare classes tucked into corners of the feature space), then
shows how each family of strategies reshapes the class counts.
"""

from rebalance import (
    ClassPercSpec,
    Metric,
    class_counts,
    cnn_classif,
    enn_classif,
    gauss_noise_classif,
    gen_imbc,
    rand_over_classif,
    rand_under_classif,
    smote_classif,
    tomek_classif,
)

SEED = 7
ROWS = 1000
HEOM = Metric("heom")  # the features are mixed, so euclidean is out


def show(tag, outcome):
    counts = dict(class_counts(outcome.dataset))
    extra = ""
    if outcome.warnings:
        extra = "   [" + "; ".join(outcome.warnings) + "]"
    print(f"{tag:<28} {counts}   -{len(outcome.removed)} / "
          f"+{len(outcome.seeds)}{extra}")


def main():
    ds = gen_imbc(ROWS, seed=SEED)
    print(f"{'original':<28} {dict(class_counts(ds))}")
    print()

    # ------------------------------------------------ random resampling
    show("rand_under balance", rand_under_classif(ds, ClassPercSpec.balance(), seed=SEED))
    show("rand_under extreme", rand_under_classif(ds, ClassPercSpec.extreme(), seed=SEED))
    show("rand_over balance", rand_over_classif(ds, ClassPercSpec.balance(), seed=SEED))
    show("rand_over x5 on rare1",
         rand_over_classif(ds, ClassPercSpec.explicit({"rare1": 5}), seed=SEED))

    # ----------------------------------------------- neighbourhood-based
    # these clean the majority region rather than hit an exact quota
    print()
    show("tomek both", tomek_classif(ds, HEOM, seed=SEED))
    cnn_out, important, _ = cnn_classif(ds, HEOM, cl="smaller", seed=SEED)
    show(f"cnn keep {important}", cnn_out)
    show("enn k=3", enn_classif(ds, HEOM, k=3, seed=SEED))

    # --------------------------------------------------------- synthesis
    print()
    show("gauss_noise balance",
         gauss_noise_classif(ds, ClassPercSpec.balance(), pert=0.1, seed=SEED))
    show("smote balance",
         smote_classif(ds, ClassPercSpec.balance(), k=5, metric=HEOM, seed=SEED))

    # same seed, same bytes: run it twice if you doubt it
    again = smote_classif(ds, ClassPercSpec.balance(), k=5, metric=HEOM, seed=SEED)
    check = dict(class_counts(again.dataset))
    print(f"\nsmote rerun with seed={SEED} gives {check} again")


if __name__ == "__main__":
    main()
