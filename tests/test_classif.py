import numpy as np
import pytest

from rebalance import (
    ClassPercSpec,
    Metric,
    MetricError,
    ResampleError,
    class_counts,
    cnn_classif,
    enn_classif,
    gauss_noise_classif,
    imp_samp_classif,
    ncl_classif,
    oss_classif,
    rand_over_classif,
    rand_under_classif,
    smote_classif,
    tomek_classif,
)
from rebalance.classif import (
    WARN_ENN_NONE,
    WARN_TOMEK_NONE,
    _resolve_impsamp,
    _resolve_mixed,
    resolve_targets_over,
    resolve_targets_under,
)

from _oracles import dataset_to_csv_bytes
from _toys import labelled

# class sizes of the reference imbalanced scenario used throughout the
# count-resolution tests
BASE_COUNTS = {"normal": 859, "rare1": 10, "rare2": 131}


def line_ds(points):
    """1-D dataset from (x, label) pairs."""
    xs = [p[0] for p in points]
    labels = [p[1] for p in points]
    return labelled(labels, {"x": ("num", [float(x) for x in xs])})


# ------------------------------------------------------- count arithmetic

def test_under_explicit_counts():
    spec = ClassPercSpec.explicit({"normal": 0.1, "rare2": 0.9})
    assert resolve_targets_under(BASE_COUNTS, spec) == {
        "normal": 85, "rare1": 10, "rare2": 117,
    }


def test_under_balance_counts():
    got = resolve_targets_under(BASE_COUNTS, ClassPercSpec.balance())
    assert got == {"normal": 10, "rare1": 10, "rare2": 10}


def test_under_extreme_counts():
    got = resolve_targets_under(BASE_COUNTS, ClassPercSpec.extreme())
    assert got == {"normal": 0, "rare1": 10, "rare2": 0}


def test_over_explicit_counts():
    spec = ClassPercSpec.explicit({"rare1": 5})
    assert resolve_targets_over(BASE_COUNTS, spec) == {
        "normal": 859, "rare1": 50, "rare2": 131,
    }
    spec = ClassPercSpec.explicit({"rare1": 4, "rare2": 2.5})
    assert resolve_targets_over(BASE_COUNTS, spec) == {
        "normal": 859, "rare1": 40, "rare2": 327,
    }


def test_over_balance_counts():
    got = resolve_targets_over(BASE_COUNTS, ClassPercSpec.balance())
    assert got == {"normal": 859, "rare1": 859, "rare2": 859}


def test_over_extreme_counts():
    got = resolve_targets_over(BASE_COUNTS, ClassPercSpec.extreme())
    assert got == {"normal": 859, "rare1": 73788, "rare2": 5633}


def test_impsamp_explicit_counts():
    spec = ClassPercSpec.explicit({"normal": 0.4, "rare1": 6})
    assert _resolve_impsamp(BASE_COUNTS, spec) == {
        "normal": 343, "rare1": 60, "rare2": 131,
    }


def test_impsamp_balance_is_flat():
    got = _resolve_impsamp(BASE_COUNTS, ClassPercSpec.balance())
    assert got == {"normal": 333, "rare1": 333, "rare2": 333}


def test_impsamp_extreme_inverts_frequencies():
    got = _resolve_impsamp(BASE_COUNTS, ClassPercSpec.extreme())
    assert got == {"normal": 11, "rare1": 919, "rare2": 70}


def test_mixed_explicit_counts():
    cases = [
        ({"normal": 0.5, "rare1": 10, "rare2": 3}, (429, 100, 393)),
        ({"normal": 0.3, "rare1": 5, "rare2": 2}, (257, 50, 262)),
        ({"normal": 0.4, "rare1": 8, "rare2": 6}, (343, 80, 786)),
        ({"normal": 0.2, "rare1": 10}, (171, 100, 131)),
    ]
    for percs, (n, r1, r2) in cases:
        got = _resolve_mixed(BASE_COUNTS, ClassPercSpec.explicit(percs))
        assert got == {"normal": n, "rare1": r1, "rare2": r2}


def test_mixed_balance_quota():
    got = _resolve_mixed(BASE_COUNTS, ClassPercSpec.balance())
    base = sum(BASE_COUNTS.values()) // 3
    assert all(abs(v - base) <= 1 for v in got.values())
    assert got == {"normal": 333, "rare1": 332, "rare2": 332}


def test_mixed_extreme_counts():
    got = _resolve_mixed(BASE_COUNTS, ClassPercSpec.extreme())
    assert got == {"normal": 11, "rare1": 919, "rare2": 70}


def test_under_rejects_perc_above_one():
    with pytest.raises(ResampleError, match=r"in \(0, 1\]"):
        resolve_targets_under(BASE_COUNTS, ClassPercSpec.explicit({"rare1": 2}))


def test_over_rejects_perc_below_one():
    with pytest.raises(ResampleError, match="at least 1"):
        resolve_targets_over(BASE_COUNTS, ClassPercSpec.explicit({"rare1": 0.5}))


@pytest.mark.parametrize("resolve, perc, msg", [
    (resolve_targets_under, 2.0, "under-sampling percentage for class 'rare1' must be in (0, 1]"),
    (resolve_targets_under, 0.0, "under-sampling percentage for class 'rare1' must be in (0, 1]"),
    (resolve_targets_over, 0.5, "over-sampling percentage for class 'rare1' must be at least 1"),
    (_resolve_mixed, 0.0, "percentage for class 'rare1' must be positive"),
    (_resolve_impsamp, -1.0, "percentage for class 'rare1' must be positive"),
])
def test_explicit_percentage_rules_name_the_class(resolve, perc, msg):
    with pytest.raises(ResampleError) as err:
        resolve(BASE_COUNTS, ClassPercSpec.explicit({"normal": 1.0, "rare1": perc}))
    assert str(err.value) == msg


def test_unknown_class_rejected():
    with pytest.raises(ResampleError, match="unknown classes"):
        resolve_targets_under(BASE_COUNTS, ClassPercSpec.explicit({"nope": 0.5}))


def test_empty_explicit_spec_rejected():
    with pytest.raises(ResampleError, match="empty"):
        ClassPercSpec.explicit({})


def test_unknown_mode_rejected():
    with pytest.raises(ResampleError, match="unknown percentage mode"):
        ClassPercSpec("frobnicate")


# --------------------------------------------------------- random under

def under_toy():
    return labelled(
        ["a"] * 6 + ["b"] * 2,
        {"x": ("num", list(map(float, range(8))))},
    )


def test_rand_under_explicit():
    out = rand_under_classif(under_toy(), ClassPercSpec.explicit({"a": 0.5}), seed=0)
    assert dict(class_counts(out.dataset)) == {"a": 3, "b": 2}
    # untouched class keeps every row, removals all come from 'a'
    assert all(i < 6 for i in out.removed)
    assert len(out.seeds) == 0 and out.warnings == []


def test_rand_under_keeps_row_order():
    out = rand_under_classif(under_toy(), ClassPercSpec.balance(), seed=3)
    xs = out.dataset.column("x").values
    assert list(xs) == sorted(xs)


def test_rand_under_deterministic():
    a = rand_under_classif(under_toy(), ClassPercSpec.balance(), seed=9)
    b = rand_under_classif(under_toy(), ClassPercSpec.balance(), seed=9)
    assert a.dataset == b.dataset and a.removed == b.removed


def test_rand_under_extreme_can_empty_a_class():
    ds = labelled(["a"] * 9 + ["b"] * 3, {"x": ("num", [0.0] * 12)})
    out = rand_under_classif(ds, ClassPercSpec.extreme(), seed=1)
    assert dict(class_counts(out.dataset)) == {"a": 1, "b": 3}


# ---------------------------------------------------------- random over

def test_rand_over_balance_appends_replicas():
    ds = labelled(["a"] * 4 + ["b"] * 2, {"x": ("num", [0, 1, 2, 3, 4, 5.0])})
    out = rand_over_classif(ds, ClassPercSpec.balance(), seed=0)
    assert dict(class_counts(out.dataset)) == {"a": 4, "b": 4}
    # originals stay in place as a prefix
    assert list(out.dataset.column("x").values[:6]) == [0, 1, 2, 3, 4, 5]
    assert out.removed == []
    assert len(out.seeds) == 2
    assert not out.synthetic.any()
    for s in out.seeds:
        assert ds.target_column.labels[s] == "b"


def test_rand_over_replicas_duplicate_whole_rows():
    ds = labelled(["a", "a", "b"], {"x": ("num", [1.0, 2.0, 7.5])})
    out = rand_over_classif(ds, ClassPercSpec.explicit({"b": 3}), seed=5)
    xs = list(out.dataset.column("x").values)
    assert xs[:3] == [1.0, 2.0, 7.5]
    assert xs[3:] == [7.5, 7.5]


def test_rand_over_needs_no_shrink():
    ds = under_toy()
    out = rand_over_classif(ds, ClassPercSpec.explicit({"b": 2.5}), seed=2)
    assert dict(class_counts(out.dataset)) == {"a": 6, "b": 5}


# ------------------------------------------------------------- impsamp

def test_imp_samp_moves_both_ways():
    ds = labelled(["a"] * 8 + ["b"] * 2, {"x": ("num", list(map(float, range(10))))})
    out = imp_samp_classif(ds, ClassPercSpec.balance(), seed=0)
    assert dict(class_counts(out.dataset)) == {"a": 5, "b": 5}
    assert any(i < 8 for i in out.removed)
    assert all(ds.target_column.labels[s] == "b" for s in out.seeds)


def test_imp_samp_shrink_never_duplicates():
    ds = labelled(["a"] * 8 + ["b"] * 2, {"x": ("num", list(map(float, range(10))))})
    for s in range(5):
        out = imp_samp_classif(ds, ClassPercSpec.explicit({"a": 0.5}), seed=s)
        xs = list(out.dataset.column("x").values)
        assert len(xs) == len(set(xs))


# ---------------------------------------------------------------- tomek

def test_tomek_removes_mutual_cross_pair():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (1.2, "b"), (5.0, "b"), (9.0, "a")])
    out = tomek_classif(ds, Metric("euclidean"), cl="all", rem="both", seed=0)
    # rows 1 and 2 are mutual nearest neighbours across classes
    assert out.removed == [1, 2]
    assert out.warnings == []


def test_tomek_maj_removes_larger_class_end():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (1.2, "b"), (20.0, "b"), (10.0, "a")])
    out = tomek_classif(ds, Metric("euclidean"), cl="all", rem="maj", seed=0)
    assert out.removed == [1]  # 'a' outnumbers 'b' 3:2


def test_tomek_maj_tie_removes_neither():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (1.2, "b"), (5.0, "b")])
    out = tomek_classif(ds, Metric("euclidean"), cl="all", rem="maj", seed=0)
    assert out.removed == []
    assert out.warnings == [WARN_TOMEK_NONE]


def test_tomek_cl_limits_removal():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (1.2, "b"), (5.0, "b"), (9.0, "a")])
    out = tomek_classif(ds, Metric("euclidean"), cl=["b"], rem="both", seed=0)
    assert out.removed == [2]


def test_tomek_warns_when_no_links():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (50.0, "b"), (51.0, "b")])
    out = tomek_classif(ds, Metric("euclidean"), seed=0)
    assert out.removed == [] and out.warnings == [WARN_TOMEK_NONE]


def test_tomek_keeps_a_lone_row():
    # one row has no neighbour, so no link: it stays, with the warning
    out = tomek_classif(line_ds([(0.0, "a")]), Metric("euclidean"), seed=0)
    assert out.removed == [] and out.dataset.n_rows == 1
    assert out.warnings == [WARN_TOMEK_NONE]


def test_tomek_rejects_bad_rem():
    ds = line_ds([(0.0, "a"), (1.0, "b")])
    with pytest.raises(ResampleError, match="rem must be"):
        tomek_classif(ds, Metric("euclidean"), rem="minority")


# ----------------------------------------------------------------- cnn

def cnn_toy():
    pts = [(float(x), "neg") for x in range(10)]
    pts += [(float(x) + 100, "pos") for x in range(3)]
    return line_ds(pts)


def test_cnn_keeps_important_class_whole():
    ds = cnn_toy()
    out, important, unimportant = cnn_classif(ds, Metric("euclidean"), seed=0)
    assert important == ["pos"] and unimportant == ["neg"]
    assert dict(class_counts(out.dataset))["pos"] == 3
    # two distant blobs condense the majority to a single prototype
    assert dict(class_counts(out.dataset))["neg"] == 1


def test_cnn_output_is_consistent():
    rng = np.random.default_rng(2)
    pts = [(float(v), "neg") for v in rng.normal(0, 1, 40)]
    pts += [(float(v), "pos") for v in rng.normal(6, 1, 8)]
    # a stray positive deep in negative territory forces extra prototypes
    pts.append((0.5, "pos"))
    ds = line_ds(pts)
    out, _, _ = cnn_classif(ds, Metric("euclidean"), seed=4)
    kept = np.array(sorted(set(range(ds.n_rows)) - set(out.removed)))
    x = ds.column("x").values
    labels = ds.target_column.labels
    for i in range(ds.n_rows):
        cands = kept[kept != i] if i in kept else kept
        d = np.abs(x[cands] - x[i])
        pred = labels[cands[int(d.argmin())]]
        if i in set(int(j) for j in kept):
            continue
        assert pred == labels[i], f"row {i} misclassified by the condensed set"


def test_cnn_rejects_cl_covering_all_classes():
    ds = line_ds([(0.0, "a"), (1.0, "b")])
    with pytest.raises(ResampleError, match="every class is marked important"):
        cnn_classif(ds, Metric("euclidean"), cl=["a", "b"], seed=0)


def test_cnn_smaller_rule_is_strict():
    # two equally sized classes: neither passes n*k < total, so the
    # important set is empty and plain condensation still runs
    ds = line_ds([(0.0, "a"), (1.0, "a"), (10.0, "b"), (11.0, "b")])
    out, important, unimportant = cnn_classif(ds, Metric("euclidean"), cl="smaller", seed=0)
    assert important == []
    assert unimportant == ["a", "b"]
    counts = dict(class_counts(out.dataset))
    assert counts["a"] >= 1 and counts["b"] >= 1


# ----------------------------------------------------------------- oss

def test_oss_runs_both_orders():
    ds = cnn_toy()
    for start in ("cnn", "tomek"):
        out, important, _ = oss_classif(
            ds, Metric("euclidean"), start=start, seed=0
        )
        assert important == ["pos"]
        counts = dict(class_counts(out.dataset))
        assert counts["pos"] == 3
        assert counts["neg"] <= 10
        # removed ids refer to the original dataset
        assert all(0 <= i < ds.n_rows for i in out.removed)
        assert ds.n_rows - len(out.removed) == out.dataset.n_rows


def test_oss_removed_ids_map_to_original_rows():
    rng = np.random.default_rng(8)
    pts = [(float(v), "neg") for v in rng.normal(0, 2, 30)]
    pts += [(float(v), "pos") for v in rng.normal(3, 2, 6)]
    ds = line_ds(pts)
    out, _, _ = oss_classif(ds, Metric("euclidean"), start="cnn", seed=1)
    kept = sorted(set(range(ds.n_rows)) - set(out.removed))
    assert ds.take(kept) == out.dataset


def test_oss_tomek_first_with_nothing_left_to_condense():
    # the Tomek pass drops row 1, the only row of the unimportant class
    # 'b', so CNN does not run and the Tomek pass's outcome is OSS's
    ds = line_ds([(0.0, "a"), (1.0, "b"), (10.0, "a")])
    out, important, unimportant = oss_classif(ds, Metric("euclidean"), cl=["a"],
                                              start="tomek")
    assert (important, unimportant) == (["a"], ["b"])
    assert out.dataset.column("x").values.tolist() == [0.0, 10.0]
    assert list(out.dataset.target_column.labels) == ["a", "a"]
    assert out.removed == [1] and out.warnings == [] and len(out.seeds) == 0


def test_oss_rejects_bad_start():
    ds = line_ds([(0.0, "a"), (1.0, "b"), (2.0, "b")])
    with pytest.raises(ResampleError, match="start must be"):
        oss_classif(ds, Metric("euclidean"), start="enn")


@pytest.mark.parametrize("cl", ["all", ["b", "a"]])
def test_oss_rejects_cl_covering_all_classes(cl):
    ds = line_ds([(0.0, "a"), (1.0, "b"), (2.0, "b")])
    with pytest.raises(ResampleError) as err:
        oss_classif(ds, Metric("euclidean"), cl=cl)
    assert str(err.value) == "every class is marked important: nothing to condense"


# ----------------------------------------------------------------- enn

def enn_toy():
    pts = [(0.0, "pos"), (0.1, "pos"), (0.2, "pos"), (5.0, "pos"),
           (4.8, "neg"), (4.9, "neg"), (6.0, "neg"), (7.0, "neg")]
    return line_ds(pts)


def test_enn_removes_disagreeing_row():
    out = enn_classif(enn_toy(), Metric("euclidean"), k=3, seed=0)
    # only the positive row stranded in the negative cluster goes
    assert out.removed == [3]
    assert out.warnings == []


def test_enn_respects_cl():
    out = enn_classif(enn_toy(), Metric("euclidean"), k=3, cl=["neg"], seed=0)
    assert out.removed == []
    assert out.warnings == [WARN_ENN_NONE]


def test_enn_reinserts_emptied_class():
    pts = [(5.0, "pos"), (4.8, "neg"), (4.9, "neg"), (6.0, "neg"), (7.0, "neg")]
    out = enn_classif(line_ds(pts), Metric("euclidean"), k=3, seed=0)
    # the lone positive fails the vote but is put back
    assert dict(class_counts(out.dataset))["pos"] == 1
    assert out.removed == []
    assert out.warnings == [WARN_ENN_NONE]


def test_enn_validates_k():
    ds = enn_toy()
    with pytest.raises(ResampleError, match="k must satisfy"):
        enn_classif(ds, Metric("euclidean"), k=0)
    with pytest.raises(ResampleError, match="k must satisfy"):
        enn_classif(ds, Metric("euclidean"), k=8)


# ----------------------------------------------------------------- ncl

def test_ncl_removes_majority_row_between_minority_rows():
    # k=1: the 'b' row's nearest neighbour is an 'a', and it is itself
    # the nearest neighbour of both 'a' rows
    ds = line_ds([(0.0, "a"), (1.0, "b"), (2.0, "a"), (50.0, "b"), (51.0, "b")])
    out = ncl_classif(ds, Metric("euclidean"), k=1, cl=["a"], seed=0)
    assert 1 in out.removed


def test_ncl_unchanged_when_separated():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (50.0, "b"), (51.0, "b"), (52.0, "b")])
    out = ncl_classif(ds, Metric("euclidean"), k=1, cl=["a"], seed=0)
    assert out.removed == []
    assert out.warnings == [WARN_ENN_NONE]


def test_ncl_cardinality_guard():
    # the 'c' pair agrees internally (safe from A1) and sits next to a
    # key-class row; with 2 < 0.5*5 rows the guard keeps A2 away
    def build(n_c):
        pts = [(0.0, "a")]
        pts += [(0.3 + 0.05 * i, "c") for i in range(n_c)]
        pts += [(10.0 + 0.5 * i, "a") for i in range(4)]
        pts += [(20.0 + float(i), "b") for i in range(6)]
        return line_ds(pts)

    guarded = ncl_classif(build(2), Metric("euclidean"), k=1, cl=["a"], seed=0)
    assert not any(
        guarded.dataset.n_rows and i in (1, 2) for i in guarded.removed
    )
    # one more 'c' row crosses the threshold and A2 may clean it
    cleaned = ncl_classif(build(3), Metric("euclidean"), k=1, cl=["a"], seed=0)
    assert 1 in cleaned.removed


def test_ncl_a1_uses_enn_rule_on_outside_classes():
    # 'b' row surrounded by 'a' rows disagrees with all 3 neighbours
    pts = [(0.0, "a"), (0.1, "a"), (0.2, "b"), (0.3, "a"), (0.4, "a"),
           (50.0, "b"), (50.1, "b"), (50.2, "b")]
    ds = line_ds(pts)
    out = ncl_classif(ds, Metric("euclidean"), k=3, cl=["a"], seed=0)
    assert 2 in out.removed


@pytest.mark.parametrize("k", [0, 4])
def test_ncl_validates_k(k):
    ds = line_ds([(0.0, "a"), (1.0, "a"), (2.0, "b"), (3.0, "b")])
    with pytest.raises(ResampleError) as err:
        ncl_classif(ds, Metric("euclidean"), k=k, cl=["a"])
    assert str(err.value) == "k must satisfy 1 <= k < number of rows"


def test_ncl_needs_key_classes():
    ds = line_ds([(0.0, "a"), (1.0, "a"), (2.0, "b"), (3.0, "b")])
    with pytest.raises(ResampleError, match="no key classes"):
        ncl_classif(ds, Metric("euclidean"), cl="smaller", seed=0)


# ---------------------------------------------------------- gauss noise

def gauss_toy():
    return labelled(
        ["a"] * 6 + ["b"] * 3,
        {
            "x": ("num", [0, 1, 2, 3, 4, 5, 10, 11, 12.0]),
            "c": ("nom", ["u", "u", "u", "v", "v", "v", "u", "u", "v"]),
        },
    )


def test_gauss_noise_counts_and_labels():
    out = gauss_noise_classif(
        gauss_toy(), ClassPercSpec.explicit({"a": 0.5, "b": 2}), seed=0
    )
    assert dict(class_counts(out.dataset)) == {"a": 3, "b": 6}
    assert np.count_nonzero(out.synthetic) == 3


def test_gauss_noise_pert_zero_gives_replicas():
    ds = gauss_toy()
    out = gauss_noise_classif(ds, ClassPercSpec.explicit({"b": 3}), pert=0.0, seed=1)
    xs = ds.column("x").values
    cs = ds.column("c").labels
    synth = out.dataset.column("x").values[ds.n_rows:]
    synth_c = out.dataset.column("c").labels[ds.n_rows:]
    assert len(synth) == 6
    assert set(synth) <= {10.0, 11.0, 12.0}
    for s, v, c in zip(out.seeds[out.synthetic], synth, synth_c):
        assert v == xs[s]
        assert c == cs[s]


def test_gauss_noise_nominal_values_stay_within_class():
    out = gauss_noise_classif(gauss_toy(), ClassPercSpec.explicit({"b": 4}), seed=3)
    synth_c = out.dataset.column("c").labels[9:]
    assert set(synth_c) <= {"u", "v"}


def test_gauss_noise_rejects_negative_pert():
    with pytest.raises(ResampleError, match="non-negative"):
        gauss_noise_classif(gauss_toy(), ClassPercSpec.balance(), pert=-1)


def test_gauss_noise_refuses_noise_that_overflows():
    # a draw times pert times sd overflowed: class a's cells came out
    # infinite, and the one row of class b, whose sd is 0, gave NaN cells
    # (blanks) as infinity times 0
    ds = labelled(["a"] * 6 + ["b"], {"x": ("num", [0, 1, 2, 3, 4, 5, 10.0])})
    for spec in ({"a": 2}, {"b": 30}):
        with pytest.raises(ResampleError, match="^column 'x': the noise overflows"):
            gauss_noise_classif(ds, ClassPercSpec.explicit(spec), pert=1e308, seed=0)
    out = gauss_noise_classif(ds, ClassPercSpec.explicit({"a": 2}), pert=1e300, seed=0)
    assert np.isfinite(out.dataset.column("x").values).all()


def test_gauss_noise_deterministic():
    a = gauss_noise_classif(gauss_toy(), ClassPercSpec.balance(), seed=7)
    b = gauss_noise_classif(gauss_toy(), ClassPercSpec.balance(), seed=7)
    assert dataset_to_csv_bytes(a.dataset) == dataset_to_csv_bytes(b.dataset)


# ----------------------------------------------------------------- smote

def smote_toy():
    return labelled(
        ["a"] * 6 + ["b"] * 3,
        {
            "x": ("num", [0, 1, 2, 3, 4, 5, 10, 11, 12.0]),
            "y": ("num", [0, 0, 0, 1, 1, 1, 5, 6, 7.0]),
        },
    )


def test_smote_counts():
    out = smote_classif(smote_toy(), ClassPercSpec.explicit({"b": 3}), k=2, seed=0)
    assert dict(class_counts(out.dataset)) == {"a": 6, "b": 9}


def test_smote_synthetic_rows_lie_between_seed_and_a_neighbour():
    ds = smote_toy()
    out = smote_classif(ds, ClassPercSpec.explicit({"b": 4}), k=2, seed=2)
    xs, ys = ds.column("x").values, ds.column("y").values
    synth = out.seeds[out.synthetic].tolist()
    sx = out.dataset.column("x").values[ds.n_rows:]
    sy = out.dataset.column("y").values[ds.n_rows:]
    b_rows = [6, 7, 8]
    for s, vx, vy in zip(synth, sx, sy):
        ok = False
        for r in b_rows:
            if r == s:
                continue
            in_x = min(xs[s], xs[r]) - 1e-12 <= vx <= max(xs[s], xs[r]) + 1e-12
            in_y = min(ys[s], ys[r]) - 1e-12 <= vy <= max(ys[s], ys[r]) + 1e-12
            ok = ok or (in_x and in_y)
        assert ok, f"synthetic ({vx},{vy}) outside every seed-neighbour box"


def test_smote_single_row_class_falls_back_to_replicas():
    ds = labelled(
        ["a"] * 4 + ["b"],
        {"x": ("num", [0, 1, 2, 3, 9.0])},
    )
    out = smote_classif(ds, ClassPercSpec.explicit({"b": 3}), seed=0)
    assert dict(class_counts(out.dataset)) == {"a": 4, "b": 3}
    assert any("single example" in w for w in out.warnings)
    assert list(out.dataset.column("x").values[5:]) == [9.0, 9.0]


def test_smote_rejects_nominal_features_with_euclidean():
    ds = labelled(
        ["a", "a", "b", "b"],
        {"c": ("nom", ["x", "y", "x", "y"])},
    )
    with pytest.raises(
        MetricError, match=r"default distance \(Euclidean\) is not possible"
    ):
        smote_classif(ds, ClassPercSpec.balance(), seed=0)


def test_smote_mixed_features_with_heom():
    ds = labelled(
        ["a"] * 5 + ["b"] * 3,
        {
            "x": ("num", [0, 1, 2, 3, 4, 10, 11, 12.0]),
            "c": ("nom", ["u", "u", "v", "v", "u", "u", "v", "u"]),
        },
    )
    out = smote_classif(ds, ClassPercSpec.explicit({"b": 2}), metric=Metric("heom"), seed=1)
    synth_c = out.dataset.column("c").labels[8:]
    assert set(synth_c) <= {"u", "v"}  # nominal cells copy one of the two ends


def test_smote_validates_k():
    with pytest.raises(ResampleError, match="k must be"):
        smote_classif(smote_toy(), ClassPercSpec.balance(), k=0)


def test_smote_deterministic():
    a = smote_classif(smote_toy(), ClassPercSpec.balance(), seed=11)
    b = smote_classif(smote_toy(), ClassPercSpec.balance(), seed=11)
    assert dataset_to_csv_bytes(a.dataset) == dataset_to_csv_bytes(b.dataset)


# --------------------------------------------------- shared validations

def test_strategies_reject_numeric_target():
    from _toys import regression_ds

    ds = regression_ds([1.0, 2.0, 3.0])
    with pytest.raises((ResampleError, Exception)):
        rand_under_classif(ds, ClassPercSpec.balance(), seed=0)


def test_resolve_cl_unknown_labels():
    ds = line_ds([(0.0, "a"), (1.0, "b")])
    with pytest.raises(ResampleError, match="unknown classes"):
        tomek_classif(ds, Metric("euclidean"), cl=["zzz"])
