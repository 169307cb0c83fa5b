"""The array-form editing rules and importance sampling against their loops.

Tomek links, ENN, NCL, OSS and regression importance sampling (mode A)
must remove, add and write exactly what the per-row loops in
``tests/_oracles.py`` do, on random mixed data with repeated values
(so mutual nearest neighbours tie), missing cells, up to four classes
whose labels are not all ASCII (their byte order sets the class
order), every ``cl``/``rem`` setting and every k.  Under euclidean a
missing cell has no distance, and the editing rules must refuse the
table, naming the column.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebalance import (
    BumpPercSpec,
    ImpSampParams,
    Metric,
    MetricError,
    build_context,
    build_relevance_range,
    cnn_classif,
    enn_classif,
    find_bumps,
    imp_samp_regress,
    ncl_classif,
    oss_classif,
    tomek_classif,
)
from rebalance.classif import ResampleError, _resolve_cl
from rebalance.distance import knn_table, nearest
from rebalance.regress import _ADDITIVE, _mixed_bump_targets
from rebalance.tabular import class_counts, dataset_to_csv_bytes

import _oracles as oracle
from _toys import make_ds

LABELS = ("Z", "a", "ä", "é")
NUMS = (0.0, 1.0, 2.0, np.nan)
NOMS = ("p", "q", None)


@st.composite
def cases(draw):
    """A small classification dataset and a metric that accepts it."""
    n = draw(st.integers(2, 24))
    # a label listed twice in the pool is drawn twice as often, so
    # class sizes are often far apart
    pool = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6))
    labels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    num = draw(st.lists(st.sampled_from(NUMS), min_size=n, max_size=n))
    cols = [("x", "num", num)]
    name = draw(st.sampled_from(["heom", "hvdm", "euclidean"]))
    if name != "euclidean":
        cols.append(("c", "nom", draw(st.lists(st.sampled_from(NOMS), min_size=n, max_size=n))))
    ds = make_ds([*cols, ("cls", "nom", labels)], "cls")
    return ds, Metric(name)


def cl_values(draw, ds):
    """'all', 'smaller' or a non-empty subset of the labels present."""
    present = sorted(set(ds.target_column.labels))
    subset = draw(st.lists(st.sampled_from(present), min_size=1, unique=True))
    return draw(st.sampled_from(["all", "smaller", subset]))


def refuses(ds, metric, strategy):
    """Whether the metric has no distance on ``ds``; then ``strategy()``
    must raise MetricError naming the column."""
    bad = oracle.refused_column_oracle(metric.name, ds)
    if bad is not None:
        with pytest.raises(MetricError, match=f"^column {bad!r} "):
            strategy()
    return bad is not None


def assert_edited(ds, out, removed):
    """``out`` drops exactly ``removed`` and adds nothing."""
    removed = sorted(removed)
    assert out.removed == removed
    assert len(out.seeds) == 0
    kept = np.setdiff1d(np.arange(ds.n_rows), removed)
    assert dataset_to_csv_bytes(out.dataset) == dataset_to_csv_bytes(ds.take(kept))


def tomek_reference(ds, metric, cl, rem):
    labels = list(ds.target_column.labels)
    _, nn = nearest(metric, build_context(metric, ds))
    cl_set = set(_resolve_cl(cl, class_counts(ds)))
    return oracle.tomek_oracle(labels, nn, cl_set, rem)


@settings(max_examples=300, deadline=None)
@given(case=cases(), data=st.data())
def test_tomek_matches_pair_loop(case, data):
    ds, metric = case
    cl = cl_values(data.draw, ds)
    rem = data.draw(st.sampled_from(["both", "maj"]))
    if refuses(ds, metric, lambda: tomek_classif(ds, metric, cl=cl, rem=rem)):
        return
    out = tomek_classif(ds, metric, cl=cl, rem=rem)
    assert_edited(ds, out, tomek_reference(ds, metric, cl, rem))


@settings(max_examples=300, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**16), data=st.data())
def test_enn_matches_row_loop(case, seed, data):
    ds, metric = case
    k = data.draw(st.integers(1, ds.n_rows - 1))
    cl = cl_values(data.draw, ds)
    if refuses(ds, metric, lambda: enn_classif(ds, metric, k=k, cl=cl, seed=seed)):
        return
    out = enn_classif(ds, metric, k=k, cl=cl, seed=seed)
    labels = list(ds.target_column.labels)
    nbrs = knn_table(metric, build_context(metric, ds), k)
    cl_set = set(_resolve_cl(cl, class_counts(ds)))
    assert_edited(ds, out, oracle.enn_oracle(labels, nbrs, cl_set, k, seed))


@st.composite
def ncl_cases(draw):
    ds, metric = draw(cases())
    return ds, metric, cl_values(draw, ds), draw(st.integers(1, ds.n_rows - 1))


def guard_case(n_key):
    """Two agreeing "ä" rows next to a row of the key class "é" (of
    ``n_key`` rows): A2 may take them only if 2 >= n_key / 2."""
    xs = [0.0, 0.3, 0.35] + [10.0 + i for i in range(n_key - 1)] + [20.0 + i for i in range(6)]
    labels = ["é", "ä", "ä"] + ["é"] * (n_key - 1) + ["Z"] * 6
    ds = make_ds([("x", "num", xs), ("cls", "nom", labels)], "cls")
    return ds, Metric("euclidean"), ["é"], 1


@settings(max_examples=300, deadline=None)
@given(case=ncl_cases())
@example(case=guard_case(4))
@example(case=guard_case(5))
def test_ncl_matches_row_loop(case):
    ds, metric, cl, k = case
    key = _resolve_cl(cl, class_counts(ds))
    if not key:  # "smaller" found no class: the strategy refuses
        return
    if refuses(ds, metric, lambda: ncl_classif(ds, metric, k=k, cl=cl)):
        return
    out = ncl_classif(ds, metric, k=k, cl=cl)
    labels = list(ds.target_column.labels)
    nbrs = knn_table(metric, build_context(metric, ds), k)
    a1, a2 = oracle.ncl_oracle(labels, nbrs, key, k)
    assert_edited(ds, out, a1 | a2)
    assert out.warnings == ([] if a1 else ["ENNClassif found no examples to remove!"])


@st.composite
def oss_cases(draw):
    ds, metric = draw(cases())
    return ds, metric, cl_values(draw, ds), draw(st.sampled_from(["cnn", "tomek"]))


@settings(max_examples=200, deadline=None)
@given(case=oss_cases(), seed=st.integers(0, 2**16))
# no class is smaller and the Tomek pass drops both rows: CNN is skipped
@example(case=(make_ds([("x", "num", [0.0, 1.0]), ("cls", "nom", ["Z", "a"])], "cls"),
               Metric("euclidean"), "smaller", "tomek"), seed=0)
def test_oss_matches_set_arithmetic(case, seed):
    ds, metric, cl, start = case
    counts = class_counts(ds)
    important = _resolve_cl(cl, counts)
    if set(important) == set(counts):  # nothing to condense: refused
        return
    if refuses(ds, metric, lambda: oss_classif(ds, metric, cl=cl, start=start, seed=seed)):
        return
    unimportant = sorted(set(counts) - set(important))
    if start == "cnn":
        first = cnn_classif(ds, metric, cl=important, seed=seed)[0].removed
        mid = ds.take(np.setdiff1d(np.arange(ds.n_rows), first))
        second = sorted(tomek_reference(mid, metric, unimportant, "both"))
    else:
        first = sorted(tomek_reference(ds, metric, unimportant, "both"))
        mid = ds.take(np.setdiff1d(np.arange(ds.n_rows), first))
        # with no unimportant row left, CNN has nothing to condense
        second = ([] if set(class_counts(mid)) <= set(important)
                  else cnn_classif(mid, metric, cl=important, seed=seed)[0].removed)
    out, _, _ = oss_classif(ds, metric, cl=cl, start=start, seed=seed)
    assert_edited(ds, out, oracle.oss_removed_oracle(ds.n_rows, first, second))


@st.composite
def regression_cases(draw):
    """Targets with ties, a relevance with flat 0 and 1 stretches, a spec."""
    n = draw(st.integers(2, 30))
    y = draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.0]),
                      min_size=n, max_size=n))
    x = draw(st.lists(st.sampled_from(NUMS), min_size=n, max_size=n))
    ds = make_ds([("x", "num", x), ("g", "nom", [str(v) for v in y]), ("y", "num", y)], "y")
    ys = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 4.0]),
                       min_size=2, max_size=4, unique=True))
    phis = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=len(ys), max_size=len(ys)))
    fn = build_relevance_range(list(zip(ys, phis)))
    thr = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    bumps = find_bumps(ds, fn, thr).bumps
    mode = draw(st.sampled_from(["balance", "extreme", "explicit"]))
    if mode != "explicit":
        return ds, fn, thr, BumpPercSpec(mode)
    percs = [
        draw(st.sampled_from([0.0, 0.5, 1.0, 2.5] if b.rare else [0.1, 0.5, 1.0]))
        for b in bumps
    ]
    return ds, fn, thr, BumpPercSpec.explicit(percs)


@settings(max_examples=300, deadline=None)
@given(case=regression_cases(), seed=st.integers(0, 2**16))
def test_imp_samp_mode_a_matches_bump_loop(case, seed):
    ds, fn, thr, spec = case
    params = ImpSampParams(thr_rel=thr, spec=spec)
    part = find_bumps(ds, fn, thr)
    targets = _mixed_bump_targets(spec, part, _ADDITIVE)
    phi = fn(ds.target_column.values)
    try:
        kept, seeds = oracle.imp_samp_mode_a_oracle(
            phi, [b.indices for b in part.bumps], targets, seed)
    except ValueError:
        # fewer rows of non-zero weight than rows to drop: numpy refuses
        with pytest.raises(ResampleError, match="must lose .* rows but holds only"):
            imp_samp_regress(ds, fn, params, seed=seed)
        return
    out = imp_samp_regress(ds, fn, params, seed=seed)
    assert out.removed == sorted(set(range(ds.n_rows)) - set(kept))
    assert oracle.added_rows(out) == [(s, False) for s in seeds]
    expected = ds.take(np.array(kept + seeds, dtype=np.intp))
    assert dataset_to_csv_bytes(out.dataset) == dataset_to_csv_bytes(expected)
