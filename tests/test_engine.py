"""The blocked neighbour engine against the dense matrix it replaces.

``knn_table`` must equal a stable argsort of ``pairwise`` with an
infinite diagonal, ``nearest`` its ``argmin``, and the incremental CNN
the old full-matrix loop, on random mixed-type data with repeated
values and missing cells, under all eight metrics.  Each check runs
with the engine's chunk budget cut to 1 and to 7 distances, so chunk
edges split the rows.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import Metric, MetricError, build_context, cnn_classif, pairwise
from rebalance.distance import METRIC_NAMES, PLAIN_METRICS, knn_table, nearest

import _oracles as oracle
from _toys import make_ds

# infinite cells make inf - inf, which numpy reports while the metrics
# turn it into the NaN distances under test
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

# the package re-exports the function ``distance`` under the module's name
dist_mod = importlib.import_module("rebalance.distance")

BLOCKS = (1, 7)
NUMS = (0.0, 1.0, 2.0, 2.5, -1.0, np.nan, np.inf)
NOMS = ("a", "b", "c", None)


@st.composite
def cases(draw, min_rows=2):
    """A dataset, its metric and context, with many ties and gaps."""
    name = draw(st.sampled_from(METRIC_NAMES))
    n = draw(st.integers(min_rows, 12))
    n_feats = draw(st.integers(1, 3))
    if name in PLAIN_METRICS:
        kinds = ["num"] * n_feats
    elif name == "overlap":
        kinds = ["nom"] * n_feats
    else:
        kinds = draw(st.lists(st.sampled_from(["num", "nom"]),
                              min_size=n_feats, max_size=n_feats))
    cols = []
    for j, kind in enumerate(kinds):
        pool = NUMS if kind == "num" else NOMS
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        cols.append((f"f{j}", kind, values))
    labels = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n))
    cols.append(("cls", "nom", labels))
    ds = make_ds(cols, "cls")
    p = draw(st.sampled_from([0.5, 1.0, 3.0])) if name == "minkowsky" else None
    metric = Metric(name, p=p)
    return ds, metric, build_context(metric, ds)


def dense(metric, ctx, rows=None):
    d = pairwise(metric, ctx, rows=rows)
    np.fill_diagonal(d, np.inf)
    return d


def same_floats(a, b):
    return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


@settings(max_examples=150, deadline=None)
@given(case=cases(), data=st.data())
def test_knn_table_matches_stable_argsort(case, data):
    ds, metric, ctx = case
    n = ds.n_rows
    sub = np.array(data.draw(st.permutations(range(n)))[: data.draw(st.integers(2, n))])
    for rows in (None, sub):
        order = np.argsort(dense(metric, ctx, rows), axis=1, kind="stable")
        for block in BLOCKS:
            with mock.patch.object(dist_mod, "BLOCK_PAIRS", block):
                for k in range(1, len(order)):
                    got = knn_table(metric, ctx, k, rows=rows)
                    np.testing.assert_array_equal(got, order[:, :k])


@settings(max_examples=150, deadline=None)
@given(case=cases(min_rows=1), data=st.data())
def test_nearest_matches_argmin(case, data):
    ds, metric, ctx = case
    n = ds.n_rows
    d = dense(metric, ctx)
    q = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.intp)
    c = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)),
                 dtype=np.intp)
    full = pairwise(metric, ctx)[np.ix_(q, c)]
    for block in BLOCKS:
        with mock.patch.object(dist_mod, "BLOCK_PAIRS", block):
            got_d, got_pos = nearest(metric, ctx)
            np.testing.assert_array_equal(got_pos, d.argmin(axis=1))
            assert same_floats(got_d, d[np.arange(n), d.argmin(axis=1)])
            got_d, got_pos = nearest(metric, ctx, q, c)
            np.testing.assert_array_equal(got_pos, full.argmin(axis=1))
            assert same_floats(got_d, full[np.arange(len(q)), full.argmin(axis=1)])


def cnn_oracle_removed(ds, metric, ctx, important, seed):
    """Rows the full-matrix CNN loop drops, from cnn_classif's start set."""
    labels = list(ds.target_column.values)
    rng = np.random.default_rng(seed)
    kept = [lab in important for lab in labels]
    for label in sorted(set(labels) - set(important)):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        kept[idx[rng.integers(len(idx))]] = True
    want = oracle.cnn_full_matrix_oracle(pairwise(metric, ctx), labels, kept)
    return [i for i, k in enumerate(want) if not k]


@settings(max_examples=150, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**16), data=st.data())
def test_cnn_matches_full_matrix_loop(case, seed, data):
    ds, metric, ctx = case
    classes = sorted(set(ds.target_column.values))
    if len(classes) < 2:
        return
    important = data.draw(st.lists(st.sampled_from(classes), min_size=1,
                                    max_size=len(classes) - 1, unique=True))
    removed = cnn_oracle_removed(ds, metric, ctx, important, seed)
    for block in BLOCKS:
        with mock.patch.object(dist_mod, "BLOCK_PAIRS", block):
            out, _, _ = cnn_classif(ds, metric, cl=sorted(important), seed=seed)
            assert out.removed == removed


def test_cnn_later_round_rows_win_ties_and_nans_by_index():
    # Rows that join the kept set in a later round can sit below a row's
    # current nearest kept row.  On a tie, and among NaN distances (row
    # 7), the lower index must win, as argmin over the whole kept set
    # does.  Found by random search: dropping either index rule from
    # the merge changes the rows removed here.
    x = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, np.nan]
    ds = make_ds([("x", "num", x), ("cls", "nom", list("bcbaabcc"))], "cls")
    metric = Metric("euclidean")
    ctx = build_context(metric, ds)
    out, _, _ = cnn_classif(ds, metric, cl=["a"], seed=2)
    assert out.removed == cnn_oracle_removed(ds, metric, ctx, ["a"], 2) == [6]


def test_chunks_stay_within_the_pair_budget():
    rng = np.random.default_rng(3)
    n = 50
    ds = make_ds([("x", "num", rng.normal(size=n)), ("cls", "nom", ["a"] * n)], "cls")
    metric = Metric("euclidean")
    ctx = build_context(metric, ds)
    shapes = []
    real_block = dist_mod._block

    def spy(metric, ctx, rows_a, rows_b):
        shapes.append((len(rows_a), len(rows_b)))
        return real_block(metric, ctx, rows_a, rows_b)

    with mock.patch.object(dist_mod, "BLOCK_PAIRS", 120), \
            mock.patch.object(dist_mod, "_block", spy):
        knn_table(metric, ctx, 3)
        nearest(metric, ctx)
    assert shapes and all(a * b <= 120 for a, b in shapes)
    assert sum(a for a, _ in shapes) == 2 * n


def test_knn_table_rejects_k_out_of_range():
    ds = make_ds([("x", "num", [0.0, 1.0]), ("cls", "nom", ["a", "b"])], "cls")
    metric = Metric("euclidean")
    ctx = build_context(metric, ds)
    for k in (0, 2):
        with pytest.raises(MetricError, match="k must satisfy"):
            knn_table(metric, ctx, k)
