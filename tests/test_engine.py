"""The blocked neighbour engine against the dense matrix it replaces.

``knn_table`` must equal a stable argsort of ``pairwise`` with an
infinite diagonal, or of its rows at the candidate cols, and CNN's
rounds the old full-matrix loop, on random mixed-type data with repeated
values, missing and infinite cells, under all eight metrics.  A table
the metric has no distance on (a missing cell under a plain metric, an
infinite cell under any) must be refused by ``build_context``, naming
the column.  Each check runs with the engine's chunk budget cut to 1
and to 7 distances, so chunk edges split the rows.

The k-d walk, which measures each chunk of rows only against the
leaves of candidates that its rows' box bounds cannot rule out, is
checked the same way on larger finite tables of 1 to 8 numeric
features where it prunes: at the default budget too, with the
smallest leaves and chunks, and on the edges of its bounds: runs of
equal values, a zero-scale feature, terms that underflow to 0 and
missing cells.  A property holds the bound itself at or below the
distance from a row, and from a box of rows, to every member of a
leaf.  Guard tests hold the walk to its pair budget and to a fraction
of the n x n pairs on ``gen imbc``, on a table of four normal features
and in CNN, and its pairs per row flat as ``gen imbc`` grows; they
keep deleted the sorted walk it replaced, the scalar ``distance()``
path and the ``AddedRow`` list, and keep one feature loop, the
kernel's, and one tie rule, the engine's, which CNN asks once a round
against every kept row; ``knn_table`` stays the one neighbour query.
One more keeps every function from taking a metric beside a
``MetricContext``.
"""

import ast
import dataclasses
import importlib
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rebalance
from rebalance import Metric, MetricContext, MetricError, build_context, cnn_classif, pairwise
from rebalance.distance import METRIC_NAMES, PLAIN_METRICS, knn_table
from rebalance.synthgen import gen_imbc

import _oracles as oracle
from _toys import context_or_refusal, make_ds, random_numeric_ds

dist_mod = importlib.import_module("rebalance.distance")
classif_mod = importlib.import_module("rebalance.classif")

BLOCKS = (1, 7)
NUMS = (0.0, 1.0, 2.0, 2.5, -1.0, np.nan, np.inf)
FINITE = tuple(v for v in NUMS if np.isfinite(v))
NOMS = ("a", "b", "c", None)


@st.composite
def cases(draw, min_rows=2):
    """A dataset, its metric and context, with many ties and gaps; the
    context is None where the metric refuses the table.

    Under a plain metric, which refuses a table with a missing or an
    infinite cell, four tables in five draw finite cells only, so that
    most reach the checks; the others, and every HEOM and HVDM table,
    draw NaN and inf cells too.
    """
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
    finite = name in PLAIN_METRICS and draw(st.integers(0, 4)) > 0
    cols = []
    for j, kind in enumerate(kinds):
        pool = NOMS if kind == "nom" else FINITE if finite else NUMS
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        cols.append((f"f{j}", kind, values))
    labels = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n))
    cols.append(("cls", "nom", labels))
    ds = make_ds(cols, "cls")
    p = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) if name == "minkowsky" else None
    metric = Metric(name, p=p)
    return ds, metric, context_or_refusal(metric, ds)


def dense(ctx, rows=None):
    d = pairwise(ctx, rows=rows)
    np.fill_diagonal(d, np.inf)
    return d


@settings(max_examples=150, deadline=None)
@given(case=cases(min_rows=1), data=st.data())
def test_knn_table_matches_stable_argsort(case, data):
    ds, metric, ctx = case
    if ctx is None:
        return
    event(f"checked under {metric.name}")
    n = ds.n_rows
    budgets = [{"BLOCK_PAIRS": block} for block in BLOCKS]
    sub = np.array(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    for rows in (None, sub):
        check_knn_table(ctx, None, rows, at=budgets)
    # any rows against any cols, repeats included, and rows among the cols
    pos = st.integers(0, n - 1)
    q = np.array(data.draw(st.lists(pos, max_size=n)), dtype=np.intp)
    c = np.array(data.draw(st.lists(pos, min_size=1, max_size=n)), dtype=np.intp)
    inside = np.array(data.draw(st.lists(st.sampled_from(c), max_size=n)), dtype=np.intp)
    for rows in (q, inside):
        check_knn_table(ctx, None, rows, c, at=budgets)


def cnn_oracle_removed(ds, ctx, important, seed):
    """Rows the full-matrix CNN loop drops, from cnn_classif's start set."""
    labels = list(ds.target_column.labels)
    rng = np.random.default_rng(seed)
    kept = [lab in important for lab in labels]
    for label in sorted(set(labels) - set(important)):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        kept[idx[rng.integers(len(idx))]] = True
    want = oracle.cnn_full_matrix_oracle(pairwise(ctx), labels, kept)
    return [i for i, k in enumerate(want) if not k]


@settings(max_examples=150, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**16), data=st.data())
def test_cnn_matches_full_matrix_loop(case, seed, data):
    ds, metric, ctx = case
    classes = sorted(set(ds.target_column.labels))
    if ctx is None or len(classes) < 2:
        return
    event(f"checked under {metric.name}")
    important = data.draw(st.lists(st.sampled_from(classes), min_size=1,
                                    max_size=len(classes) - 1, unique=True))
    removed = cnn_oracle_removed(ds, ctx, important, seed)
    for block in BLOCKS:
        with mock.patch.object(dist_mod, "BLOCK_PAIRS", block):
            out, _, _ = cnn_classif(ds, metric, cl=sorted(important), seed=seed)
            assert out.removed == removed


def test_cnn_later_round_rows_win_ties_by_index():
    # Rows that join the kept set in a later round can sit as near a row
    # as a row kept before them.  On a tie the lower index must win, as
    # argmin over the whole kept set does.  Found by random search when
    # CNN merged each round's answer into the last: letting the later
    # row win ties changed the rows removed in both cases, and keeping
    # the earlier kept row changed them in the second.
    metric = Metric("euclidean")
    for x, labels, seed, removed in [
        ([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], "bcbaabc", 2, [6]),
        ([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], "ccbabc", 0, [5]),
    ]:
        ds = make_ds([("x", "num", x), ("cls", "nom", list(labels))], "cls")
        ctx = build_context(metric, ds)
        out, _, _ = cnn_classif(ds, metric, cl=["a"], seed=seed)
        assert out.removed == cnn_oracle_removed(ds, ctx, ["a"], seed) == removed
    # a blank cell has no euclidean distance, so no NaN order to break
    # ties by: CNN refuses the table
    x = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, np.nan]
    ds = make_ds([("x", "num", x), ("cls", "nom", list("bcbaabcc"))], "cls")
    with pytest.raises(MetricError, match="^column 'x' has a missing cell"):
        cnn_classif(ds, metric, cl=["a"], seed=2)


def test_chunks_stay_within_the_pair_budget():
    rng = np.random.default_rng(3)
    n = 50
    ds = make_ds([("x", "num", rng.normal(size=n)), ("cls", "nom", ["a"] * n)], "cls")
    metric = Metric("euclidean")
    ctx = build_context(metric, ds)
    shapes = []
    real_block = dist_mod._block

    def spy(ctx, rows_a, rows_b):
        shapes.append((len(rows_a), len(rows_b)))
        return real_block(ctx, rows_a, rows_b)

    with mock.patch.object(dist_mod, "BLOCK_PAIRS", 120), \
            mock.patch.object(dist_mod, "_block", spy):
        knn_table(ctx, 3)
        knn_table(ctx, 1)
    assert shapes and all(a * b <= 120 for a, b in shapes)
    assert sum(a for a, _ in shapes) == 2 * n


def test_nearest_of_no_rows_is_empty_and_with_no_candidate_refused():
    ds = make_ds([("x", "num", [0.0, 1.0]), ("cls", "nom", ["a", "b"])], "cls")
    ctx = build_context(Metric("euclidean"), ds)
    for cols in (None, [], [1]):
        assert knn_table(ctx, 1, [], cols).shape == (0, 1)
    # a row is not its own candidate: a lone row has none
    lone = build_context(Metric("euclidean"), ds.take([0]))
    for call in (lambda: knn_table(ctx, 1, [0], []), lambda: knn_table(ctx, 1, [0]),
                 lambda: knn_table(lone, 1)):
        with pytest.raises(MetricError, match="^k must lie between 1 and"):
            call()


def test_knn_table_rejects_k_out_of_range():
    ds = make_ds([("x", "num", [0.0, 1.0]), ("cls", "nom", ["a", "b"])], "cls")
    metric = Metric("euclidean")
    ctx = build_context(metric, ds)
    for k, cols in ((0, None), (2, None), (0, [0, 1]), (3, [0, 1]), (0, [])):
        with pytest.raises(MetricError, match="^k must lie between 1 and"):
            knn_table(ctx, k, cols=cols)


# the metrics under which the engine can prune, and the engine settings
# the k-d walk is checked at: a budget of one distance, of seven, the
# defaults, and the smallest leaves and chunks, one row each
SORTED_METRICS = ("heom", "hvdm", "euclidean", "manhattan", "chebyshev", "minkowsky")
SETTINGS = ({"BLOCK_PAIRS": 1}, {"BLOCK_PAIRS": 7}, {}, {"LEAF_ROWS": 1, "CHUNK_ROWS": 1})


def engine(setting):
    return mock.patch.multiple(dist_mod, **setting) if setting else nullcontext()


@st.composite
def sortable_cases(draw):
    """A finite table of 20 to 80 rows, its metric and context.

    It holds 1 to 8 numeric features, and under HEOM and HVDM up to two
    nominal ones.  A numeric feature is one of three kinds:

    - a small integer grid mixed with spread-out floats;
    - two values only, so rows tie in long runs on several features and
      leaf boxes touch;
    - gaps of 1e-200 beside one cell of 1e100, so both the squared terms
      and the box terms of the small gaps underflow to 0.

    Under HEOM and HVDM any numeric cell may be missing.
    """
    name = draw(st.sampled_from(SORTED_METRICS))
    n = draw(st.integers(20, 80))
    plain = name in PLAIN_METRICS
    n_nom = 0 if plain else draw(st.integers(0, 2))
    grid = st.integers(-3, 3).map(float)
    pools = {
        "mixed": st.one_of(grid, st.floats(-100, 100, allow_nan=False)),
        "runs": st.sampled_from([0.0, 1.0]),
        "tiny": st.sampled_from([0.0, 1e-200, 2e-200, 3e-200]),
    }
    cols = []
    for j in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(sorted(pools)))
        pool = pools[kind] if plain else st.one_of(pools[kind], st.just(np.nan))
        values = draw(st.lists(pool, min_size=n, max_size=n))
        if kind == "tiny":
            values[draw(st.integers(0, n - 1))] = 1e100
        cols.append((f"f{j}", "num", values))
    for j in range(n_nom):
        cols.append((f"g{j}", "nom", draw(st.lists(st.sampled_from(NOMS), min_size=n, max_size=n))))
    labels = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n))
    cols.append(("cls", "nom", labels))
    ds = make_ds(cols, "cls")
    p = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) if name == "minkowsky" else None
    metric = Metric(name, p=p)
    return ds, metric, build_context(metric, ds)


def check_knn_table(ctx, ks, rows=None, cols=None, at=SETTINGS):
    """``knn_table(ctx, k, rows, cols)`` against the first k columns of
    a stable argsort of the dense distances, at each engine setting in
    ``at``, for each k in ``ks`` or, with ``ks`` None, every k from 1 to
    the number of candidates.  One k more than the candidates is
    refused, and no rows give an empty table."""
    d = dense(ctx, rows) if cols is None else pairwise(ctx)[np.ix_(rows, cols)]
    order = np.argsort(d, axis=1, kind="stable")
    top = d.shape[1] - (cols is None)  # the number of candidates
    for setting in at:
        with engine(setting):
            for k in range(1, top + 1) if ks is None else ks:
                np.testing.assert_array_equal(knn_table(ctx, k, rows, cols), order[:, :k])
            if len(d):
                with pytest.raises(MetricError, match="^k must lie between 1 and"):
                    knn_table(ctx, top + 1, rows, cols)
            else:
                assert knn_table(ctx, top + 1, rows, cols).shape == (0, top + 1)


@settings(max_examples=60, deadline=None)
@given(case=sortable_cases(), data=st.data())
def test_kd_walk_knn_table_matches_stable_argsort(case, data):
    ds, metric, ctx = case
    n = ds.n_rows
    ks = sorted({1, data.draw(st.integers(1, 8))})
    check_knn_table(ctx, ks)
    # SMOTE passes the rows of one class or bump
    sub = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=10))))
    check_knn_table(ctx, [k for k in ks if k < len(sub)], rows=sub)
    # CNN passes the rows not yet kept against the rows kept so far
    split = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if split.all() or not split.any():
        split[0] = not split[0]
    # and any rows against any cols, repeats included, and rows among
    # the cols
    pos = st.integers(0, n - 1)
    q = np.array(data.draw(st.lists(pos, max_size=n)), dtype=np.intp)
    c = np.array(data.draw(st.lists(pos, min_size=1, max_size=n)), dtype=np.intp)
    inside = np.array(data.draw(st.lists(st.sampled_from(c), max_size=n)), dtype=np.intp)
    for rows, cols in ((np.flatnonzero(split), np.flatnonzero(~split)), (q, c), (inside, c)):
        # k = 1, the number of cols and one k between: every k at four
        # settings would take about four times as long
        ks = sorted({1, data.draw(st.integers(1, len(cols))), len(cols)})
        check_knn_table(ctx, ks, rows, cols)


@settings(max_examples=40, deadline=None)
@given(case=sortable_cases(), seed=st.integers(0, 2**16), data=st.data())
def test_kd_walk_cnn_matches_full_matrix_loop(case, seed, data):
    ds, metric, ctx = case
    classes = sorted(set(ds.target_column.labels))
    if len(classes) < 2:
        return
    important = data.draw(st.lists(st.sampled_from(classes), min_size=1,
                                    max_size=len(classes) - 1, unique=True))
    removed = cnn_oracle_removed(ds, ctx, important, seed)
    for setting in SETTINGS:
        with engine(setting):
            out, _, _ = cnn_classif(ds, metric, cl=sorted(important), seed=seed)
            assert out.removed == removed


@settings(max_examples=60, deadline=None)
@given(case=sortable_cases(), size=st.integers(1, 24))
def test_box_bound_never_exceeds_a_distance_to_the_leaf(case, size):
    # the bound itself, not only the answers it leaves unchanged: from
    # each row, and from each box of a tree over the rows, to each leaf
    # of the tree the walk builds over the cols
    ds, metric, ctx = case
    leaves = []
    real_leaves = dist_mod._kd_leaves

    def spy(bctx, idx, leaf_rows):
        leaves.append((bctx, real_leaves(bctx, idx, leaf_rows)))
        return leaves[-1][1]

    with mock.patch.object(dist_mod, "_kd_leaves", spy):
        knn_table(ctx, 1)
    if not leaves:
        event("no feature to bound by")
        return
    (bctx, (perm, bounds, lo, hi)), = leaves
    lo, hi = lo[:, None], hi[:, None]
    rows = np.arange(ds.n_rows)
    # each row's distance to its nearest member of each leaf
    d = np.minimum.reduceat(dist_mod._block(ctx, rows, rows)[:, perm], bounds[:-1], axis=1)
    x = np.array(dist_mod.encode_rows(bctx, rows))[:, :, None]
    assert (dist_mod._box_bound(bctx, lo, hi, x, x) <= d).all()
    q_perm, q_bounds, q_lo, q_hi = dist_mod._kd_leaves(bctx, rows, size)
    box = dist_mod._box_bound(bctx, lo, hi, q_lo[:, :, None], q_hi[:, :, None])
    assert (box <= np.minimum.reduceat(d[q_perm], q_bounds[:-1], axis=0)).all()
    event("a positive bound" if (box > 0).any() else "every bound 0")


def edge_case(x, metric_name="heom", other=None):
    rng = np.random.default_rng(0)
    cols = [("x", "num", x)]
    if other is not None:
        cols.append(("o", "num" if metric_name in PLAIN_METRICS else "nom", other))
    cols.append(("cls", "nom", list(rng.choice(["a", "b"], size=len(x)))))
    metric = Metric(metric_name)
    return metric, build_context(metric, make_ds(cols, "cls"))


@pytest.mark.parametrize("name", ["heom", "hvdm", "euclidean"])
def test_equal_sort_values_tie_at_a_zero_kth_distance(name):
    # long runs of one value: most k-th distances are 0, every cut is a
    # tie, and the lowest positions must win across chunks
    rng = np.random.default_rng(1)
    x = list(rng.choice([0.0, 0.0, 0.0, 1.0, 5.0], size=90))
    metric, ctx = edge_case(x, name)
    check_knn_table(ctx, [1, 3, 7])
    check_knn_table(ctx, [1, 3, 7], np.arange(0, 90, 3), np.arange(1, 90, 2))


@pytest.mark.parametrize("name", ["heom", "hvdm"])
def test_zero_scale_feature_is_not_sorted_by(name):
    # a constant first feature has range and sd 0, so its term is 0 for
    # every pair and cannot prune; the walk bounds by the second one
    rng = np.random.default_rng(2)
    x = [4.0] * 60
    metric, ctx = edge_case(x, name)
    assert dist_mod._bounded_features(ctx, np.arange(60), np.arange(60)) is None
    check_knn_table(ctx, [1, 4])
    ds = make_ds([("c", "num", x), ("x", "num", list(rng.normal(size=60))),
                  ("cls", "nom", ["a", "b"] * 30)], "cls")
    ctx = build_context(metric, ds)
    assert dist_mod._bounded_features(ctx, np.arange(60), np.arange(60)) == [1]
    check_knn_table(ctx, [1, 4])


def test_term_that_underflows_to_zero_keeps_its_candidates():
    # One row at 1e300 makes the HEOM range huge, so the others' gaps of
    # 1e-20 divide to subnormals that square to exactly 0: their
    # distances are all 0 though their values differ.  Their box bounds
    # are 0 too, so no leaf is ruled out by a strict ">", and the
    # lowest positions win.
    rng = np.random.default_rng(3)
    x = list(rng.permutation(np.arange(1, 80) * 1e-20)) + [1e300]
    metric, ctx = edge_case(x, "heom")
    d = dense(ctx)
    assert (d[:-1, :-1][~np.eye(79, dtype=bool)] == 0).all()
    check_knn_table(ctx, [1, 3])
    check_knn_table(ctx, [1, 3], np.arange(40, 80), np.arange(40))


def test_row_missing_the_sort_feature_joins_every_block():
    # Under HVDM the rows at -100 and 100 lie 1.12 x 4 sd apart, so
    # their term exceeds the term of 1 that row 11, which misses x, has
    # with every row.  Row 11 is the second nearest of both; were the
    # box of its leaf on x taken from its other cells, the gap from 100
    # or -100 could rule it out.  Found by random search.
    x = [1.0, 0.0, 1.0, 1.0, 100.0, 0.0, 1.0, -100.0, 0.0, 0.0, 0.0, np.nan]
    ds = make_ds([("x", "num", x), ("o", "nom", list("bacbcabcbabc")),
                  ("cls", "nom", list("pqqpqppqppqq"))], "cls")
    metric = Metric("hvdm")
    ctx = build_context(metric, ds)
    check_knn_table(ctx, [1, 2, 3])


def measured(fn):
    """The size of each block of distances fn() measures."""
    sizes = []
    real_block = dist_mod._block

    def spy(ctx, rows_a, rows_b):
        sizes.append(len(rows_a) * len(rows_b))
        return real_block(ctx, rows_a, rows_b)

    with mock.patch.object(dist_mod, "_block", spy):
        fn()
    assert max(sizes) <= dist_mod.BLOCK_PAIRS
    return sum(sizes)


# If pruning silently stops engaging, the pairs measured go back to
# n x n and the guards below fail without any timing.  Each bound sits
# above what the k-d walk measures and below what the sorted walk it
# replaced measured on the same call.

@pytest.mark.parametrize("name", ["heom", "hvdm"])
def test_kd_walk_prunes_gen_imbc_within_the_pair_budget(name):
    ds = gen_imbc(4000, seed=0)
    metric = Metric(name)
    ctx = build_context(metric, ds)
    assert measured(lambda: knn_table(ctx, 3)) < 0.15 * ds.n_rows ** 2


@pytest.mark.parametrize("name", ["heom", "euclidean"])
def test_walk_prunes_four_normal_features_within_the_pair_budget(name):
    # the k-d walk measures 17.5-17.7% of the pairs, the sorted walk
    # measured 91-94%
    ds = random_numeric_ds(np.random.default_rng(0), 4000, 4)
    metric = Metric(name)
    ctx = build_context(metric, ds)
    assert measured(lambda: knn_table(ctx, 3)) < 0.22 * ds.n_rows ** 2


def test_cnn_prunes_gen_imbc_within_the_pair_budget():
    # CNN asks for each row's nearest kept row twice here: 3,459 rows
    # against 541, then 349 against all 3,651 kept.  The k-d walk
    # measures 3.2% of the n x n pairs over both rounds; asking the
    # second round against its 3,110 new rows alone took 3.5%, and the
    # sorted walk 5.8%.
    ds = gen_imbc(4000, seed=0)
    metric = Metric("heom")
    assert measured(lambda: cnn_classif(ds, metric, seed=0)) < 0.035 * ds.n_rows ** 2


def test_pairs_per_row_stay_flat_as_gen_imbc_grows():
    # half of a scaling guard: from 8,000 to 32,000 rows the walk
    # measures 140.5 pairs per row in both calls, in 128 and then 512
    # blocks.  CNN's pairs and the bound entries per row still grow
    # with n (x1.43 and x3.6 to x4.0) and are not held here.
    per_row = []
    for n in (8000, 32000):
        ctx = build_context(Metric("heom"), gen_imbc(n, seed=0))
        per_row.append([measured(lambda: knn_table(ctx, 1)) / n,
                        measured(lambda: knn_table(ctx, 3)) / n])
    for small, large in zip(*per_row):
        assert large <= 1.2 * small


def test_the_sorted_walk_stays_deleted():
    # one neighbour walk: sorting by one feature is the k-d walk's
    # one-feature case, so it must not come back beside it
    tree = ast.parse(Path(dist_mod.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_sort_feature", "_sorted_chunks"}


def test_knn_table_stays_the_one_neighbour_query():
    # k = 1 is knn_table's case, so no second query with a refusal of its
    # own comes back beside it, and the strategies ask knn_table alone
    tree = ast.parse(Path(dist_mod.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "nearest" not in defined | set(dist_mod.__all__)
    tree = ast.parse(Path(classif_mod.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "distance"
                for alias in node.names}
    assert imported - {"Metric", "MetricContext", "build_context"} == {"knn_table"}


def test_the_scalar_distance_and_added_rows_stay_deleted():
    # one way to each result: distances come from pairwise and
    # paired_distances, added rows from an outcome's seeds and synthetic
    assert not {"distance", "AddedRow"} & set(rebalance.__all__)
    assert rebalance.distance is dist_mod and not hasattr(rebalance, "AddedRow")
    tree = ast.parse(Path(dist_mod.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    fields = {node.target.id for node in ast.walk(tree)
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    assert not (defined | fields) & {"distance", "_nominal_code", "nom_encode"}


def test_each_rule_stays_written_once():
    # one operand array and one scale per feature, one class-list rule,
    # and the CSV-to-bytes helper lives with the tests
    assert [f.name for f in dataclasses.fields(MetricContext)] == [
        "metric", "kinds", "n_rows", "operands", "scale", "vdm_sq"]
    deleted = {"_scale", "num_values", "nom_codes", "ranges", "four_sd", "smaller_ok",
               "dataset_to_csv_bytes", "_finish"}
    for path in Path(dist_mod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, a) for node in ast.walk(tree)
                 for a in ("id", "attr", "arg", "name") if isinstance(getattr(node, a, None), str)}
        assert not names & deleted, path.name
    # one feature loop: the k-d bound is a call of the kernel
    tree = ast.parse(Path(dist_mod.__file__).read_text(encoding="utf-8"))
    assert callers(tree, "_numeric_term") == ["_kernel"]


def test_cnn_keeps_no_tie_rule_of_its_own():
    # each CNN round asks the engine against every kept row, so the tie
    # rule lives in the engine alone: no per-row best and no merge
    tree = ast.parse(Path(classif_mod.__file__).read_text(encoding="utf-8"))
    cnn = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "cnn_classif")
    bound = {node.id for node in ast.walk(cnn)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not bound & {"best_d", "best_i", "better"}


def callers(tree, name):
    """The dotted names of the functions and classes in which ``name``
    is called."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = (*where, node.name)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, ())
    return found


def test_no_function_takes_a_metric_beside_its_context():
    # a MetricContext carries its metric; a second metric argument could
    # disagree with it
    src = Path(dist_mod.__file__).parent
    both = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
                if {"metric", "ctx"} <= names:
                    both.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
    assert both == []


def test_strategy_outcomes_are_built_in_one_place():
    # StrategyOutcome is built in classif._outcome alone, which records
    # the output's origins; tabular records none, and Dataset.take takes
    # rows as numpy indexes them
    src = Path(dist_mod.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    built = [(mod, where) for mod, tree in trees.items()
             for where in callers(tree, "StrategyOutcome")]
    assert built == [("classif", "_outcome")]
    assert not [node for node in ast.walk(trees["tabular"])
                if isinstance(node, ast.Attribute) and node.attr == "origins"
                and isinstance(node.ctx, ast.Store)]
    (dataset,) = [node for node in trees["tabular"].body
                  if isinstance(node, ast.ClassDef) and node.name == "Dataset"]
    (take,) = [node for node in dataset.body
               if isinstance(node, ast.FunctionDef) and node.name == "take"]
    # no ``idx < 0`` test and no ``idx + n_rows`` shift
    body = [node for stmt in take.body for node in ast.walk(stmt)]
    assert not [node for node in body if isinstance(node, ast.BinOp)
                or isinstance(node, ast.Compare) and any(
                    isinstance(v, ast.Constant) and v.value == 0
                    for v in (node.left, *node.comparators))]
    ds = make_ds([("x", "num", [1.0, 2.0])], "x")
    assert ds.take([1, -1]).origins is None
