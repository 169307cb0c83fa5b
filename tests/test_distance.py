import numpy as np
import pytest

from rebalance import Metric, MetricError, build_context, knn_table, pairwise
from rebalance.distance import encode_rows, paired_distances

import _oracles as oracle
from _toys import TOY_KINDS, TOY_LABELS, TOY_ROWS, labelled, make_ds, toy_mixed_ds


def ctx_for(name, ds, p=None):
    return build_context(Metric(name, p=p) if p else Metric(name), ds)


def pair(ctx, i, j):
    """The distance between rows i and j of the context's dataset."""
    return pairwise(ctx, [i, j])[0, 1]


def numeric_ds(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=float)
    feats = {f"x{j}": ("num", matrix[:, j]) for j in range(matrix.shape[1])}
    labels = labels or ["p"] * len(matrix)
    return labelled(labels, feats)


# ---------------------------------------------------------------- plain

def test_minkowsky_needs_positive_p():
    with pytest.raises(MetricError):
        Metric("minkowsky")
    for p in (0, float("nan"), float("inf")):
        with pytest.raises(MetricError):
            Metric("minkowsky", p=p)
    with pytest.raises(MetricError):
        Metric("euclidean", p=2)


def test_unknown_metric_name():
    with pytest.raises(MetricError, match="unknown distance"):
        Metric("cosine")


def test_minkowsky_p3_frozen():
    ds = numeric_ds([[0.0, 0.0], [1.0, 1.0]])
    ctx = ctx_for("minkowsky", ds, p=3)
    d = pair(ctx, 0, 1)
    assert d == pytest.approx(1.2599210498948732, abs=1e-15)


def test_canberra_zero_over_zero_is_zero():
    ds = numeric_ds([[1.0, -2.0, 0.0], [3.0, 2.0, 0.0]])
    ctx = ctx_for("canberra", ds)
    d = pair(ctx, 0, 1)
    assert d == pytest.approx(1.5, abs=1e-15)


def test_plain_metrics_match_oracle():
    rng = np.random.default_rng(42)
    oracles = {
        "euclidean": oracle.euclidean_oracle,
        "manhattan": oracle.manhattan_oracle,
        "chebyshev": oracle.chebyshev_oracle,
        "canberra": oracle.canberra_oracle,
    }
    for trial in range(10):
        m = rng.normal(size=(rng.integers(3, 8), rng.integers(2, 5))) * 10
        ds = numeric_ds(m)
        for name, fn in oracles.items():
            ctx = ctx_for(name, ds)
            got = pairwise(ctx)
            for i in range(len(m)):
                for j in range(len(m)):
                    assert got[i, j] == pytest.approx(
                        fn(m[i], m[j]), abs=1e-10
                    ), f"{name} trial {trial} ({i},{j})"


def test_minkowsky_reduces_to_manhattan_and_euclidean():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 3)) * 5
    ds = numeric_ds(m)
    base1 = pairwise(ctx_for("manhattan", ds))
    base2 = pairwise(ctx_for("euclidean", ds))
    mink1 = pairwise(ctx_for("minkowsky", ds, p=1))
    mink2 = pairwise(ctx_for("minkowsky", ds, p=2))
    np.testing.assert_allclose(mink1, base1, atol=1e-12)
    np.testing.assert_allclose(mink2, base2, atol=1e-12)


def test_minkowsky_fractional_p_matches_oracle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 3))
    ds = numeric_ds(m)
    ctx = ctx_for("minkowsky", ds, p=0.5)
    got = pairwise(ctx)
    for i in range(5):
        for j in range(5):
            assert got[i, j] == pytest.approx(
                oracle.minkowsky_oracle(m[i], m[j], 0.5), abs=1e-10
            )


def test_plain_metric_rejects_nominal_features():
    ds = toy_mixed_ds()
    with pytest.raises(
        MetricError,
        match=r"the default distance \(Euclidean\) is not possible to use "
        r"with nominal features",
    ):
        build_context(Metric("euclidean"), ds)
    with pytest.raises(
        MetricError, match="the manhattan distance is not possible"
    ):
        build_context(Metric("manhattan"), ds)


@pytest.mark.parametrize("name", ["euclidean", "manhattan", "chebyshev", "canberra"])
def test_plain_metric_refuses_a_missing_cell_naming_its_column(name):
    ds = numeric_ds([[0.0, 1.0], [2.0, np.nan], [1.0, 3.0]])
    with pytest.raises(MetricError, match=f"^column 'x1' has a missing cell, where the "
                       f"{name} distance .*--dist heom"):
        ctx_for(name, ds)
    # HEOM and HVDM define a term of 1 for it
    for name in ("heom", "hvdm"):
        assert pair(ctx_for(name, ds), 0, 1) > 0


@pytest.mark.parametrize("name", ["euclidean", "canberra", "heom", "hvdm"])
@pytest.mark.parametrize("cells", [
    [0.0, np.inf, 1.0],        # an infinite cell
    [-np.inf, -np.inf, -np.inf],  # inf - inf
    [1e308, -1e308, 0.0],      # a finite span that overflows
])
def test_every_metric_refuses_a_span_that_is_not_finite(name, cells):
    ds = numeric_ds(np.column_stack([[0.0, 1.0, 2.0], cells]))
    with pytest.raises(MetricError, match="^column 'x1' has an infinite cell"):
        ctx_for(name, ds)


def test_hvdm_refuses_an_sd_whose_sum_overflows_both_ways():
    # the span, 1.6e308, is finite, but numpy's pairwise sum of the
    # cells overflows to inf in one partial sum and -inf in another, so
    # the sd is NaN and every HVDM term on the column would be NaN
    x = ([8e307] * 4 + [-8e307] * 4) * 3
    ds = numeric_ds(np.column_stack([x, np.arange(len(x))]))
    with pytest.raises(MetricError, match="^column 'x0' has an infinite cell"):
        ctx_for("hvdm", ds)
    assert ctx_for("heom", ds).scale[0] == 1.6e308


def test_hvdm_refuses_a_four_sd_that_overflows():
    # the span, 2e200, is finite, but the squares of the cells overflow,
    # so the sd is inf and every HVDM term on x0 would be 0: the column
    # would be ignored
    ds = numeric_ds([[1e200, 0.0], [-1e200, 1.0], [1e200, 2.0], [-1e200, 3.0]],
                    ["p", "q", "q", "p"])
    with pytest.raises(MetricError, match="^column 'x0' has an infinite cell, or cells so "
                       "far apart that their spread overflows"):
        ctx_for("hvdm", ds)
    assert oracle.refused_column_oracle("hvdm", ds) == "x0"
    # HEOM divides by the span, which is finite
    assert ctx_for("heom", ds).scale[0] == 2e200
    assert oracle.refused_column_oracle("heom", ds) is None


def test_no_feature_columns_rejected():
    ds = labelled(["p", "q"])
    with pytest.raises(MetricError, match="no feature columns"):
        build_context(Metric("euclidean"), ds)


# -------------------------------------------------------------- overlap

def test_overlap_counts_mismatches():
    ds = labelled(
        ["p", "q", "p"],
        {
            "a": ("nom", ["x", "x", "y"]),
            "b": ("nom", ["u", "v", "v"]),
        },
    )
    ctx = ctx_for("overlap", ds)
    got = pairwise(ctx)
    expected = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    np.testing.assert_allclose(got, expected)


def test_overlap_rejects_numeric_features():
    ds = labelled(["p", "q"], {"x": ("num", [1.0, 2.0])})
    with pytest.raises(MetricError, match="only defined for nominal"):
        build_context(Metric("overlap"), ds)


# ----------------------------------------------------------------- heom

def test_heom_frozen_values():
    ds = toy_mixed_ds()
    ctx = ctx_for("heom", ds)
    d03 = pair(ctx, 0, 3)
    # nominal mismatch -> 1, numeric |1-5|/range 5 -> 0.8
    assert d03 == pytest.approx(1.2806248474865698, abs=1e-12)


def test_heom_missing_contributes_one():
    ds = make_ds(
        [
            ("a", "nom", ["x", None]),
            ("b", "num", [0.0, 10.0]),
            ("cls", "nom", ["p", "q"]),
        ],
        "cls",
    )
    ctx = ctx_for("heom", ds)
    d = pair(ctx, 0, 1)
    assert d == pytest.approx(1.4142135623730951, abs=1e-12)


def test_heom_zero_range_contributes_zero():
    ds = labelled(["p", "q"], {"x": ("num", [4.0, 4.0])})
    ctx = ctx_for("heom", ds)
    assert pair(ctx, 0, 1) == 0.0


def test_heom_matches_oracle_with_missing_cells():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(4, 9))
        nums = rng.normal(size=n) * 3
        noms = rng.choice(["a", "b", "c"], size=n).tolist()
        # poke missing holes
        nums[rng.integers(n)] = np.nan
        noms[rng.integers(n)] = None
        ds = make_ds(
            [
                ("c1", "nom", noms),
                ("c2", "num", nums),
                ("cls", "nom", ["p"] * n),
            ],
            "cls",
        )
        ctx = ctx_for("heom", ds)
        rows = [(noms[i], nums[i]) for i in range(n)]
        ranges = oracle.ranges_oracle(rows, ["nom", "num"])
        got = pairwise(ctx)
        for i in range(n):
            for j in range(n):
                want = oracle.heom_oracle(rows[i], rows[j], ["nom", "num"], ranges)
                assert got[i, j] == pytest.approx(want, abs=1e-10)


# ----------------------------------------------------------------- hvdm

def toy_ctx():
    ds = toy_mixed_ds()
    return ds, ctx_for("hvdm", ds)


def test_hvdm_frozen_values():
    """Values pinned from a hand-checked reference implementation."""
    ds, ctx = toy_ctx()
    assert pair(ctx, 0, 2) == pytest.approx(0.9799578870122228, abs=1e-12)
    assert pair(ctx, 0, 4) == pytest.approx(0.4008918628686366, abs=1e-12)
    assert pair(ctx, 0, 5) == pytest.approx(0.4899789435061114, abs=1e-12)
    # same nominal value, numeric gap of 2 -> pure numeric term
    assert pair(ctx, 2, 3) == pytest.approx(0.2672612419124244, abs=1e-12)
    assert pair(ctx, 1, 4) == pytest.approx(0.2672612419124244, abs=1e-12)


def test_hvdm_missing_contributes_one():
    # a row missing both cells, code -1 and NaN, against row 0
    ds, ctx = toy_ctx()
    missing = [np.array([-1]), np.array([np.nan])]
    d = paired_distances(ctx, missing, encode_rows(ctx, [0]))[0]
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_hvdm_all_missing_nominal_column_contributes_one():
    # a nominal column with no value present has an empty VDM table
    ds = labelled(["p", "q", "p"], {"c": ("nom", [None, None, None]),
                                     "x": ("num", [0.0, 1.0, 2.0])})
    ctx = ctx_for("hvdm", ds)
    d = pairwise(ctx)
    rows = [oracle.dataset_row(ds, i) for i in range(3)]
    kinds = ["nom", "num"]
    sds = oracle.sds_oracle(rows, kinds)
    tables = oracle.vdm_tables_oracle(rows, ["p", "q", "p"], kinds)
    want = [[oracle.hvdm_oracle(a, b, kinds, sds, tables) for b in rows] for a in rows]
    np.testing.assert_allclose(d, want, atol=1e-12)
    assert d[0, 0] == 1.0


def test_hvdm_four_sd_uses_sample_sd():
    # keyed by feature position; the numeric feature sits at index 1
    ds, ctx = toy_ctx()
    assert ctx.scale[1] == pytest.approx(4 * 1.8708286933869707, abs=1e-12)


def test_hvdm_requires_nominal_target():
    ds = make_ds(
        [("a", "nom", ["x", "y"]), ("y", "num", [1.0, 2.0])], "y"
    )
    with pytest.raises(MetricError, match="nominal target"):
        build_context(Metric("hvdm"), ds)


def test_hvdm_matches_oracle():
    ds, ctx = toy_ctx()
    sds = oracle.sds_oracle(TOY_ROWS, TOY_KINDS)
    tables = oracle.vdm_tables_oracle(TOY_ROWS, TOY_LABELS, TOY_KINDS)
    got = pairwise(ctx)
    for i in range(len(TOY_ROWS)):
        for j in range(len(TOY_ROWS)):
            want = oracle.hvdm_oracle(
                TOY_ROWS[i], TOY_ROWS[j], TOY_KINDS, sds, tables
            )
            assert got[i, j] == pytest.approx(want, abs=1e-10)


def test_hvdm_zero_sd_numeric_contributes_zero():
    ds = make_ds(
        [("x", "num", [2.0, 2.0, 2.0]), ("cls", "nom", ["p", "q", "p"])],
        "cls",
    )
    ctx = ctx_for("hvdm", ds)
    assert pair(ctx, 0, 1) == 0.0


# ------------------------------------------------------------ knn_table

def test_knn_ascending_with_index_ties():
    # rows 1 and 3 are equidistant from row 0; the lower index wins
    ds = numeric_ds([[0.0], [1.0], [3.0], [1.0], [0.5]])
    ctx = ctx_for("euclidean", ds)
    assert knn_table(ctx, 3)[0].tolist() == [4, 1, 3]


def test_knn_excludes_query_by_default():
    ds = numeric_ds([[0.0], [5.0], [6.0]])
    ctx = ctx_for("euclidean", ds)
    assert knn_table(ctx, 2)[1].tolist() == [2, 0]


def test_knn_matches_oracle_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(5, 12))
        m = rng.integers(0, 4, size=(n, 3)).astype(float)  # many ties
        ds = numeric_ds(m)
        ctx = ctx_for("manhattan", ds)
        dmat = pairwise(ctx)
        table = knn_table(ctx, 4)
        for q in range(n):
            cands = [i for i in range(n) if i != q]
            want = oracle.knn_oracle(dmat[q], cands, 4)
            assert table[q].tolist() == want


def test_pairwise_is_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(9)
    ds = numeric_ds(rng.normal(size=(7, 3)))
    for name in ("euclidean", "manhattan", "chebyshev"):
        ctx = ctx_for(name, ds)
        d = pairwise(ctx)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) == 0)
