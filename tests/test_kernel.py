"""The distance kernel against an independent scalar oracle, bit for bit.

``pairwise``, the engine's chunks and the paired form all run one
vectorised kernel.  Here each must equal ``scalar_distance_oracle``, a
pair-at-a-time loop, exactly (minkowsky within a few ulp, see
``POW_RTOL``), under all eight metrics on random mixed data with
repeated values, NaN, +-inf, missing nominal cells and HVDM columns
with no present cell.  Where the metric has no distance on a table (a
missing cell under a plain metric, an infinite cell under any),
``build_context`` must refuse it, naming the column.  The engine checks
run with the chunk budget cut to 1 and to 7 distances.  The plain
metrics are also checked against scipy's ``cdist``.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rebalance import Metric, build_context, pairwise
from rebalance.distance import (
    METRIC_NAMES,
    PLAIN_METRICS,
    encode_rows,
    knn_table,
    nearest,
    paired_distances,
)

import _oracles as oracle
from _toys import context_or_refusal, make_ds

dist_mod = importlib.import_module("rebalance.distance")

BLOCKS = (1, 7)
NUMS = (0.0, 1.0, 2.0, 2.5, -1.0, 0.3, -7.25, np.nan, np.inf, -np.inf)
FINITE = tuple(v for v in NUMS if np.isfinite(v))
NOMS = ("a", "b", "c", None)


@st.composite
def cases(draw):
    """Data, metric and context, None where the metric refuses the
    table.

    Under a plain metric, which refuses a table with a missing or an
    infinite cell, four tables in five draw finite cells only, so that
    most reach the checks; the others, and every HEOM and HVDM table,
    draw NaN and +-inf cells too.
    """
    name = draw(st.sampled_from(METRIC_NAMES))
    n = draw(st.integers(1, 10))
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
        if kind == "num":
            cell = st.one_of(st.sampled_from(FINITE if finite else NUMS),
                             st.floats(-50, 50, allow_subnormal=False))
            values = draw(st.lists(cell, min_size=n, max_size=n))
        elif draw(st.integers(0, 4)) == 0:
            values = [None] * n  # no present cell
        else:
            values = draw(st.lists(st.sampled_from(NOMS), min_size=n, max_size=n))
        cols.append((f"f{j}", kind, values))
    labels = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n))
    cols.append(("cls", "nom", labels))
    ds = make_ds(cols, "cls")
    p = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) if name == "minkowsky" else None
    metric = Metric(name, p=p)
    return ds, metric, context_or_refusal(metric, ds)


def scalar(metric, ctx, ds):
    """The oracle as a function of two cell sequences."""
    rows = [oracle.dataset_row(ds, i) for i in range(ds.n_rows)]
    kinds = list(ctx.kinds)
    ranges = oracle.ranges_oracle(rows, kinds)
    tables = oracle.vdm_tables_oracle(rows, list(ds.target_column.labels), kinds)

    def d(a, b):
        # the sd statistic is the context's: numpy's std sums in its own
        # order, and test_hvdm_four_sd_uses_sample_sd pins it
        return oracle.scalar_distance_oracle(
            metric.name, metric.p, kinds, a, b, ranges, ctx.scale, tables)

    return d, rows


def oracle_matrix(metric, ctx, ds):
    d, rows = scalar(metric, ctx, ds)
    return np.array([[d(a, b) for b in rows] for a in rows])


def same_floats(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


# numpy's vectorised power and the C library's pow, which the oracle's
# ``**`` calls, may round differently in the last bit, so minkowsky
# distances are held to a few ulp, set from float64's epsilon; NaN and
# inf cells must still agree exactly
POW_RTOL = 16 * np.finfo(np.float64).eps


def matches(metric, got, want):
    if metric.name != "minkowsky":
        return same_floats(got, want)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    return (same_floats(got[~finite], want[~finite])
            and np.allclose(got[finite], want[finite], rtol=POW_RTOL, atol=0))


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_pairwise_and_engine_match_scalar_oracle(case):
    ds, metric, ctx = case
    if ctx is None:
        return
    event(f"checked under {metric.name}")
    got = pairwise(ctx)
    assert matches(metric, got, oracle_matrix(metric, ctx, ds))
    # the order comes from the checked matrix: under minkowsky a last-bit
    # difference could flip two nearly equal distances
    n = ds.n_rows
    off = got.copy()
    np.fill_diagonal(off, np.inf)
    best = off.argmin(axis=1)
    order = np.argsort(off, axis=1, kind="stable")
    for block in BLOCKS:
        with mock.patch.object(dist_mod, "BLOCK_PAIRS", block):
            got_d, got_pos = nearest(ctx)
            np.testing.assert_array_equal(got_pos, best)
            assert same_floats(got_d, off[np.arange(n), best])
            for k in range(1, n):
                np.testing.assert_array_equal(knn_table(ctx, k), order[:, :k])


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_paired_form_matches_scalar_oracle(case, data):
    ds, metric, ctx = case
    if ctx is None:
        return
    event(f"checked under {metric.name}")
    want = oracle_matrix(metric, ctx, ds)
    pos = st.integers(0, ds.n_rows - 1)
    m = data.draw(st.integers(1, 12))
    ia = np.array(data.draw(st.lists(pos, min_size=m, max_size=m)), dtype=np.intp)
    ib = np.array(data.draw(st.lists(pos, min_size=m, max_size=m)), dtype=np.intp)
    got = paired_distances(ctx, encode_rows(ctx, ia), encode_rows(ctx, ib))
    assert matches(metric, got, want[ia, ib])


SCIPY_NAMES = {"manhattan": "cityblock", "minkowsky": "minkowski"}


@pytest.mark.parametrize("name", PLAIN_METRICS)
def test_plain_metrics_match_scipy_cdist(name):
    sd = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(17)
    for trial in range(8):
        m = rng.normal(size=(int(rng.integers(2, 30)), int(rng.integers(1, 6)))) * 10
        m[rng.random(m.shape) < 0.1] = 0.0  # zero cells make canberra's 0/0
        ds = make_ds([(f"x{j}", "num", m[:, j]) for j in range(m.shape[1])]
                     + [("cls", "nom", ["a"] * len(m))], "cls")
        p = 3.0 if name == "minkowsky" else None
        metric = Metric(name, p=p)
        ctx = build_context(metric, ds)
        kwargs = {"p": p} if p else {}
        want = sd.cdist(m, m, SCIPY_NAMES.get(name, name), **kwargs)
        np.testing.assert_allclose(pairwise(ctx), want, rtol=1e-12, atol=0,
                                   err_msg=f"{name} trial {trial}")
