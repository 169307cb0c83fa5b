"""The distance kernel against an independent scalar oracle, bit for bit.

``pairwise``, the engine's chunks, the paired form and ``distance()``
all run one vectorised kernel.  Here each must equal
``scalar_distance_oracle``, a pair-at-a-time loop, exactly (or both
NaN; minkowsky within a few ulp, see ``POW_RTOL``), under all eight metrics on random mixed data with repeated
values, NaN, +-inf, missing nominal cells and HVDM columns with no
present cell.  The engine checks run with the chunk budget cut to 1
and to 7 distances.  The plain metrics are also checked against
scipy's ``cdist``.
"""

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import Metric, MetricError, build_context, distance, pairwise
from rebalance.distance import (
    METRIC_NAMES,
    PLAIN_METRICS,
    encode_rows,
    knn_table,
    nearest,
    paired_distances,
)

import _oracles as oracle
from _toys import make_ds

# infinite cells make inf - inf, which numpy reports while the metrics
# turn it into the NaN distances under test
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

dist_mod = importlib.import_module("rebalance.distance")

BLOCKS = (1, 7)
NUMS = (0.0, 1.0, 2.0, 2.5, -1.0, 0.3, -7.25, np.nan, np.inf, -np.inf)
NOMS = ("a", "b", "c", None)


@st.composite
def cases(draw):
    """Data, metric, context and the oracle's view of every row."""
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
    cols = []
    for j, kind in enumerate(kinds):
        if kind == "num":
            cell = st.one_of(st.sampled_from(NUMS),
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
    return ds, metric, build_context(metric, ds)


def scalar(metric, ctx, ds):
    """The oracle as a function of two cell sequences."""
    rows = [ds.row(i) for i in range(ds.n_rows)]
    kinds = list(ctx.kinds)
    ranges = oracle.ranges_oracle(rows, kinds)
    tables = oracle.vdm_tables_oracle(rows, list(ds.target_column.values), kinds)

    def d(a, b):
        # the sd statistic is the context's: numpy's std sums in its own
        # order, and test_hvdm_four_sd_uses_sample_sd pins it
        return oracle.scalar_distance_oracle(
            metric.name, metric.p, kinds, a, b, ranges, ctx.four_sd, tables)

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
    got = pairwise(metric, ctx)
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
            got_d, got_pos = nearest(metric, ctx)
            np.testing.assert_array_equal(got_pos, best)
            assert same_floats(got_d, off[np.arange(n), best])
            for k in range(1, n):
                np.testing.assert_array_equal(knn_table(metric, ctx, k), order[:, :k])


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_paired_form_matches_scalar_oracle(case, data):
    ds, metric, ctx = case
    want = oracle_matrix(metric, ctx, ds)
    pos = st.integers(0, ds.n_rows - 1)
    m = data.draw(st.integers(1, 12))
    ia = np.array(data.draw(st.lists(pos, min_size=m, max_size=m)), dtype=np.intp)
    ib = np.array(data.draw(st.lists(pos, min_size=m, max_size=m)), dtype=np.intp)
    got = paired_distances(metric, ctx, encode_rows(ctx, ia), encode_rows(ctx, ib))
    assert matches(metric, got, want[ia, ib])


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_distance_wrapper_matches_scalar_oracle(case, data):
    # probe rows mix the dataset's cells with nominal values never seen
    # at build time and with missing cells spelled None or NaN (HEOM and
    # HVDM read a NaN nominal cell as missing; overlap compares cells
    # as they are, so it gets None only)
    ds, metric, ctx = case
    d, rows = scalar(metric, ctx, ds)
    nan_nom = () if metric.name == "overlap" else (np.nan,)
    cells = {
        "num": st.sampled_from(NUMS + (None,)),
        "nom": st.sampled_from(NOMS + ("unseen", "other") + nan_nom),
    }

    def probe():
        if data.draw(st.booleans()):
            return rows[data.draw(st.integers(0, ds.n_rows - 1))]
        return tuple(data.draw(cells[k]) for k in ctx.kinds)

    for _ in range(5):
        a, b = probe(), probe()
        want = d(*[tuple(math.nan if v is None and k == "num" else v
                         for v, k in zip(r, ctx.kinds)) for r in (a, b)])
        assert matches(metric, distance(metric, ctx, a, b), want), (a, b)


def test_distance_checks_the_row_width():
    ds = make_ds([("x", "num", [0.0, 1.0]), ("cls", "nom", ["a", "b"])], "cls")
    ctx = build_context(Metric("euclidean"), ds)
    with pytest.raises(MetricError, match="row width"):
        distance(ctx.metric, ctx, (0.0, 1.0), (0.0,))


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
        np.testing.assert_allclose(pairwise(metric, ctx), want, rtol=1e-12, atol=0,
                                   err_msg=f"{name} trial {trial}")
