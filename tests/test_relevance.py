import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rebalance import (
    ClassPercSpec,
    ControlPoint,
    ImpSampParams,
    RelevanceError,
    build_relevance_extremes,
    build_relevance_range,
    find_bumps,
    gen_imbc,
    gen_imbr,
    imp_samp_regress,
    rand_over_classif,
    rand_under_classif,
    rand_under_regress,
)
import rebalance.relevance as relevance
from rebalance.relevance import copied_bumps

import _oracles as oracle
from _toys import regression_ds, strategy_output

# evaluation and slope limiting must stay quiet, even for control points
# closer together than 1/max-float
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# five-point fixture whose relevance exceeds 0.5 exactly on
# [0, 1.5] and [4.5, 7]
WAVE = [(0, 1, 0), (3, 0, 0), (6, 1, 0), (7, 0.5, 1), (10, 0, 0)]


def test_hits_control_points_exactly():
    fn = build_relevance_range(WAVE)
    for y, phi, _ in WAVE:
        assert fn(y) == pytest.approx(phi, abs=1e-9)


@pytest.mark.parametrize("gap", [1e-300, 2.225073858507203e-309])
def test_close_control_points_evaluate_quietly(gap):
    # the secant 1/gap overflows at the smaller gap, and the cubic would
    # overflow outside the points; neither may warn
    fn = build_relevance_range([(0.0, 0.0), (gap, 1.0)])
    np.testing.assert_array_equal(fn(np.array([-5.0, 0.0, gap, 20.0])), [0, 0, 1, 1])
    assert 0.0 < fn(gap / 2) < 1.0


def test_two_point_interpolation():
    fn = build_relevance_range([(0, 0, 0), (1, 1, 0)])
    assert fn(0) == 0 and fn(1) == 1
    assert 0 < fn(0.5) < 1


def test_constant_extrapolation():
    fn = build_relevance_range(WAVE)
    assert fn(-5) == 1.0
    assert fn(12) == 0.0


def test_flat_segment_stays_flat():
    fn = build_relevance_range([(0, 0, 0), (2, 0, 0), (4, 1, 0)])
    assert fn(1) == 0.0


def test_wave_midpoints_cross_at_half():
    # symmetric cubics with zero end slopes cross 0.5 at the midpoint
    fn = build_relevance_range(WAVE)
    assert fn(1.5) == pytest.approx(0.5, abs=1e-9)
    assert fn(4.5) == pytest.approx(0.5, abs=1e-9)
    assert fn(5) > 0.5


def test_vectorized_evaluation_matches_scalar():
    fn = build_relevance_range(WAVE)
    ys = np.linspace(-2, 12, 57)
    vec = fn(ys)
    assert vec.shape == ys.shape
    for y, v in zip(ys, vec):
        assert fn(float(y)) == v


def test_admissible_slopes_are_honoured():
    pts = [(0, 0, 0.5), (1, 0.5, 0.6), (2, 1, 0)]
    fn = build_relevance_range(pts)
    np.testing.assert_allclose(fn.slopes, [0.5, 0.6, 0.0], atol=1e-12)
    h = 1e-6
    d = (fn(1 + h) - fn(1 - h)) / (2 * h)
    assert d == pytest.approx(0.6, abs=1e-4)


def test_inadmissible_slope_is_zeroed():
    # positive user slope against two falling secants cannot be kept
    fn = build_relevance_range([(0, 1, 0), (1, 0.5, 5.0), (2, 0, 0)])
    assert fn.slopes[1] == 0.0


def test_slope_cap_that_overflows_is_lifted_quietly():
    # 0.25 / 2.2e-309 is a finite secant, but 3x it overflows: the cap is
    # lifted, as for a secant that overflows itself, and nothing warns
    fn = build_relevance_range([(0.0, 0.0, 0.0), (2.225073858507203e-309, 0.25, 1.0)])
    assert fn.slopes[1] == 1.0


def test_slope_capped_at_three_times_secant():
    fn = build_relevance_range([(0, 0, 0), (1, 0.1, 9.0), (2, 0.2, 0)])
    assert fn.slopes[1] <= 3 * 0.1 + 1e-12


def test_monotone_between_ordered_points():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        ys = np.sort(rng.normal(size=n) * 5)
        while len(np.unique(ys)) != n:
            ys = np.sort(rng.normal(size=n) * 5)
        phis = rng.uniform(size=n)
        dphis = rng.normal(size=n) * 3
        fn = build_relevance_range(list(zip(ys, phis, dphis)))
        for a, b, pa, pb in zip(ys, ys[1:], phis, phis[1:]):
            seg = fn(np.linspace(a, b, 50))
            diffs = np.diff(seg)
            if pa <= pb:
                assert np.all(diffs >= -1e-12)
            else:
                assert np.all(diffs <= 1e-12)


def test_output_always_in_unit_interval():
    rng = np.random.default_rng(1)
    fn = build_relevance_range([(0, 0, 2.0), (1, 1, 2.0), (2, 0, -2.0)])
    qs = rng.uniform(-5, 7, size=10_000)
    vals = fn(qs)
    assert np.all(vals >= 0) and np.all(vals <= 1)


def test_points_are_sorted_on_input():
    fn = build_relevance_range([(6, 1, 0), (0, 1, 0), (3, 0, 0)])
    assert fn(3) == 0.0


def test_control_point_objects_accepted():
    fn = build_relevance_range([ControlPoint(0, 0), ControlPoint(1, 1)])
    assert fn(1) == 1.0


@pytest.mark.parametrize(
    "points,msg",
    [
        ([(0, 0, 0)], "at least two"),
        ([(0, 0, 0), (0, 1, 0)], "duplicate"),
        ([(0, 0, 0), (1, 1.5, 0)], "relevance values"),
        ([(0, 0, 0), (np.nan, 1, 0)], "finite"),
    ],
)
def test_range_input_validation(points, msg):
    with pytest.raises(RelevanceError, match=msg):
        build_relevance_range(points)


def _hermite_cases():
    for seed in range(5):
        tgt = gen_imbr(1000, seed=seed).target_column.values
        yield f"imbr seed {seed}", build_relevance_extremes(tgt, "both"), tgt
    wild = build_relevance_range([(0, 0, 3.0), (1, 1, 3.0), (2, 0.2, -9.0)])
    yield "wild slopes", wild, np.random.default_rng(7).uniform(-4, 6, 10_000)


def test_hermite_matches_scipy_cubic_hermite_spline():
    interpolate = pytest.importorskip("scipy.interpolate")
    for name, fn, qs in _hermite_cases():
        ref = interpolate.CubicHermiteSpline(fn.ys, fn.phis, fn.slopes)
        inside = np.concatenate([fn.ys, qs[(qs > fn.ys[0]) & (qs < fn.ys[-1])]])
        assert np.max(np.abs(fn(inside) - ref(inside))) <= 1e-12, name


@pytest.mark.parametrize("thr_rel,rare", [(0.8, 138.40), (0.7, 153.18)])
def test_imbr_bump_oracle(thr_rel, rare):
    _, got = oracle.imbr_bump_expectation(1000, thr_rel)
    assert got == pytest.approx(rare, abs=0.01)


# ------------------------------------------------------------- extremes

def test_extremes_symmetric_values():
    vals = [-2.0, -1.0, 0.0, 1.0, 2.0]
    fn = build_relevance_extremes(vals, extr_type="both")
    assert fn(0) == 0.0
    qs = np.linspace(0.1, 2.0, 25)
    np.testing.assert_allclose(fn(qs), fn(-qs), atol=1e-12)
    assert fn(2) == 1.0 and fn(-2) == 1.0


def test_extremes_high_outliers_anchor_fence():
    vals = [1, 2, 3, 4, 5, 6, 7, 8, 100.0]
    fn = build_relevance_extremes(vals, extr_type="both")
    # Q3+1.5*IQR = 13 is inside the data span, so it carries phi=1;
    # the low side has no outliers and stays at zero relevance
    assert fn(5) == 0.0
    assert fn(13) == pytest.approx(1.0)
    assert fn(100) == 1.0
    assert fn(1) == 0.0


def test_extremes_high_only():
    vals = list(np.linspace(0, 10, 20))
    fn = build_relevance_extremes(vals, extr_type="high")
    assert fn(np.median(vals)) == 0.0
    assert fn(10) == 1.0
    assert fn(0) == 0.0  # low side not requested


def test_extremes_low_only():
    vals = list(np.linspace(0, 10, 20))
    fn = build_relevance_extremes(vals, extr_type="low")
    assert fn(0) == 1.0
    assert fn(10) == 0.0


@pytest.mark.parametrize("y", [[1.0, np.inf], [-np.inf, 0.0, 1.0, 2.0], [np.inf, -np.inf]])
def test_extremes_refuse_an_infinite_target(y):
    # an infinite quartile gives no fence; numpy's percentile warned
    with pytest.raises(RelevanceError, match="^target values must be finite numbers$"):
        build_relevance_extremes(y)


@pytest.mark.parametrize("values", [[], ["a", "b"], [1.0, np.nan, 2.0], None])
def test_extremes_refuse_values_that_are_not_present_numbers(values):
    # labels and missing values have no quartile, and no values no spread
    text = "target has no spread" if values == [] else "target values must be finite numbers"
    with pytest.raises(RelevanceError, match=f"^{text}$"):
        build_relevance_extremes(values)


def test_extremes_no_spread_rejected():
    with pytest.raises(RelevanceError, match="no spread"):
        build_relevance_extremes([3.0, 3.0, 3.0, 3.0])


def test_extremes_no_spread_above_median():
    with pytest.raises(RelevanceError, match="above the median"):
        build_relevance_extremes([1.0, 2.0, 3.0, 3.0, 3.0], extr_type="high")


def test_extremes_no_spread_below_median():
    with pytest.raises(RelevanceError, match="^target has no spread below the median$"):
        build_relevance_extremes([3.0, 3.0, 3.0, 4.0, 5.0], extr_type="low")


@pytest.mark.parametrize("vals, points", [
    # outliers only below: the high tail anchors the data maximum at 0
    ([-100.0, 1, 2, 3, 4, 5, 6, 7, 8], [(-4.0, 1.0), (4.0, 0.0), (8.0, 0.0)]),
    # ... and adds no point where that maximum is the median
    ([-100.0, 1, 5, 5, 5], [(-5.0, 1.0), (5.0, 0.0)]),
    # outliers only above: the same rules on the low tail
    ([-8.0, -7, -6, -5, -4, -3, -2, -1, 100], [(-8.0, 0.0), (-4.0, 0.0), (4.0, 1.0)]),
    ([5.0, 5, 5, 9, 100], [(5.0, 0.0), (15.0, 1.0)]),
])
def test_extremes_one_sided_both_zeroes_the_other_tail(vals, points):
    fn = build_relevance_extremes(vals, extr_type="both")
    assert fn.points == tuple(ControlPoint(y, phi, 0.0) for y, phi in points)


def test_extremes_bad_type():
    with pytest.raises(RelevanceError, match="unknown extremes type"):
        build_relevance_extremes([1.0, 2.0, 3.0], extr_type="middle")


@settings(max_examples=300, deadline=None)
@given(y=st.lists(st.sampled_from([-0.0, 0.0, 0.1, 0.7, 1.0]) | st.floats(-1e300, 1e300),
                  min_size=2, max_size=60))
# an even count's median, which numpy's lerp takes from the upper value
@example(y=[0.1, 0.7])
# ties of -0.0 and 0.0 at every quartile
@example(y=[0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0])
def test_quartiles_equal_numpys_percentile(y):
    y = np.array(y)
    want = np.percentile(y, [25, 50, 75])
    assert np.array(relevance._quartiles(y)).tobytes() == want.tobytes()


# ---------------------------------------------------------------- bumps

def wave_ds(n=201):
    return regression_ds(np.linspace(0, 10, n))


def test_find_bumps_matches_wave_intervals():
    ds = wave_ds()
    fn = build_relevance_range(WAVE)
    part = find_bumps(ds, fn, 0.5)
    assert [b.rare for b in part.bumps] == [True, False, True, False]
    y = ds.target_column.values
    for b in part.bumps:
        inside = (y >= b.y_low) & (y <= b.y_high)
        assert sorted(np.flatnonzero(inside)) == sorted(b.indices)
    rare_ys = np.concatenate([y[list(b.indices)] for b in part.rare_bumps])
    assert np.all((rare_ys <= 1.5) | (rare_ys >= 4.5))
    assert np.all(rare_ys[rare_ys >= 4.5] <= 7.0)


def test_bumps_partition_and_alternate():
    rng = np.random.default_rng(4)
    fn = build_relevance_range(WAVE)
    for _ in range(10):
        ds = regression_ds(rng.uniform(-1, 11, size=60))
        part = find_bumps(ds, fn, float(rng.uniform(0.1, 0.9)))
        all_idx = sorted(i for b in part.bumps for i in b.indices)
        assert all_idx == list(range(60))
        flags = [b.rare for b in part.bumps]
        assert all(a != b for a, b in zip(flags, flags[1:]))


def test_constant_high_relevance_single_rare_bump():
    fn = build_relevance_range([(0, 1, 0), (1, 1, 0)])
    ds = wave_ds(30)
    part = find_bumps(ds, fn, 1.0)
    assert len(part.bumps) == 1
    assert part.bumps[0].rare and part.bumps[0].count == 30


def test_threshold_only_moves_boundaries():
    ds = wave_ds()
    fn = build_relevance_range(WAVE)
    lo = find_bumps(ds, fn, 0.3)
    hi = find_bumps(ds, fn, 0.7)
    # rare bumps shrink as the threshold rises but keep their order
    assert len(lo.rare_bumps) == len(hi.rare_bumps) == 2
    for a, b in zip(hi.rare_bumps, lo.rare_bumps):
        assert set(a.indices) <= set(b.indices)


def test_bump_indices_are_original_row_ids():
    ds = regression_ds([7.0, 0.5, 5.0, 9.0, 1.0])
    fn = build_relevance_range([(0, 0, 0), (10, 1, 0)])
    part = find_bumps(ds, fn, 0.5)
    y = ds.target_column.values
    for b in part.bumps:
        got = [float(y[i]) for i in b.indices]
        assert got == sorted(got)


def test_find_bumps_validates_threshold():
    ds = wave_ds(10)
    fn = build_relevance_range(WAVE)
    with pytest.raises(RelevanceError, match="thr_rel"):
        find_bumps(ds, fn, -0.1)
    with pytest.raises(RelevanceError, match="thr_rel"):
        find_bumps(ds, fn, 1.5)


def test_find_bumps_needs_numeric_target():
    from _toys import labelled

    ds = labelled(["a", "b"], {"x": ("num", [1.0, 2.0])})
    fn = build_relevance_range(WAVE)
    with pytest.raises(RelevanceError, match="^relevance needs a numeric target column$"):
        find_bumps(ds, fn, 0.5)


TIED = st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, 8.0])


@settings(max_examples=200, deadline=None)
@given(
    y=st.lists(TIED | st.floats(-10, 10), max_size=60),
    points=st.lists(
        st.tuples(st.floats(-12, 12), st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
        min_size=2, max_size=6, unique_by=lambda p: p[0],
    ),
    thr=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
)
def test_find_bumps_matches_loop_oracle(y, points, thr):
    # tied targets, relevance exactly 0 or 1, and thresholds of 0 and 1
    fn = build_relevance_range(points)
    part = find_bumps(regression_ds(y), fn, thr)
    got = [(b.rare, b.indices.tolist(), b.y_low, b.y_high) for b in part.bumps]
    assert got == oracle.find_bumps_loop_oracle(y, fn(np.array(y, dtype=float)), thr)
    # rows in target order, ties (-0.0 and 0.0 among them) by row
    order = np.lexsort((np.arange(len(y)), np.array(y, dtype=float)))
    assert [i for b in part.bumps for i in b.indices.tolist()] == order.tolist()


# ----------------------------------------------- sliced evaluation, memory

@settings(max_examples=100, deadline=None)
@given(
    y=st.lists(TIED | st.floats(-12, 12) | st.just(np.nan), min_size=1, max_size=40),
    points=st.lists(
        st.tuples(st.floats(-12, 12), st.floats(0, 1), st.floats(-5, 5)),
        min_size=2, max_size=6, unique_by=lambda p: p[0],
    ),
    slice_values=st.sampled_from([1, 7]),
)
def test_sliced_evaluation_equals_one_shot(y, points, slice_values):
    fn = build_relevance_range(points)
    with mock.patch.object(relevance, "SLICE_VALUES", slice_values):
        got = fn(np.array(y))
    assert got.tobytes() == oracle.relevance_oracle(fn, y).tobytes()


def test_sliced_evaluation_equals_one_shot_over_many_slices():
    rng = np.random.default_rng(5)
    y = rng.uniform(-2, 12, 3 * relevance.SLICE_VALUES + 17)
    y[::97] = np.nan
    y[::89] = 6.0  # a control point
    fn = build_relevance_range(WAVE)
    assert fn(y).tobytes() == oracle.relevance_oracle(fn, y).tobytes()
    assert fn(y.reshape(5, -1)).tobytes() == fn(y).tobytes()


def test_find_bumps_memory_is_bounded():
    n = 200_000
    y = np.random.default_rng(0).normal(size=n)
    ds = regression_ds(y, features={})
    fn = build_relevance_extremes(y)
    tracemalloc.start()
    try:
        find_bumps(ds, fn, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the order and the rare flags take 9 bytes a row, and the stable
    # sort about 2 more (11.2 measured); the sorted targets and their
    # relevance, held whole, took 16 more, and the cubic over all rows
    # at once about 104
    assert peak < n * 12


# bytes per input row that each strategy may peak at on a 200k-row
# table, just above what it took with ``removed`` and ``seeds`` in int32
# and no n-row bincount (17.6, 40.0, 27.5 and 65.7); a list of
# ``removed`` ints and an int64 bincount took 63.2, 65.2, 61.0 and 87.0
STRATEGY_PEAKS = {"rand_under_classif": 19, "imp_samp_regress u 0.5 o 1.0": 42,
                  "rand_under_regress": 29, "rand_over_classif": 67}


def test_strategy_bookkeeping_memory_is_bounded():
    n = 200_000
    imbc, imbr = gen_imbc(n, seed=0), gen_imbr(n, seed=0)
    fn = build_relevance_extremes(imbr.target_column.values)
    runs = {
        "rand_under_classif": lambda: rand_under_classif(imbc, ClassPercSpec.balance(), seed=0),
        "imp_samp_regress u 0.5 o 1.0":
            lambda: imp_samp_regress(imbr, fn, ImpSampParams(u=0.5, o=1.0), seed=0),
        "rand_under_regress": lambda: rand_under_regress(imbr, fn, seed=0),
        "rand_over_classif": lambda: rand_over_classif(imbc, ClassPercSpec.balance(), seed=0),
    }
    peaks = {}
    for name, strategy in runs.items():
        tracemalloc.start()
        try:
            strategy()
            peaks[name] = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
    assert all(peaks[name] < bound for name, bound in STRATEGY_PEAKS.items()), peaks



def bump_rows(bumps):
    """Each bump's flag, count and target range, repr telling -0.0."""
    return [(b.rare, b.count, repr(b.y_low), repr(b.y_high)) for b in bumps]


# tied targets, -0.0 beside 0.0, in each bump of WAVE at 0.5: rare up
# to 1.5, normal to 4.5, rare to 7, normal above
TIED = [-1.0, -0.0, 0.0, 0.0, 1.5, 2.0, 3.0, 3.0, 5.0, 7.0, 8.0, 11.0]


@st.composite
def copies(draw):
    """Targets, the rows a copy takes of them, and how many rows it adds."""
    y = draw(st.lists(st.sampled_from(TIED), min_size=1, max_size=20))
    rows = draw(st.lists(st.integers(0, len(y) - 1), max_size=40))
    if draw(st.booleans()):  # each row at least once, in some order
        rows = draw(st.permutations([*range(len(y)), *rows]))
    return y, rows, draw(st.sampled_from([0, 0, 0, 1, 2]))


@settings(max_examples=300, deadline=None)
@given(case=copies())
# the normal bump between two rare ones loses every row: they merge
@example(case=([0.5, 3.0, 5.0, 6.0], [3, 0, 2], 0))
# every row tied, -0.0 last in the first row order and first in the second
@example(case=([0.0, -0.0, 0.0], [2, 1, 0, 1], 0))
@example(case=([-0.0, 0.0, 3.0], [1, 2, 0, 2], 0))
# a row added: it copies no row
@example(case=([0.5, 3.0], [0, 1], 1))
def test_copied_bumps_match_find_bumps(case):
    y, rows, added = case
    ds = regression_ds(y)
    fn = build_relevance_range(WAVE)
    part = find_bumps(ds, fn, 0.5)
    block = {c.name: c.values[:added] for c in ds.columns} if added else None
    out = strategy_output(ds, rows, block)
    got = copied_bumps(part, out)
    if added or any(set(b.indices.tolist()).isdisjoint(rows) for b in part.bumps):
        event("find_bumps needed")
        assert got is None
        return
    event(f"copies of {len(part.bumps)} bumps")
    assert bump_rows(got) == bump_rows(find_bumps(out, fn, 0.5).bumps)


def test_an_emptied_bump_merges_its_neighbours():
    # the case copied_bumps leaves to find_bumps
    ds = regression_ds([0.5, 3.0, 5.0, 6.0])
    fn = build_relevance_range(WAVE)
    out = strategy_output(ds, [3, 0, 2])
    assert copied_bumps(find_bumps(ds, fn, 0.5), out) is None
    assert bump_rows(find_bumps(out, fn, 0.5).bumps) == [(True, 3, "0.5", "6.0")]


def test_a_table_not_made_by_take_has_no_copied_bumps():
    ds = regression_ds([0.5, 3.0])
    fn = build_relevance_range(WAVE)
    assert copied_bumps(find_bumps(ds, fn, 0.5), ds) is None
