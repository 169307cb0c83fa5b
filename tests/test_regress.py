import numpy as np
import pytest

from rebalance import (
    BumpPercSpec,
    ImpSampParams,
    RelevanceError,
    ResampleError,
    build_relevance_range,
    find_bumps,
    gauss_noise_regress,
    imp_samp_regress,
    rand_over_regress,
    rand_under_regress,
    smoter,
)
import _oracles as oracle
from _oracles import dataset_to_csv_bytes
from _toys import make_ds, regression_ds

# relevance ramp used by every two-bump fixture: phi = 0 below y = 4,
# 1 above y = 6, crossing 0.5 at 5
RAMP = build_relevance_range([(4, 0, 0), (6, 1, 0)])


def two_bump_ds(n_normal, n_rare):
    y = np.concatenate(
        [np.linspace(0.0, 4.0, n_normal), np.linspace(6.0, 10.0, n_rare)]
    )
    return regression_ds(y)


def totals(outcome, fn=RAMP, thr=0.5):
    part = find_bumps(outcome.dataset, fn, thr)
    return tuple(b.count for b in part.bumps)


def test_two_bump_fixture_partitions_as_expected():
    part = find_bumps(two_bump_ds(805, 195), RAMP, 0.5)
    assert [(b.rare, b.count) for b in part.bumps] == [(False, 805), (True, 195)]


# ------------------------------------------------------ random under

def test_rand_under_explicit_total():
    ds = two_bump_ds(805, 195)
    out = rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([0.5]), seed=0)
    assert out.dataset.n_rows == 597
    assert totals(out) == (402, 195)


def test_rand_under_balance_total():
    ds = two_bump_ds(805, 195)
    out = rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)
    assert out.dataset.n_rows == 390
    assert totals(out) == (195, 195)


def test_rand_under_extreme_total():
    ds = two_bump_ds(805, 195)
    out = rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.extreme(), seed=0)
    assert out.dataset.n_rows == 242
    assert totals(out) == (47, 195)


def test_rand_under_rare_rows_untouched():
    ds = two_bump_ds(30, 10)
    out = rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([0.4]), seed=1)
    rare_ys = set(np.linspace(6.0, 10.0, 10))
    got = set(out.dataset.target_column.values)
    assert rare_ys <= got
    assert len(out.seeds) == 0


def test_rand_under_explicit_needs_one_perc_per_normal_bump():
    ds = two_bump_ds(20, 10)
    with pytest.raises(ResampleError, match="expected one percentage per"):
        rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([0.5, 0.5]), seed=0)


def test_rand_under_rejects_perc_above_one():
    ds = two_bump_ds(20, 10)
    with pytest.raises(ResampleError, match=r"in \(0, 1\]"):
        rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([1.5]), seed=0)


def test_rand_under_needs_a_normal_bump():
    ds = regression_ds(np.linspace(7.0, 10.0, 12))  # everything rare
    with pytest.raises(ResampleError, match="no bump below"):
        rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)


@pytest.mark.parametrize("mode", ["balance", "extreme"])
def test_rand_under_derived_targets_need_a_rare_bump(mode):
    ds = regression_ds(np.linspace(0.0, 3.0, 10))  # nothing rare
    with pytest.raises(ResampleError) as err:
        rand_under_regress(ds, RAMP, 0.5, BumpPercSpec(mode), seed=0)
    assert str(err.value) == "no bump above the relevance threshold"


# ------------------------------------------------------- random over

def test_rand_over_explicit_total():
    ds = two_bump_ds(805, 195)
    out = rand_over_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([2.5]), seed=0)
    assert out.dataset.n_rows == 1487
    assert totals(out) == (805, 682)


def test_rand_over_balance_total():
    ds = two_bump_ds(805, 195)
    out = rand_over_regress(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)
    assert out.dataset.n_rows == 1805
    assert totals(out) == (805, 1000)


def test_rand_over_extreme_total():
    ds = two_bump_ds(805, 195)
    out = rand_over_regress(ds, RAMP, 0.5, BumpPercSpec.extreme(), seed=0)
    assert out.dataset.n_rows == 4323
    assert totals(out) == (805, 3518)


def test_rand_over_appends_replicas_only():
    ds = two_bump_ds(12, 4)
    out = rand_over_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([1.0]), seed=3)
    assert out.removed.tolist() == []
    assert out.dataset.n_rows == 20
    head = dataset_to_csv_bytes(out.dataset.take(range(16)))
    assert head == dataset_to_csv_bytes(ds)
    rare_ys = set(np.linspace(6.0, 10.0, 4))
    tail = out.dataset.target_column.values[16:]
    assert set(tail) <= rare_ys


def test_rand_over_needs_a_rare_bump():
    ds = regression_ds(np.linspace(0.0, 3.0, 10))
    with pytest.raises(ResampleError, match="^no bump above the relevance threshold$"):
        rand_over_regress(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)


@pytest.mark.parametrize("mode", ["balance", "extreme"])
def test_rand_over_derived_targets_need_a_normal_bump(mode):
    ds = regression_ds(np.linspace(7.0, 10.0, 12))  # everything rare
    with pytest.raises(ResampleError) as err:
        rand_over_regress(ds, RAMP, 0.5, BumpPercSpec(mode), seed=0)
    assert str(err.value) == "no bump below the relevance threshold"


def test_rand_over_rejects_negative_perc():
    ds = two_bump_ds(10, 5)
    with pytest.raises(ResampleError, match="non-negative"):
        rand_over_regress(ds, RAMP, 0.5, BumpPercSpec.explicit([-0.5]), seed=0)


@pytest.mark.parametrize("strategy, percs, msg", [
    (rand_under_regress, [1.5], "under-sampling percentages must be in (0, 1]"),
    (rand_over_regress, [-0.5], "over-sampling percentages must be non-negative"),
    (gauss_noise_regress, [0.0, 1.0], "under-sampling percentages must be in (0, 1]"),
    (gauss_noise_regress, [0.5, -1.0], "over-sampling percentages must be non-negative"),
    (smoter, [0.5, 0.5], "over-sampling percentages must be at least 1"),
])
def test_explicit_bump_percentage_rules(strategy, percs, msg):
    ds = two_bump_ds(10, 5)
    with pytest.raises(ResampleError) as err:
        strategy(ds, RAMP, 0.5, BumpPercSpec.explicit(percs), seed=0)
    assert str(err.value) == msg


def test_imp_samp_mode_a_rare_percentages_are_additive():
    params = ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.explicit([1.0, -0.5]))
    with pytest.raises(ResampleError) as err:
        imp_samp_regress(two_bump_ds(10, 5), RAMP, params, seed=0)
    assert str(err.value) == "over-sampling percentages must be non-negative"


# ------------------------------------------------------- gauss noise

def test_gauss_noise_regress_counts():
    ds = two_bump_ds(849, 151)
    out = gauss_noise_regress(
        ds, RAMP, 0.8, BumpPercSpec.explicit([0.5, 3]), seed=0
    )
    # thr 0.8 lands in the flat gap, same split as 0.5 on this fixture
    assert totals(out, thr=0.8) == (424, 604)
    assert out.dataset.n_rows == 1028


def test_gauss_noise_regress_balance():
    ds = two_bump_ds(849, 151)
    out = gauss_noise_regress(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)
    got = totals(out)
    assert abs(got[0] - 500) <= 1 and abs(got[1] - 500) <= 1


def test_gauss_noise_regress_extreme():
    ds = two_bump_ds(849, 151)
    out = gauss_noise_regress(ds, RAMP, 0.5, BumpPercSpec.extreme(), seed=0)
    assert totals(out) == (151, 849)


def test_gauss_noise_regress_perturbs_target_too():
    ds = two_bump_ds(40, 8)
    out = gauss_noise_regress(
        ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 2.0]), pert=0.2, seed=5
    )
    originals = set(ds.target_column.values)
    synth = [v for v in out.dataset.target_column.values[48:]]
    assert len(synth) == 16  # additive growth: floor(2.0 * 8) replicas
    assert any(v not in originals for v in synth)


def test_gauss_noise_regress_pert_zero_replicates():
    ds = two_bump_ds(40, 8)
    out = gauss_noise_regress(
        ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 2.0]), pert=0.0, seed=5
    )
    originals = set(ds.target_column.values)
    assert set(out.dataset.target_column.values) <= originals


def test_gauss_noise_regress_single_row_bump_warning():
    ds = two_bump_ds(20, 1)
    out = gauss_noise_regress(
        ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 4.0]), seed=2
    )
    assert any("single-example bump" in w for w in out.warnings)


# ------------------------------------------------------------ smoter

def test_smoter_explicit_counts():
    ds = two_bump_ds(849, 151)
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.explicit([0.1, 8]), k=5, seed=0)
    assert totals(out) == (84, 1208)


def test_smoter_balance_counts():
    ds = two_bump_ds(849, 151)
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.balance(), k=5, seed=0)
    got = totals(out)
    assert abs(got[0] - 499) <= 1 and abs(got[1] - 500) <= 1


def test_smoter_extreme_counts():
    ds = two_bump_ds(849, 151)
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.extreme(), k=5, seed=0)
    got = totals(out)
    assert abs(got[0] - 151) <= 0.15 * 151
    assert abs(got[1] - 849) <= 0.15 * 849


def test_smoter_target_is_distance_weighted_mean():
    # two features so the interpolation fraction is visible in both
    rng = np.random.default_rng(0)
    x1 = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(5, 6, 6)])
    y = np.concatenate([np.linspace(0, 4, 20), np.linspace(6, 10, 6)])
    ds = make_ds(
        [("x1", "num", x1), ("x2", "num", x1 * 2 + 1), ("y", "num", y)], "y"
    )
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 3.0]), k=2, seed=4)
    synth_seeds = out.seeds[out.synthetic].tolist()
    n_kept = out.dataset.n_rows - len(synth_seeds)
    ys = ds.target_column.values

    def distance(new_row, i):
        return oracle.scalar_distance_oracle("euclidean", None, ["num", "num"], new_row,
                                             oracle.dataset_row(ds, i), {}, {}, {})

    for pos, s in enumerate(synth_seeds):
        new_row = oracle.dataset_row(out.dataset, n_kept + pos)
        d1 = distance(new_row, s)
        got_y = float(out.dataset.target_column.values[n_kept + pos])
        # the neighbour is whichever rare row makes the weighted mean hold
        rare_rows = [i for i in range(20, 26) if i != s]
        matched = False
        for r in rare_rows:
            d2 = distance(new_row, r)
            if d1 + d2 == 0:
                want = (ys[s] + ys[r]) / 2
            else:
                want = (d2 * ys[s] + d1 * ys[r]) / (d1 + d2)
            if got_y == pytest.approx(want, abs=1e-9):
                matched = True
                break
        assert matched, f"synthetic target {got_y} fits no seed-neighbour pair"


def test_smoter_identical_features_average_targets():
    ds = make_ds(
        [
            ("x", "num", [0.0, 1.0, 2.0, 5.0, 5.0]),
            ("y", "num", [0.0, 1.0, 2.0, 7.0, 9.0]),
        ],
        "y",
    )
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 2.0]), k=1, seed=0)
    synth_y = out.dataset.target_column.values[5:]
    assert len(synth_y) == 2
    assert all(v == pytest.approx(8.0) for v in synth_y)


def test_smoter_target_of_equal_parents_is_theirs():
    # the weighted mean of two equal targets came out an ulp off them
    ds = make_ds([("x", "num", [0.0, 1.0, 2.0, 3.0, 5.0, 5.3, 5.9]),
                  ("y", "num", [0.0, 1.0, 2.0, 3.0, 7.3, 7.3, 7.3])], "y")
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 10.0]), k=2, seed=0)
    assert out.dataset.target_column.values[7:].tolist() == [7.3] * 27


def test_smoter_single_row_bump_replicates_with_warning():
    ds = two_bump_ds(20, 1)
    out = smoter(ds, RAMP, 0.5, BumpPercSpec.explicit([1.0, 5.0]), seed=0)
    assert any("plain replicas" in w for w in out.warnings)
    tail = out.dataset.target_column.values[21:]
    assert all(v == 6.0 for v in tail)


def test_smoter_needs_a_rare_bump():
    ds = regression_ds(np.linspace(0.0, 3.0, 8))
    with pytest.raises(ResampleError, match="^no bump above the relevance threshold$"):
        smoter(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_smoter_validates_k(k):
    with pytest.raises(ResampleError) as err:
        smoter(two_bump_ds(10, 5), RAMP, 0.5, BumpPercSpec.balance(), k=k, seed=0)
    assert str(err.value) == "k must be at least 1"


def test_smoter_deterministic():
    ds = two_bump_ds(30, 12)
    a = smoter(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=6)
    b = smoter(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=6)
    assert dataset_to_csv_bytes(a.dataset) == dataset_to_csv_bytes(b.dataset)


# ------------------------------------------------- importance sampling

def test_imp_samp_mode_a_balance_counts():
    ds = two_bump_ds(849, 151)
    params = ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.balance())
    out = imp_samp_regress(ds, RAMP, params, seed=0)
    got = totals(out)
    assert abs(got[0] - 500) <= 1 and abs(got[1] - 500) <= 1


def test_imp_samp_mode_a_shrinks_a_bump_of_full_relevance_uniformly():
    # each row of the rare bump has relevance 1, so its weights 1 - phi
    # sum to 0 and the rows it drops are drawn uniformly
    params = ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.balance())
    out = imp_samp_regress(two_bump_ds(5, 15), RAMP, params, seed=0)
    assert totals(out) == (10, 10)
    assert len(out.removed) == 5 and out.removed.min() >= 5


def test_imp_samp_mode_a_removals_prefer_low_relevance():
    # phi rises within the rare-side bump, so surviving rows should skew
    # toward high phi when the bump is shrunk
    y = np.concatenate([np.linspace(0, 4, 10), np.linspace(5.2, 10, 40)])
    ds = regression_ds(y)
    fn = build_relevance_range([(4, 0, 0), (10, 1, 0)])
    params = ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.explicit([1.0, 0.5]))
    out = imp_samp_regress(ds, fn, params, seed=1)
    kept_phi = fn(np.asarray(out.dataset.target_column.values[10:], dtype=float))
    all_phi = fn(y[10:])
    assert kept_phi.mean() > all_phi.mean()


def test_imp_samp_mode_a_replication_prefers_high_relevance():
    y = np.concatenate([np.linspace(0, 4, 30), np.linspace(5.2, 10, 10)])
    ds = regression_ds(y)
    fn = build_relevance_range([(4, 0, 0), (10, 1, 0)])
    params = ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.explicit([1.0, 3.0]))
    out = imp_samp_regress(ds, fn, params, seed=2)
    seed_phi = fn(y[out.seeds])
    bump_phi = fn(y[30:])
    assert seed_phi.mean() > bump_phi.mean()


def test_imp_samp_mode_b_identity_when_off():
    ds = two_bump_ds(20, 5)
    out = imp_samp_regress(ds, RAMP, ImpSampParams(u=0.0, o=0.0), seed=0)
    assert out.dataset == ds
    assert out.removed.tolist() == [] and len(out.seeds) == 0


def test_imp_samp_mode_b_never_drops_full_relevance():
    ds = two_bump_ds(20, 8)
    out = imp_samp_regress(ds, RAMP, ImpSampParams(u=1.0, o=0.0), seed=3)
    # rare rows all have phi = 1 here, so u = 1 cannot touch them
    remaining = set(out.dataset.target_column.values)
    assert set(np.linspace(6.0, 10.0, 8)) <= remaining
    # normal rows have phi = 0 and are dropped with certainty
    assert out.dataset.n_rows == 8


def test_imp_samp_mode_b_adds_floor_of_o_times_phi_sum():
    ds = two_bump_ds(20, 8)  # phi sums to exactly 8.0
    out = imp_samp_regress(ds, RAMP, ImpSampParams(u=0.0, o=1.5), seed=4)
    assert len(out.seeds) == 12
    assert out.dataset.n_rows == 40


def test_imp_samp_mode_b_replicas_have_high_relevance():
    y = np.linspace(0.0, 10.0, 50)
    ds = regression_ds(y)
    fn = build_relevance_range([(0, 0, 0), (10, 1, 0)])
    out = imp_samp_regress(ds, fn, ImpSampParams(u=0.0, o=1.0), seed=5)
    seed_phi = fn(y[out.seeds])
    assert seed_phi.mean() > fn(y).mean()


def test_imp_samp_mode_selection_is_exclusive():
    ds = two_bump_ds(10, 5)
    with pytest.raises(ResampleError, match="either thr_rel"):
        imp_samp_regress(
            ds, RAMP,
            ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.balance(), u=0.5, o=1.0),
            seed=0,
        )
    with pytest.raises(ResampleError, match="either thr_rel"):
        imp_samp_regress(ds, RAMP, ImpSampParams(), seed=0)


@pytest.mark.parametrize("params, message", [
    (ImpSampParams(thr_rel=0.5), "mode A needs both thr_rel and a bump spec"),
    (ImpSampParams(spec=BumpPercSpec.balance()), "mode A needs both thr_rel and a bump spec"),
    (ImpSampParams(u=0.5), "mode B needs both u and o"),
    (ImpSampParams(o=1.0), "mode B needs both u and o"),
])
def test_imp_samp_mode_needs_both_its_parameters(params, message):
    with pytest.raises(ResampleError) as err:
        imp_samp_regress(two_bump_ds(10, 5), RAMP, params, seed=0)
    assert str(err.value) == message


@pytest.mark.parametrize("params", [
    ImpSampParams(thr_rel=0.5, spec=BumpPercSpec.balance()), ImpSampParams(u=0.5, o=1.0),
])
def test_imp_samp_needs_a_numeric_target(params):
    ds = make_ds([("x", "num", [1.0, 2.0, 3.0]), ("y", "nom", ["a", "b", "a"])], "y")
    with pytest.raises(RelevanceError) as err:
        imp_samp_regress(ds, RAMP, params, seed=0)
    assert str(err.value) == "relevance needs a numeric target column"


def test_imp_samp_mode_b_validates_ranges():
    ds = two_bump_ds(10, 5)
    with pytest.raises(ResampleError, match=r"u must lie"):
        imp_samp_regress(ds, RAMP, ImpSampParams(u=1.5, o=1.0), seed=0)
    with pytest.raises(ResampleError, match="o must be"):
        imp_samp_regress(ds, RAMP, ImpSampParams(u=0.5, o=-1.0), seed=0)


def test_regression_strategies_need_numeric_target():
    from _toys import labelled

    ds = labelled(["a", "b"], {"x": ("num", [1.0, 2.0])})
    with pytest.raises(Exception, match="numeric target"):
        rand_under_regress(ds, RAMP, 0.5, BumpPercSpec.balance(), seed=0)
