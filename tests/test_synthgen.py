import numpy as np

from rebalance import class_counts, gen_imbc, gen_imbr
from rebalance.tabular import ColumnKind, dataset_to_csv_bytes

import _oracles as oracle


def test_imbc_schema():
    ds = gen_imbc(1000, seed=0)
    assert [c.name for c in ds.columns] == ["X1", "X2", "Class"]
    assert ds.column("X1").kind is ColumnKind.NUMERIC
    assert ds.column("X2").kind is ColumnKind.NOMINAL
    assert ds.target == "Class"
    assert ds.n_rows == 1000


def test_imbc_x2_counts_exact():
    for seed in (0, 1, 7):
        ds = gen_imbc(1000, seed=seed)
        vals, counts = np.unique(list(ds.column("X2").labels), return_counts=True)
        got = dict(zip(vals, counts))
        assert got == {"cat": 300, "dog": 400, "fish": 300}


def test_imbc_x2_counts_scale_with_n():
    ds = gen_imbc(200, seed=3)
    vals, counts = np.unique(list(ds.column("X2").labels), return_counts=True)
    assert dict(zip(vals, counts)) == {"cat": 60, "dog": 80, "fish": 60}


def test_imbc_rare_labels_confined_to_their_regions():
    ds = gen_imbc(1000, seed=5)
    x1 = ds.column("X1").values
    x2 = np.array(list(ds.column("X2").labels))
    cls = np.array(list(ds.column("Class").labels))

    r1 = cls == "rare1"
    in_s1 = (x1 > 9) & np.isin(x2, ["cat", "dog"])
    in_s2 = (x1 > 7) & (x2 == "fish")
    assert np.all(in_s1[r1] | in_s2[r1])

    r2 = cls == "rare2"
    in_s3 = (x1 > -1) & (x1 < 0.5)
    in_s4 = (x1 < -7) & (x2 == "fish")
    assert np.all(in_s3[r2] | in_s4[r2])


def test_imbc_rare_fractions_plausible():
    fr1, fr2 = [], []
    for seed in range(10):
        counts = class_counts(gen_imbc(1000, seed=seed))
        fr1.append(counts.get("rare1", 0) / 1000)
        fr2.append(counts.get("rare2", 0) / 1000)
    assert 0.005 <= np.mean(fr1) <= 0.02
    assert 0.10 <= np.mean(fr2) <= 0.17


def test_imbc_deterministic():
    a = dataset_to_csv_bytes(gen_imbc(1000, seed=9))
    b = dataset_to_csv_bytes(gen_imbc(1000, seed=9))
    c = dataset_to_csv_bytes(gen_imbc(1000, seed=10))
    assert a == b and a != c


def test_imbr_schema():
    ds = gen_imbr(1000, seed=0)
    assert [c.name for c in ds.columns] == ["X1", "X2", "Tgt"]
    assert all(c.kind is ColumnKind.NUMERIC for c in ds.columns)
    assert ds.target == "Tgt"
    assert ds.n_rows == 1000


def test_imbr_ring_rows_are_the_last_fifty():
    ds = gen_imbr(1000, seed=2)
    x1 = ds.column("X1").values
    x2 = ds.column("X2").values
    tgt = ds.column("Tgt").values
    radius = np.hypot(x1 - 10, x2 - 10)
    ring_r = radius[-50:]
    assert np.all(tgt[-50:] >= 20.0)
    assert 8.5 <= ring_r.mean() <= 9.5
    assert np.all(tgt[:950] >= 10.0)


def test_imbr_ring_count_scales_with_n():
    ds = gen_imbr(200, seed=4)
    tgt = ds.column("Tgt").values
    assert np.sum(tgt >= 20.0) == 10


def test_imbr_bulk_is_a_central_blob():
    ds = gen_imbr(1000, seed=6)
    x1 = ds.column("X1").values[:950]
    x2 = ds.column("X2").values[:950]
    assert abs(x1.mean() - 10) < 0.5
    assert abs(x2.mean() - 10) < 0.5


def test_imbr_deterministic():
    a = dataset_to_csv_bytes(gen_imbr(1000, seed=8))
    b = dataset_to_csv_bytes(gen_imbr(1000, seed=8))
    assert a == b


def test_imbr_targets_follow_documented_gamma_laws():
    # KS against the documented laws, pooled over the 20 seeds that
    # acceptance criterion 6 uses; 1.95/sqrt(n) is the alpha = 0.001
    # critical value.
    tgts = [gen_imbr(1000, seed=s).column("Tgt").values for s in range(20)]
    bulk = np.concatenate([t[:950] for t in tgts]) - 10.0
    ring = np.concatenate([t[950:] for t in tgts]) - 20.0
    for sample, cdf in ((bulk, oracle.gamma_half_cdf), (ring, oracle.exponential_cdf)):
        d = oracle.ks_statistic(sample.tolist(), cdf)
        assert d < 1.95 / np.sqrt(len(sample)), (cdf.__name__, d)
