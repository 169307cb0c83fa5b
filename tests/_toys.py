"""Small dataset builders and writer helpers shared by the test modules."""

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import rebalance.tabular as tabular
from rebalance import Column, ColumnKind, Dataset, MetricError, build_context
from rebalance.classif import _outcome
from rebalance.synthgen import gen_imbr

from _oracles import refused_column_oracle

KIND = {"num": ColumnKind.NUMERIC, "nom": ColumnKind.NOMINAL}


def make_ds(cols, target):
    """Build a Dataset from (name, 'num'|'nom', values) triples."""
    return Dataset([Column(n, KIND[k], v) for n, k, v in cols], target=target)


def strategy_output(ds, rows, block=None):
    """``ds``'s ``rows`` in order, then the rows of ``block`` (column
    form), as a strategy outputs them: with ``origins``, built by
    ``classif._outcome``."""
    # the block rows' seeds are unknown here; the output records none
    added = [(np.full(len(block[ds.target]), -1), block)] if block else []
    return _outcome(ds, np.asarray(rows, dtype=np.intp), added).dataset


def labelled(labels, features=None, target="cls"):
    """One nominal target plus an optional dict of feature columns."""
    cols = []
    for name, (kind, values) in (features or {}).items():
        cols.append((name, kind, values))
    cols.append((target, "nom", list(labels)))
    return make_ds(cols, target)


def regression_ds(y, features=None, target="y"):
    """Numeric target plus optional features; default feature mirrors y."""
    if features is None:
        features = {"x": ("num", list(y))}
    cols = [(n, k, v) for n, (k, v) in features.items()]
    cols.append((target, "num", list(y)))
    return make_ds(cols, target)


def context_or_refusal(metric, ds):
    """``build_context(metric, ds)``, or None where the metric has no
    distance on the table: then it must raise MetricError naming the
    column ``refused_column_oracle`` names."""
    bad = refused_column_oracle(metric.name, ds)
    if bad is None:
        return build_context(metric, ds)
    with pytest.raises(MetricError, match=f"^column {bad!r} "):
        build_context(metric, ds)
    return None


def random_numeric_ds(rng, n_rows, n_cols, target="cls", n_classes=2):
    feats = {
        f"x{j}": ("num", rng.normal(size=n_rows)) for j in range(n_cols)
    }
    labels = [f"c{rng.integers(n_classes)}" for _ in range(n_rows)]
    return labelled(labels, feats, target=target)


# Six-row mixed toy used across the distance tests.  One nominal and one
# numeric feature, binary-ish target with classes pos/neg.
TOY_ROWS = [
    ("a", 1.0),
    ("a", 2.0),
    ("b", 3.0),
    ("b", 5.0),
    ("a", 4.0),
    ("c", 0.0),
]
TOY_LABELS = ["pos", "pos", "neg", "neg", "neg", "pos"]
TOY_KINDS = ["nom", "num"]


def toy_mixed_ds():
    return labelled(
        TOY_LABELS,
        {
            "colour": ("nom", [r[0] for r in TOY_ROWS]),
            "size": ("num", [r[1] for r in TOY_ROWS]),
        },
    )


def blanked_imbr(n_rows=1000, seed=0):
    """``gen imbr`` with blank X1 cells on rows i % 37 == 5 and blank X2
    cells on rows i % 53 == 11; under a plain metric their distances
    are NaN."""
    ds = gen_imbr(n_rows, seed=seed)
    i = np.arange(n_rows)
    x1 = ds.column("X1").values.copy()
    x2 = ds.column("X2").values.copy()
    x1[i % 37 == 5] = np.nan
    x2[i % 53 == 11] = np.nan
    return Dataset(
        [
            Column("X1", ColumnKind.NUMERIC, x1),
            Column("X2", ColumnKind.NUMERIC, x2),
            ds.column("Tgt"),
        ],
        target="Tgt",
    )


@contextmanager
def two_cpus():
    """Let ``write_dataset`` and ``read_dataset`` split as on a host with
    two free CPUs.

    Yields the list of the pids the writer or reader forks.  On leaving,
    no child of this process may be left, running or unreaped.
    """
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(os, "fork", counted_fork):
        yield forks
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process was left: {left}")


def fail_formatting_in(side, monkeypatch):
    """Split every write, and make formatting fail in the ``side``
    process, "worker" or "parent"."""
    parent = os.getpid()
    fields = tabular._fields

    def _fields(*args):
        if (os.getpid() == parent) == (side == "parent"):
            raise MemoryError("formatting failed")
        return fields(*args)

    monkeypatch.setattr(tabular, "_fields", _fields)
    monkeypatch.setattr(tabular, "SPLIT_ROWS", 2)
