"""The added-row bookkeeping and the bump partition the strategies return.

Each strategy keeps its added rows as one array of seed rows and one of
synthetic flags.  Run through the CLI at a fixed seed, those arrays
must equal the (seed row, synthetic) list the driver used to build one
row at a time (``tests/_oracles.py``), rebuilt from what the driver's
callbacks returned, and the report's ``added`` must equal its length.  A bump
strategy hands its partition of the input to the CLI, which partitions
the output only where some row of it is synthetic or some bump lost
every row; otherwise the copies keep their input bumps.
"""

import json

import numpy as np
import pytest

import rebalance.classif as classif
import rebalance.cli as cli
import rebalance.regress as regress
from rebalance import Metric, find_bumps, read_dataset, tomek_classif
from rebalance.tabular import index_dtype

import _oracles as oracle

CASES = {
    "randover": ("imbc", []),
    "gaussnoise": ("imbc", []),
    "gaussnoise-repl": ("imbc", ["--repl"]),
    "smote": ("imbc", ["--dist", "heom"]),
    "randover-r": ("imbr", []),
    "gaussnoise-r": ("imbr", []),
    "smote-r": ("imbr", []),
    "impsamp-r": ("imbr", []),
    "impsamp-r-b": ("imbr", ["--u", "0.5", "--o", "1.0"]),
}
TARGETS = {"imbc": "Class", "imbr": "Tgt"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("inputs")
    paths = {}
    for variant in TARGETS:
        paths[variant] = where / f"{variant}.csv"
        assert cli.run(["gen", variant, "--rows", "400", "--seed", "3",
                        "--out", str(paths[variant])]) == 0
    return paths


def record_driver(monkeypatch):
    """Record each ``_resample`` call's groups and its callbacks' results."""
    calls = []
    real = classif._resample

    def spy(ds, groups, shrink, grow=None, lone=None, partition=None):
        call = {"groups": [(idx, t) for _, idx, t in groups], "shrunk": [], "grown": []}
        calls.append(call)

        def shrink_spy(key, idx, t):
            kept = shrink(key, idx, t)
            call["shrunk"].append(kept)
            return kept

        def grow_spy(key, idx, extra):
            seeds, block = grow(key, idx, extra)
            call["grown"].append((seeds, block is not None))
            return seeds, block

        return real(ds, groups, shrink_spy, grow and grow_spy, lone, partition)

    monkeypatch.setattr(classif, "_resample", spy)
    monkeypatch.setattr(regress, "_resample", spy)
    return calls


def record_strategy(monkeypatch, command):
    """Record the positional arguments and outcome of the command's strategy."""
    name = cli.COMMANDS[command].strategy
    real = getattr(cli, name)
    seen = {}

    def spy(*args, **kwargs):
        seen["args"] = args
        seen["out"] = real(*args, **kwargs)
        return seen["out"]

    monkeypatch.setattr(cli, name, spy)
    return seen


def count_find_bumps(monkeypatch):
    """Count the CLI's own ``find_bumps`` calls, and the strategies'."""
    calls = []
    for mod in (cli, regress):
        real = mod.find_bumps

        def spy(*args, _real=real, _mod=mod.__name__):
            calls.append(_mod)
            return _real(*args)

        monkeypatch.setattr(mod, "find_bumps", spy)
    return calls


def bump_rows(part):
    return [(b.rare, b.indices.tolist(), b.y_low, b.y_high) for b in part.bumps]


@pytest.mark.parametrize("case", sorted(CASES))
def test_added_rows_match_the_row_by_row_list(case, inputs, tmp_path, monkeypatch):
    variant, options = CASES[case]
    command = case.removesuffix("-repl").removesuffix("-b")
    driver = record_driver(monkeypatch)
    seen = record_strategy(monkeypatch, command)
    bump_calls = count_find_bumps(monkeypatch)
    report = tmp_path / "report.json"
    assert cli.run([command, *options, "--in", str(inputs[variant]),
                    "--out", str(tmp_path / "out.csv"), "--target", TARGETS[variant],
                    "--seed", "7", "--report", str(report)]) == 0
    out, ds = seen["out"], seen["args"][0]

    if case == "impsamp-r-b":
        assert driver == []
        phi = np.asarray(seen["args"][1](ds.target_column.values), dtype=np.float64)
        want = oracle.imp_samp_mode_b_added_oracle(phi, 0.5, 1.0, seed=7)
    else:
        (call,) = driver
        want = oracle.driver_added_oracle(ds.n_rows, call["groups"], call["shrunk"],
                                          call["grown"])
    assert want and oracle.added_rows(out) == want
    # at the table's width, the dtype of the output's origins
    assert out.seeds.dtype == out.removed.dtype == index_dtype(ds.n_rows)
    assert out.synthetic.dtype == bool
    assert json.loads(report.read_text())["added"] == len(out.seeds)

    # a bump strategy returns its partition; the CLI partitions the output only
    if variant == "imbr" and case != "impsamp-r-b":
        thr = json.loads(report.read_text())["params"]["thr_rel"]
        assert bump_rows(out.partition) == bump_rows(find_bumps(ds, seen["args"][1], thr))
        kept = np.ones(ds.n_rows, dtype=bool)
        kept[out.removed] = False
        copies = not out.synthetic.any() and all(kept[b.indices].any()
                                                 for b in out.partition.bumps)
        assert copies == (command in ("randover-r", "impsamp-r"))
        assert bump_calls == ["rebalance.regress", *["rebalance.cli"] * (not copies)]
    else:
        assert out.partition is None and bump_calls == []


def test_outcome_without_added_rows_lists_none(inputs):
    ds = read_dataset(inputs["imbc"], target="Class")
    out = tomek_classif(ds, Metric("heom"))
    assert len(out.seeds) == len(out.synthetic) == 0
