"""Every strategy's output against its own bookkeeping.

On small random tables, with numeric and nominal features that have
missing cells, each of the fifteen resampling subcommands runs through
the CLI's dispatch (``cli._dispatch``) with generated options.  Each
output row with an origin must hold the cells of the input row it
names.  The input rows that no origin names must be ``removed``, the
added rows (``seeds``) must be the output rows beyond the distinct
kept rows, and the synthetic ones must be the rows without an origin.
The same seed must give the same bytes.  A strategy may refuse a table
or an option only with one of the library's own errors.

Importance sampling's mode B draws its replicas from every input row,
removed ones included, so there the check is the one both rules
imply: the kept rows and the replicas' seeds are the output's origins.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rebalance import ColumnKind, MetricError, RelevanceError, ResampleError, TabularError
from rebalance.cli import COMMANDS, _build_parser, _dispatch

from _oracles import dataset_to_csv_bytes
from _toys import make_ds

LIBRARY_ERRORS = (TabularError, MetricError, RelevanceError, ResampleError)

NUMBERS = st.sampled_from([0.0, -0.0, 1.5, 2.0, 3.25, -4.0, 1e3])
LABELS = st.sampled_from(["a", "b", "c,d"])
CLASSES = ["p", "q", "r"]

# option -> the values drawn for it; "c_perc" differs by family
VALUES = {
    "thr_rel": ["0.3", "0.5", "0.8"],
    "dist": ["heom", "hvdm"],  # the metrics that measure missing cells
    "cl": ["all", "smaller", *CLASSES],
    "rem": ["both", "maj"],
    "start": ["cnn", "tomek"],
    "k": ["1", "2", "3", "5"],
    "pert": ["0", "0.1", "1"],
    "u": ["0", "0.5", "1"],
    "o": ["0", "0.5", "2"],
}
C_PERC = {False: ["balance", "extreme", "p=0.5,q=2", "p=1,r=0.5"],
          True: ["balance", "extreme"]}


@st.composite
def tables(draw, regress):
    """A table of 2 to 24 rows: a numeric and a nominal feature, each
    with missing cells, and a target of up to three classes, or of
    numbers."""
    n = draw(st.integers(2, 24))
    x = draw(st.lists(NUMBERS | st.none(), min_size=n, max_size=n))
    g = draw(st.lists(LABELS | st.none(), min_size=n, max_size=n))
    target = (draw(st.lists(NUMBERS, min_size=n, max_size=n)) if regress
              else draw(st.lists(st.sampled_from(CLASSES), min_size=n, max_size=n)))
    return make_ds([("x", "num", [math.nan if v is None else v for v in x]),
                    ("g", "nom", g),
                    ("t", "num" if regress else "nom", target)], "t")


@st.composite
def runs(draw, name):
    """A table and the argv of a ``name`` run on it: a neighbour metric
    that measures missing cells, and each other option drawn or left
    at its default."""
    cmd = COMMANDS[name]
    options = {"dist": draw(st.sampled_from(VALUES["dist"]))} if "dist" in cmd.options else {}
    for opt in cmd.options:
        if opt == "repl":
            options[opt] = draw(st.booleans())
        elif opt not in ("dist", "u", "o") and draw(st.booleans()):
            options[opt] = draw(st.sampled_from(C_PERC[cmd.regress] if opt == "c_perc"
                                                else VALUES[opt]))
    if "u" in cmd.options and draw(st.booleans()):
        options.pop("c_perc", None)
        options.update(u=draw(st.sampled_from(VALUES["u"])), o=draw(st.sampled_from(VALUES["o"])))
    argv = [name, "--in", "in.csv", "--out", "out.csv", "--target", "t",
            "--seed", str(draw(st.integers(0, 2**16)))]
    for opt, value in options.items():
        flag = "--" + opt.replace("_", "-")
        argv += [flag] * value if value in (False, True) else [flag, value]
    return draw(tables(cmd.regress)), argv


def dispatched(ds, argv):
    """The outcome of the run ``argv`` names on ``ds``, or None when the
    library refuses it."""
    args = _build_parser(argv).parse_args(argv)
    try:
        out, _, _ = _dispatch(args, ds)
    except LIBRARY_ERRORS as exc:
        event(f"refused: {type(exc).__name__}")
        return None
    return out


def same_cells(a, b):
    """Whether two columns hold the same cells, bit for bit."""
    if a.kind is ColumnKind.NOMINAL:
        return a.labels.tolist() == b.labels.tolist()
    return np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_outputs_keep_their_own_books(name, data):
    ds, argv = data.draw(runs(name))
    out = dispatched(ds, argv)
    if out is None:
        return
    n_in, n_out = ds.n_rows, out.dataset.n_rows
    origins = out.dataset.origins
    assert origins is not None and len(origins) == n_out
    copied = origins >= 0
    # a row with an origin holds that row's cells
    assert [c.name for c in out.dataset.columns] == [c.name for c in ds.columns]
    for c_in, c_out in zip(ds.columns, out.dataset.columns):
        assert same_cells(c_out.take(np.flatnonzero(copied)), c_in.take(origins[copied]))

    assert out.removed == sorted(set(out.removed)) and set(out.removed) <= set(range(n_in))
    kept = np.setdiff1d(np.arange(n_in), out.removed)
    seeds, synthetic = out.seeds, out.synthetic
    assert len(seeds) == len(synthetic) and ((seeds >= 0) & (seeds < n_in)).all()
    assert np.count_nonzero(~copied) == np.count_nonzero(synthetic)
    assert len(seeds) == n_out - len(kept)
    # the kept rows and the replicas' seeds are the output's origins
    assert np.array_equal(np.sort(origins[copied]),
                          np.sort(np.concatenate([kept, seeds[~synthetic]])))
    if "--u" not in argv:
        # removed: exactly the rows no origin names
        assert out.removed == np.setdiff1d(np.arange(n_in), origins).tolist()
        assert len(seeds) == n_out - len(np.unique(origins[copied]))
    elif np.isin(out.removed, origins).any():
        event("a removed row comes back as a replica")
    event("adds rows" if len(seeds) else "removes rows" if out.removed else "keeps every row")

    again = dispatched(ds, argv)
    assert dataset_to_csv_bytes(again.dataset) == dataset_to_csv_bytes(out.dataset)
    assert again.removed == out.removed and again.warnings == out.warnings
    assert np.array_equal(again.seeds, seeds) and np.array_equal(again.synthetic, synthetic)
