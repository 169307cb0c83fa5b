"""Every strategy's output against its own bookkeeping.

On small random tables, with numeric and nominal features that have
missing cells, each of the fifteen resampling subcommands runs through
the CLI's dispatch (``cli._dispatch``) with generated options.  Each
output row with an origin must hold the cells of the input row it
names.  The input rows that no origin names must be ``removed``, the
added rows (``seeds``) must be the output rows beyond the distinct
kept rows, and the synthetic ones must be the rows without an origin.
The same seed must give the same bytes.  A strategy may refuse a table
or an option only with one of the library's own errors; on a table of
no rows, each strategy either returns no rows or raises a
``ResampleError`` that says the table is empty.

Importance sampling's mode B draws its replicas from every input row,
removed ones included, so there the check is the one both rules
imply: the kept rows and the replicas' seeds are the output's origins.

Two more properties hold the strategies to their definitions.  Every
group (class or bump) that a strategy resolves a target for ends with
that many rows, as ``group_targets_oracle`` resolves it.  Every SMOTE
and SMOTER synthetic row lies in the box between its seed and one of
the seed's k nearest rows in its group, in the order of a stable
argsort of ``pairwise``: a numeric cell between the two ends, or NaN
where an end is; a nominal cell equal to one end; SMOTER's target
between the two parents' targets.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rebalance import (
    BumpPercSpec,
    ClassPercSpec,
    ColumnKind,
    ImpSampParams,
    Metric,
    MetricError,
    RelevanceError,
    ResampleError,
    TabularError,
    build_context,
    build_relevance_range,
    cnn_classif,
    enn_classif,
    gauss_noise_classif,
    gauss_noise_regress,
    imp_samp_classif,
    imp_samp_regress,
    ncl_classif,
    oss_classif,
    pairwise,
    rand_over_classif,
    rand_over_regress,
    rand_under_classif,
    rand_under_regress,
    smote_classif,
    smoter,
    tomek_classif,
)
from rebalance.classif import WARN_TOMEK_NONE
from rebalance.cli import COMMANDS, _build_parser, _dispatch

from _oracles import dataset_to_csv_bytes, group_targets_oracle
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


# the subcommands that resolve a row target per group; impsamp-r in
# mode A only
TARGETED = ["randunder", "randover", "impsamp", "gaussnoise", "smote", "randunder-r",
            "randover-r", "gaussnoise-r", "smote-r", "impsamp-r"]


def groups_of(ds, out):
    """The group of each input row, and each group's rows: classes in
    label order, or the bumps of the strategy's partition."""
    if out.partition is None:
        codes = ds.target_column.values
        return codes, [np.flatnonzero(codes == c) for c in range(len(ds.target_column.categories))]
    group = np.empty(ds.n_rows, dtype=np.intp)
    for i, b in enumerate(out.partition.bumps):
        group[b.indices] = i
    return group, [b.indices for b in out.partition.bumps]


@pytest.mark.parametrize("name", TARGETED)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_group_ends_at_its_resolved_target(name, data):
    ds, argv = data.draw(runs(name))
    if "--u" in argv:
        return
    out = dispatched(ds, argv)
    if out is None:
        return
    group, rows = groups_of(ds, out)
    counts = [len(r) for r in rows]
    perc = argv[argv.index("--c-perc") + 1] if "--c-perc" in argv else "balance"
    if "=" in perc:
        named = dict(kv.split("=") for kv in perc.split(","))
        perc = [None if c not in named else float(named[c])
                for c in ds.target_column.categories]
    rare = [b.rare for b in out.partition.bumps] if out.partition else None
    want = group_targets_oracle(name, perc, counts, rare)
    # an output row belongs to its origin's group, a synthetic one to
    # its seed's
    origins = out.dataset.origins
    members = np.concatenate([origins[origins >= 0], out.seeds[out.synthetic]])
    got = np.bincount(group[members], minlength=len(rows)).tolist()
    assert got == want
    event("grows" if sum(want) > ds.n_rows else "shrinks" if sum(want) < ds.n_rows
          else "keeps the total")


def between(lo, hi, v):
    """Whether ``v`` lies in the box of the cells ``lo`` and ``hi``: NaN
    where either is NaN, else between them."""
    if math.isnan(lo) or math.isnan(hi):
        return math.isnan(v)
    return min(lo, hi) <= v <= max(lo, hi)


@pytest.mark.parametrize("name", ["smote", "smote-r"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_smote_rows_lie_between_a_seed_and_one_of_its_neighbours(name, data):
    ds, argv = data.draw(runs(name))
    out = dispatched(ds, argv)
    if out is None:
        return
    args = _build_parser(argv).parse_args(argv)
    ctx = build_context(Metric(args.dist), ds)
    group, rows = groups_of(ds, out)
    new = np.flatnonzero(out.dataset.origins < 0)
    cells = [(c.kind, c.labels if c.kind is ColumnKind.NOMINAL else c.values)
             for c in ds.columns]
    made = [c.labels if c.kind is ColumnKind.NOMINAL else c.values for c in out.dataset.columns]
    for r, s in zip(new, out.seeds[out.synthetic]):
        idx = rows[group[s]]
        if len(idx) == 1:  # a single row is copied
            nbrs = idx
        else:
            d = pairwise(ctx, rows=idx)
            np.fill_diagonal(d, np.inf)
            order = np.argsort(d, axis=1, kind="stable")
            nbrs = idx[order[np.flatnonzero(idx == s)[0], :min(args.k, len(idx) - 1)]]
        assert any(all(between(v[s], v[n], m[r]) if kind is ColumnKind.NUMERIC
                       else m[r] in (v[s], v[n])
                       for (kind, v), m in zip(cells, made))
                   for n in nbrs)
    event("adds synthetic rows" if len(new) else "adds none")


NO_ROWS = [("x", "num", [1.0, math.nan]), ("g", "nom", ["a", None])]
NO_CLASSES = make_ds([*NO_ROWS, ("t", "nom", ["p", "q"])], "t").take([])
NO_TARGETS = make_ds([*NO_ROWS, ("t", "num", [1.0, 8.0])], "t").take([])
HEOM = Metric("heom")
RAMP = build_relevance_range([(4, 0, 0), (6, 1, 0)])

# each library strategy on a table of no rows, given "balance" or
# "extreme": the warnings of its outcome of no rows, or the message of
# the ResampleError it raises
ON_NO_ROWS = {
    "randunder": (lambda m: rand_under_classif(NO_CLASSES, ClassPercSpec(m)), "empty dataset"),
    "randover": (lambda m: rand_over_classif(NO_CLASSES, ClassPercSpec(m)), "empty dataset"),
    "impsamp": (lambda m: imp_samp_classif(NO_CLASSES, ClassPercSpec(m)), "empty dataset"),
    "tomek": (lambda m: tomek_classif(NO_CLASSES, HEOM), [WARN_TOMEK_NONE]),
    "cnn": (lambda m: cnn_classif(NO_CLASSES, HEOM)[0], "empty dataset"),
    "oss": (lambda m: oss_classif(NO_CLASSES, HEOM)[0], "empty dataset"),
    "enn": (lambda m: enn_classif(NO_CLASSES, HEOM), "empty dataset"),
    "ncl": (lambda m: ncl_classif(NO_CLASSES, HEOM), "empty dataset"),
    "gaussnoise": (lambda m: gauss_noise_classif(NO_CLASSES, ClassPercSpec(m)), "empty dataset"),
    "smote": (lambda m: smote_classif(NO_CLASSES, ClassPercSpec(m), metric=HEOM),
              "empty dataset"),
    "randunder-r": (lambda m: rand_under_regress(NO_TARGETS, RAMP, spec=BumpPercSpec(m)),
                    "empty dataset"),
    "randover-r": (lambda m: rand_over_regress(NO_TARGETS, RAMP, spec=BumpPercSpec(m)),
                   "empty dataset"),
    "gaussnoise-r": (lambda m: gauss_noise_regress(NO_TARGETS, RAMP, spec=BumpPercSpec(m)),
                     "empty dataset"),
    "smote-r": (lambda m: smoter(NO_TARGETS, RAMP, spec=BumpPercSpec(m), metric=HEOM),
                "empty dataset"),
    "impsamp-r": (lambda m: imp_samp_regress(NO_TARGETS, RAMP, ImpSampParams(0.5, BumpPercSpec(m))),
                  "empty dataset"),
    "impsamp-r, mode B": (lambda m: imp_samp_regress(NO_TARGETS, RAMP, ImpSampParams(u=0.5, o=1.0)),
                          []),
}


@pytest.mark.parametrize("mode", ["balance", "extreme"])
@pytest.mark.parametrize("name", ON_NO_ROWS)
def test_a_table_of_no_rows_gives_no_rows_or_a_resample_error(name, mode):
    # ResampleError and MetricError subclass ValueError, as do the bare
    # errors of min() and max() of no counts
    call, want = ON_NO_ROWS[name]
    if isinstance(want, list):
        out = call(mode)
        assert out.dataset.n_rows == 0 and out.warnings == want
        return
    with pytest.raises(ResampleError, match=f"^{want}$") as info:
        call(mode)
    assert type(info.value) is ResampleError
