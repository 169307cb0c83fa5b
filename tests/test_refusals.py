"""One rule, one text, on every path that meets it.

UBL's twin strategies for classes and bumps, the CLI, the reader and
``Dataset`` meet the same bad inputs on several paths.  Each test below
holds one rule and drives every path to it: library calls, and CLI
runs, a regression subcommand under ``--rel auto`` and under
``--rel-points``.  Every path must give the rule's one text, as an
exception's message or as the CLI's one ``error:`` line with exit 1.
"""

import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import rebalance.tabular as tabular
from rebalance import (
    BumpPercSpec,
    ClassPercSpec,
    Column,
    ColumnKind,
    Dataset,
    ImpSampParams,
    Metric,
    MetricError,
    RelevanceError,
    ResampleError,
    TabularError,
    build_relevance_extremes,
    build_relevance_range,
    cnn_classif,
    find_bumps,
    gauss_noise_classif,
    gauss_noise_regress,
    imp_samp_classif,
    imp_samp_regress,
    rand_over_classif,
    rand_over_regress,
    rand_under_classif,
    rand_under_regress,
    read_dataset,
    smoter,
    tomek_classif,
)
from rebalance.cli import run

from _toys import labelled, regression_ds, two_cpus

RAMP = build_relevance_range([(4, 0, 0), (6, 1, 0)])
# twenty common targets and two outliers: under RAMP and under the
# boxplot's relevance alike, one Normal bump and then one Rare bump
Y = [i / 10 for i in range(20)] + [100.0, 101.0]
NUM = regression_ds(Y)
NOM = labelled(["a", "b", "a", "b"], {"x": ("num", [1.0, 2.0, 3.0, 4.0])}, target="y")
CLASSES = labelled(["a"] * 6 + ["b"] * 3, {"x": ("num", [float(i) for i in range(9)])})
ERRORS = (TabularError, MetricError, RelevanceError, ResampleError)

# the CLI's input files, named in argv by these keys
FILES = {
    "NUM": "x,y\n" + "".join(f"{y!r},{y!r}\n" for y in Y),
    "NOM": "x,y\n1,a\n2,b\n3,a\n4,b\n",
    "CLASSES": "x,cls\n" + "".join(f"{i},{'a' if i < 6 else 'b'}\n" for i in range(9)),
    "POINTS": "4,0\n6,1\n",
    # a ragged record after each bad header: the header is refused
    # before any record is read
    "DUP": "x,x,y\n1,2,3\n4\n",
    "NO_TARGET": "x,z\n1,2\n3\n",
}


def refusal(path, tmp_path, capsys) -> str:
    """The text ``path`` refuses with: a library call's message, or the
    one ``error:`` line of a CLI run, which exits 1 and writes nothing."""
    if callable(path):
        with pytest.raises(ERRORS) as err:
            path()
        return str(err.value)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "o.csv"
    argv = [str(tmp_path / a) if a in FILES else a for a in path]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()
    return err[len("error: "):-1]


def cli(*argv):
    """A classification CLI path."""
    return pytest.param((argv[0], "--in", "CLASSES", "--target", "cls", *argv[1:]),
                        id=" ".join(argv))


def each_relevance(*argv, table="NUM"):
    """A regression CLI path under the boxplot's relevance and under a
    points file."""
    for rel in (("--rel", "auto"), ("--rel-points", "POINTS")):
        yield pytest.param((argv[0], "--in", table, "--target", "y", *argv[1:], *rel),
                           id=" ".join((*argv, rel[0])))


def lib(call, name):
    return pytest.param(call, id=name)


@pytest.mark.parametrize("fn", [RAMP, build_relevance_extremes(Y)], ids=["points", "auto"])
def test_the_regression_table_has_one_normal_and_one_rare_bump(fn):
    assert [(b.rare, b.count) for b in find_bumps(NUM, fn, 0.5).bumps] == [
        (False, 20), (True, 2)]


NON_NUMERIC_TARGET = [
    lib(lambda: find_bumps(NOM, RAMP, 0.5), "find_bumps"),
    lib(lambda: rand_under_regress(NOM, RAMP), "rand_under_regress"),
    lib(lambda: rand_over_regress(NOM, RAMP), "rand_over_regress"),
    lib(lambda: gauss_noise_regress(NOM, RAMP), "gauss_noise_regress"),
    lib(lambda: smoter(NOM, RAMP), "smoter"),
    lib(lambda: imp_samp_regress(NOM, RAMP, ImpSampParams(0.5, BumpPercSpec.balance())),
        "imp_samp_regress mode A"),
    lib(lambda: imp_samp_regress(NOM, RAMP, ImpSampParams(u=0.5, o=1.0)),
        "imp_samp_regress mode B"),
    *(p for argv in (["randunder-r"], ["randover-r"], ["gaussnoise-r"], ["smote-r"],
                     ["impsamp-r"], ["impsamp-r", "--u", "0.5", "--o", "1"])
      for p in each_relevance(*argv, table="NOM")),
]


@pytest.mark.parametrize("path", NON_NUMERIC_TARGET)
def test_a_non_numeric_target_is_refused_in_one_text(path, tmp_path, capsys):
    assert refusal(path, tmp_path, capsys) == "relevance needs a numeric target column"


NO_NORMAL_BUMP = [
    # at threshold 0 every row is Rare
    *(lib(lambda spec=spec: rand_under_regress(NUM, RAMP, 0.0, spec), f"rand_under_regress {m}")
      for m, spec in [("balance", BumpPercSpec.balance()), ("extreme", BumpPercSpec.extreme()),
                      ("explicit", BumpPercSpec.explicit([0.5]))]),
    *(lib(lambda spec=spec: rand_over_regress(NUM, RAMP, 0.0, spec), f"rand_over_regress {m}")
      for m, spec in [("balance", BumpPercSpec.balance()), ("extreme", BumpPercSpec.extreme())]),
    *(p for argv in (["randunder-r"], ["randunder-r", "--c-perc", "0.5"], ["randover-r"],
                     ["randover-r", "--c-perc", "extreme"])
      for p in each_relevance(*argv, "--thr-rel", "0")),
]


@pytest.mark.parametrize("path", NO_NORMAL_BUMP)
def test_no_normal_bump_is_refused_in_one_text(path, tmp_path, capsys):
    assert refusal(path, tmp_path, capsys) == "no bump below the relevance threshold"


def read_split(text):
    """``read_dataset`` of ``text`` in a file the reader may split."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        with two_cpus(), mock.patch.object(tabular, "SPLIT_ROWS", 2):
            return read_dataset(path, target="y")


def header_paths(name):
    text = FILES[name]
    names = text.partition("\n")[0].split(",")
    yield lib(lambda: read_dataset(io.StringIO(text), target="y"), "read_dataset stream")
    yield lib(lambda: read_split(text), "read_dataset path")
    yield lib(lambda: Dataset([Column(n, ColumnKind.NUMERIC, [1.0]) for n in names], "y"),
              "Dataset")
    yield pytest.param(("randunder", "--in", name, "--target", "y"), id="randunder")
    yield from each_relevance("smote-r", table=name)


@pytest.mark.parametrize("path", header_paths("DUP"))
def test_duplicate_column_names_are_refused_in_one_text(path, tmp_path, capsys):
    assert refusal(path, tmp_path, capsys) == "duplicate column names"


@pytest.mark.parametrize("path", header_paths("NO_TARGET"))
def test_a_missing_target_column_is_refused_in_one_text(path, tmp_path, capsys):
    assert refusal(path, tmp_path, capsys) == "target column 'y' not present"


# every percentage is checked finite before any is checked valid: a
# sorts first and is out of range, b is not finite
NAN = float("nan")
CLASS_PERCS = ClassPercSpec.explicit({"a": 2.0, "b": NAN})
BUMP_PERCS = BumpPercSpec.explicit([2.0, NAN])
NOT_FINITE = [
    lib(lambda: rand_under_classif(CLASSES, CLASS_PERCS), "rand_under_classif"),
    lib(lambda: rand_over_classif(CLASSES, ClassPercSpec.explicit({"a": 0.5, "b": NAN})),
        "rand_over_classif"),
    lib(lambda: gauss_noise_classif(CLASSES, ClassPercSpec.explicit({"a": 0.0, "b": NAN})),
        "gauss_noise_classif"),
    lib(lambda: imp_samp_classif(CLASSES, ClassPercSpec.explicit({"a": -1.0, "b": NAN})),
        "imp_samp_classif"),
    cli("randunder", "--c-perc", "a=2,b=nan"),
    cli("randover", "--c-perc", "a=0.5,b=inf"),
]
NOT_FINITE_BUMPS = [
    lib(lambda: rand_under_regress(NUM, RAMP, 0.5, BumpPercSpec.explicit([NAN])),
        "rand_under_regress"),
    lib(lambda: rand_over_regress(NUM, RAMP, 0.5, BumpPercSpec.explicit([NAN])),
        "rand_over_regress"),
    lib(lambda: gauss_noise_regress(NUM, RAMP, 0.5, BUMP_PERCS), "gauss_noise_regress"),
    lib(lambda: smoter(NUM, RAMP, 0.5, BumpPercSpec.explicit([0.5, NAN])), "smoter"),
    lib(lambda: imp_samp_regress(NUM, RAMP, ImpSampParams(0.5, BUMP_PERCS)), "imp_samp_regress"),
    *(p for argv in (["randunder-r", "--c-perc", "nan"], ["gaussnoise-r", "--c-perc", "2,nan"],
                     ["smote-r", "--c-perc", "0.5,inf"], ["impsamp-r", "--c-perc", "2,nan"])
      for p in each_relevance(*argv)),
]


@pytest.mark.parametrize("path, text", [
    *(pytest.param(*p.values, "percentage for class 'b' must be finite", id=p.id)
      for p in NOT_FINITE),
    *(pytest.param(*p.values, "percentages must be finite", id=p.id) for p in NOT_FINITE_BUMPS),
])
def test_a_percentage_that_is_not_finite_is_refused_in_one_text(path, text, tmp_path, capsys):
    assert refusal(path, tmp_path, capsys) == text


EUCLIDEAN = Metric("euclidean")
UNKNOWN_CLASS = [
    # a class list (--cl)
    lib(lambda: tomek_classif(CLASSES, EUCLIDEAN, cl=["a", "z"]), "tomek_classif"),
    lib(lambda: cnn_classif(CLASSES, EUCLIDEAN, cl="z"), "cnn_classif"),
    cli("tomek", "--cl", "a,z"),
    cli("ncl", "--cl", "z"),
    # the classes given percentages (--c-perc)
    lib(lambda: rand_under_classif(CLASSES, ClassPercSpec.explicit({"z": 0.5})),
        "rand_under_classif"),
    lib(lambda: imp_samp_classif(CLASSES, ClassPercSpec.explicit({"a": 1.0, "z": 2.0})),
        "imp_samp_classif"),
    cli("randunder", "--c-perc", "z=0.5"),
    cli("randover", "--c-perc", "a=2,z=3"),
]


@pytest.mark.parametrize("path", UNKNOWN_CLASS)
def test_a_class_the_data_does_not_hold_is_refused_in_one_text(path, tmp_path, capsys):
    assert refusal(path, tmp_path, capsys) == "unknown classes: ['z']"


BOTH_MODES = [
    lib(lambda: imp_samp_regress(NUM, RAMP, ImpSampParams(thr_rel=0.9, u=0.5, o=1.0)),
        "thr_rel with u and o"),
    lib(lambda: imp_samp_regress(NUM, RAMP, ImpSampParams(spec=BumpPercSpec.balance(), u=0.5,
                                                          o=1.0)), "spec with u and o"),
    lib(lambda: imp_samp_regress(NUM, RAMP, ImpSampParams()), "neither"),
    # --thr-rel and --c-perc reach the strategy beside --u/--o
    *each_relevance("impsamp-r", "--u", "0.5", "--o", "1", "--thr-rel", "0.9"),
    *each_relevance("impsamp-r", "--u", "0.5", "--o", "1", "--c-perc", "balance"),
    *each_relevance("impsamp-r", "--o", "1", "--thr-rel", "0.5"),
]


@pytest.mark.parametrize("path", BOTH_MODES)
def test_options_of_both_importance_sampling_modes_are_refused_in_one_text(path, tmp_path,
                                                                          capsys):
    assert refusal(path, tmp_path, capsys) == (
        "give either thr_rel with a bump spec (mode A) or u and o (mode B)")


P_WITHOUT_MINKOWSKY = [
    lib(lambda: Metric("heom", p=0.5), "Metric"),
    cli("tomek", "--dist", "heom", "--p", "0.5"),
    *each_relevance("smote-r", "--dist", "heom", "--p", "0.5"),
]


@pytest.mark.parametrize("path", P_WITHOUT_MINKOWSKY)
def test_a_p_without_minkowsky_is_refused_in_one_text(path, tmp_path, capsys):
    # a given --p reaches Metric under every metric
    assert refusal(path, tmp_path, capsys) == "the heom distance takes no p"


def test_minkowsky_without_p_is_minkowsky_with_p_2(tmp_path):
    src = tmp_path / "imbr.csv"
    assert run(["gen", "imbr", "--rows", "200", "--out", str(src)]) == 0
    outs = [tmp_path / "default.csv", tmp_path / "p2.csv"]
    for out, p in zip(outs, ([], ["--p", "2"])):
        assert run(["smote-r", "--in", str(src), "--out", str(out), "--target", "Tgt",
                    "--dist", "minkowsky", *p]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_a_class_given_two_percentages_is_a_usage_error(tmp_path, capsys):
    # neither percentage silently wins; the parser refuses before any read
    out = tmp_path / "o.csv"
    assert run(["randunder", "--in", "i.csv", "--out", str(out), "--target", "cls",
                "--c-perc", "a=0.5,a=0.1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "rebalance randunder: error: argument --c-perc: "
        "class 'a' is given more than one percentage")
    assert not out.exists()
