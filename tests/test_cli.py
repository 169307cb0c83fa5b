import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rebalance.tabular as tabular
from rebalance import Column, ColumnKind, Dataset, class_counts, read_dataset, write_dataset
from rebalance.classif import ClassPercSpec
from rebalance.cli import COMMANDS, _build_parser, run
from rebalance.regress import BumpPercSpec
from rebalance.synthgen import gen_imbr

from _toys import blanked_imbr


@pytest.fixture()
def imbc_csv(tmp_path):
    path = tmp_path / "imbc.csv"
    assert run(["gen", "imbc", "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def imbr_csv(tmp_path):
    path = tmp_path / "imbr.csv"
    assert run(["gen", "imbr", "--seed", "1", "--out", str(path)]) == 0
    return path


def test_gen_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["gen", "imbc", "--seed", "4", "--out", str(a)]) == 0
    assert run(["gen", "imbc", "--seed", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_report(tmp_path):
    out = tmp_path / "g.csv"
    rep = tmp_path / "g.json"
    assert run(
        ["gen", "imbr", "--seed", "2", "--rows", "300",
         "--out", str(out), "--report", str(rep)]
    ) == 0
    payload = json.loads(rep.read_text())
    assert payload["command"] == "gen"
    assert payload["n_rows"] == 300
    assert payload["params"] == {"variant": "imbr", "rows": 300}


def test_randunder_balance_end_to_end(imbc_csv, tmp_path):
    out = tmp_path / "out.csv"
    rep = tmp_path / "rep.json"
    code = run(
        ["randunder", "--in", str(imbc_csv), "--out", str(out),
         "--target", "Class", "--c-perc", "balance", "--seed", "5",
         "--report", str(rep)]
    )
    assert code == 0
    ds = read_dataset(str(out), target="Class")
    counts = dict(class_counts(ds))
    assert len(set(counts.values())) == 1  # balanced
    payload = json.loads(rep.read_text())
    assert payload["class_counts_after"] == counts
    assert payload["n_rows_after"] == ds.n_rows
    assert payload["seed"] == 5


def test_explicit_c_perc_parsing(imbc_csv, tmp_path):
    out = tmp_path / "out.csv"
    code = run(
        ["randover", "--in", str(imbc_csv), "--out", str(out),
         "--target", "Class", "--c-perc", "rare1=5", "--seed", "3"]
    )
    assert code == 0
    before = dict(class_counts(read_dataset(str(imbc_csv), target="Class")))
    after = dict(class_counts(read_dataset(str(out), target="Class")))
    assert after["rare1"] == 5 * before["rare1"]
    assert after["normal"] == before["normal"]


def test_same_seed_byte_identical(imbc_csv, tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert run(
            ["smote", "--in", str(imbc_csv), "--out", str(out),
             "--target", "Class", "--dist", "heom", "--c-perc", "balance",
             "--seed", "7"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_report_deterministic_modulo_walltime(imbc_csv, tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        rep = tmp_path / name
        assert run(
            ["impsamp", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
             "--target", "Class", "--c-perc", "extreme", "--seed", "2",
             "--report", str(rep)]
        ) == 0
        payload = json.loads(rep.read_text())
        payload.pop("elapsed_seconds")
        reports.append(payload)
    assert reports[0] == reports[1]


def test_warning_passes_through_to_stderr(tmp_path, capsys):
    src = tmp_path / "sep.csv"
    rows = ["x,cls"] + [f"{i},a" for i in range(4)] + [f"{i+50},b" for i in range(4)]
    src.write_text("\n".join(rows) + "\n")
    code = run(
        ["tomek", "--in", str(src), "--out", str(tmp_path / "o.csv"),
         "--target", "cls", "--seed", "0"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "TomekClassif found no examples to remove!" in err


def test_warnings_recorded_in_report(tmp_path):
    src = tmp_path / "sep.csv"
    rows = ["x,cls"] + [f"{i},a" for i in range(4)] + [f"{i+50},b" for i in range(4)]
    src.write_text("\n".join(rows) + "\n")
    rep = tmp_path / "r.json"
    run(
        ["tomek", "--in", str(src), "--out", str(tmp_path / "o.csv"),
         "--target", "cls", "--seed", "0", "--report", str(rep)]
    )
    payload = json.loads(rep.read_text())
    assert payload["warnings"] == ["TomekClassif found no examples to remove!"]


def test_regression_bumps_in_report(imbr_csv, tmp_path):
    rep = tmp_path / "r.json"
    out = tmp_path / "o.csv"
    code = run(
        ["randunder-r", "--in", str(imbr_csv), "--out", str(out),
         "--target", "Tgt", "--thr-rel", "0.5", "--c-perc", "balance",
         "--seed", "1", "--report", str(rep)]
    )
    assert code == 0
    payload = json.loads(rep.read_text())
    before = payload["bumps_before"]
    after = payload["bumps_after"]
    assert sum(b["count"] for b in before) == 1000
    assert sum(b["count"] for b in after) == payload["n_rows_after"]
    rare_before = [b["count"] for b in before if b["rare"]]
    rare_after = [b["count"] for b in after if b["rare"]]
    assert rare_before == rare_after  # under-sampling spares rare bumps


def test_rel_points_file(imbr_csv, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("10,0,0\n20,1,0\n")
    out = tmp_path / "o.csv"
    code = run(
        ["randover-r", "--in", str(imbr_csv), "--out", str(out),
         "--target", "Tgt", "--rel-points", str(pts), "--thr-rel", "0.5",
         "--c-perc", "2.0", "--seed", "1"]
    )
    assert code == 0
    ds = read_dataset(str(out), target="Tgt")
    assert ds.n_rows > 1000


def test_rel_points_bad_file(imbr_csv, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("10,zero\n")
    code = run(
        ["randover-r", "--in", str(imbr_csv), "--out", str(tmp_path / "o.csv"),
         "--target", "Tgt", "--rel-points", str(pts), "--seed", "1"]
    )
    assert code == 1


def test_impsamp_r_mode_b(imbr_csv, tmp_path):
    out = tmp_path / "o.csv"
    code = run(
        ["impsamp-r", "--in", str(imbr_csv), "--out", str(out),
         "--target", "Tgt", "--u", "0.8", "--o", "0.5", "--seed", "3"]
    )
    assert code == 0
    assert read_dataset(str(out), target="Tgt").n_rows > 0


def test_impsamp_r_conflicting_modes(imbr_csv, tmp_path):
    code = run(
        ["impsamp-r", "--in", str(imbr_csv), "--out", str(tmp_path / "o.csv"),
         "--target", "Tgt", "--u", "0.8", "--o", "0.5",
         "--c-perc", "balance", "--seed", "3"]
    )
    assert code == 1


def test_missing_input_file_is_a_data_error(tmp_path):
    code = run(
        ["randunder", "--in", str(tmp_path / "absent.csv"),
         "--out", str(tmp_path / "o.csv"), "--target", "cls"]
    )
    assert code == 1


def test_unknown_class_in_c_perc_is_a_data_error(imbc_csv, tmp_path):
    code = run(
        ["randunder", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
         "--target", "Class", "--c-perc", "ghost=0.5", "--seed", "1"]
    )
    assert code == 1


def test_usage_errors_exit_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["randunder", "--bogus-flag"]) == 2
    assert run([]) == 2
    capsys.readouterr()  # swallow usage text


SUBCOMMANDS = [*COMMANDS, "gen"]

# each subcommand's parsed defaults, as a parser holding every
# subcommand's options gave them
_FILES = {"input": "i.csv", "output": "o.csv", "target": "t", "seed": 0, "report": None}
_DIST = {"dist": "euclidean", "p": 2.0}
_REL = {"rel": "both", "rel_points": None, "thr_rel": 0.5}
_CLASS, _BUMP = ClassPercSpec.balance(), BumpPercSpec.balance()
DEFAULTS = {
    "randunder": {**_FILES, "c_perc": _CLASS, "repl": False},
    "randover": {**_FILES, "c_perc": _CLASS},
    "impsamp": {**_FILES, "c_perc": _CLASS},
    "tomek": {**_FILES, **_DIST, "cl": "all", "rem": "both"},
    "cnn": {**_FILES, **_DIST, "cl": "smaller"},
    "oss": {**_FILES, **_DIST, "cl": "smaller", "start": "cnn"},
    "enn": {**_FILES, **_DIST, "cl": "all", "k": 3},
    "ncl": {**_FILES, **_DIST, "cl": "smaller", "k": 3},
    "gaussnoise": {**_FILES, "c_perc": _CLASS, "pert": 0.1, "repl": False},
    "smote": {**_FILES, **_DIST, "c_perc": _CLASS, "k": 5, "repl": False},
    "randunder-r": {**_FILES, **_REL, "c_perc": _BUMP, "repl": False},
    "randover-r": {**_FILES, **_REL, "c_perc": _BUMP},
    "gaussnoise-r": {**_FILES, **_REL, "c_perc": _BUMP, "pert": 0.1, "repl": False},
    "smote-r": {**_FILES, **_REL, **_DIST, "c_perc": _BUMP, "k": 5, "repl": False},
    "impsamp-r": {**_FILES, **_REL, "c_perc": None, "u": None, "o": None},
    "gen": {"variant": "imbc", "rows": 1000, "seed": 0, "output": "o.csv", "report": None},
}


def test_top_level_help_lists_every_subcommand(capsys):
    assert run(["--help"]) == 0
    listed = re.findall(r"^    (\S+)  ", capsys.readouterr().out, re.M)
    assert listed == SUBCOMMANDS


@pytest.mark.parametrize("argv", [[], ["nope"]], ids=["empty", "unknown"])
def test_usage_error_lists_every_subcommand(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert re.search(r"^usage: rebalance \[-h\]\s+\{([^}]*)\}", err)[1].split(",") == SUBCOMMANDS
    if argv:
        choices = re.search(r"invalid choice: 'nope' \(choose from (.*)\)", err)[1]
        assert re.findall(r"'([^']*)'", choices) == SUBCOMMANDS


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_lists_its_options(name, capsys):
    assert run([name, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    dests = set(DEFAULTS[name]) - {"variant"}
    want = {"--" + {"input": "in", "output": "out"}.get(d, d).replace("_", "-") for d in dests}
    assert flags == want | {"--help"}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_defaults_parse_as_with_every_subcommands_options(name):
    argv = (["gen", "imbc", "--out", "o.csv"] if name == "gen"
            else [name, "--in", "i.csv", "--out", "o.csv", "--target", "t"])
    assert vars(_build_parser(argv).parse_args(argv)) == {"command": name, **DEFAULTS[name]}


def test_malformed_c_perc_exits_two(imbc_csv, tmp_path, capsys):
    code = run(
        ["randunder", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
         "--target", "Class", "--c-perc", "rare1:0.5"]
    )
    assert code == 2
    capsys.readouterr()


def test_nominal_feature_with_default_distance_fails(imbc_csv, tmp_path, capsys):
    # ImbC has a nominal feature; euclidean smote must refuse it
    code = run(
        ["smote", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
         "--target", "Class", "--c-perc", "balance", "--seed", "1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "not possible to use with nominal features" in err


def test_minkowsky_requires_p(imbc_csv, tmp_path):
    src = tmp_path / "num.csv"
    run(["gen", "imbr", "--seed", "0", "--out", str(src)])
    out = tmp_path / "o.csv"
    code = run(
        ["smote-r", "--in", str(src), "--out", str(out), "--target", "Tgt",
         "--dist", "minkowsky", "--p", "3", "--seed", "2"]
    )
    assert code == 0


def test_oss_report_lists_class_roles(imbc_csv, tmp_path):
    rep = tmp_path / "r.json"
    code = run(
        ["oss", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
         "--target", "Class", "--dist", "heom", "--seed", "1",
         "--report", str(rep)]
    )
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["important_classes"] == ["rare1", "rare2"]
    assert payload["unimportant_classes"] == ["normal"]


@pytest.mark.parametrize("args", [
    ("gaussnoise", "--pert", "nan"),
    ("gaussnoise-r", "--pert", "inf"),
    ("randover-r", "--c-perc", "nan"),
    ("randover", "--c-perc", "rare2=nan"),
    ("smote", "--dist", "heom", "--c-perc", "rare2=inf"),
    ("smote-r", "--c-perc", "0.5,inf"),
    ("impsamp-r", "--u", "0.5", "--o", "nan"),
    # files that are not UTF-8 text
    ("randunder", "--in", "NOT_UTF8"),
    ("randover-r", "--rel-points", "NOT_UTF8"),
    # the Rare bump must lose 2 rows and only 1 has relevance below 1
    ("impsamp-r", "--in", "FEW_ROWS", "--target", "y", "--rel-points", "REL_POINTS",
     "--thr-rel", "0.3"),
    # a field longer than the csv module reads
    ("randunder", "--in", "LONG_FIELD", "--target", "b"),
])
def test_non_finite_numbers_are_data_errors(imbc_csv, imbr_csv, tmp_path, capsys, args):
    src, target = (imbr_csv, "Tgt") if args[0].endswith("-r") else (imbc_csv, "Class")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"X1,X2,Class\n1,\xff,normal\n")
    few = tmp_path / "few.csv"
    few.write_text("x,y\n1,0\n2,0\n3,1.5\n4,2\n5,2\n")
    points = tmp_path / "points.csv"
    points.write_text("0,0\n0.5,0\n1,0\n2,1\n")
    long = tmp_path / "long.csv"
    long.write_text("a,b\n1," + "x" * 200_000 + "\n")
    files = {"NOT_UTF8": bad, "FEW_ROWS": few, "REL_POINTS": points, "LONG_FIELD": long}
    args = [str(files[a]) if a in files else a for a in args]
    out = tmp_path / "o.csv"
    # a later --in replaces the default one
    code = run([args[0], "--in", str(src), "--out", str(out), "--target", target, *args[1:]])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("randunder", "--in", "i.csv", "--out", "o.csv", "--target", "Class"),
    ("smote-r", "--in", "i.csv", "--out", "o.csv", "--target", "Tgt"),
    ("gen", "imbc", "--out", "o.csv"),
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, args):
    args = [str(tmp_path / a) if a.endswith(".csv") else a for a in args]
    assert run([*args, "--seed", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith("argument --seed: bad seed '-1'; expected a non-negative integer")
    assert not (tmp_path / "o.csv").exists()


def test_close_relevance_points_print_one_error_line(tmp_path):
    # the cubic between points 1e-300 apart overflowed outside them, and
    # numpy's warnings went to stderr ahead of the error
    src, pts = tmp_path / "imbr.csv", tmp_path / "pts.csv"
    assert run(["gen", "imbr", "--rows", "50", "--out", str(src)]) == 0
    pts.write_text("0,0,0\n1e-300,1,0\n")
    proc = _python_m(["rebalance", "randover-r", "--in", str(src), "--out",
                      str(tmp_path / "o.csv"), "--target", "Tgt", "--rel-points", str(pts)])
    assert proc.returncode == 1
    assert proc.stderr == "error: no bump below the relevance threshold\n"


def test_gen_zero_rows_is_a_data_error(tmp_path, capsys):
    assert run(["gen", "imbc", "--rows", "0", "--out", str(tmp_path / "g.csv")]) == 1
    assert capsys.readouterr().err == "error: n_rows must be positive\n"


@pytest.mark.parametrize("args", [["smote"], ["randover-r"]])
def test_header_without_rows_is_a_data_error(args, tmp_path, capsys):
    # the empty target column would read as numeric, and each strategy
    # then blamed the target's kind
    src, out = tmp_path / "empty.csv", tmp_path / "o.csv"
    src.write_text("X1,X2,y\n", encoding="utf-8")
    assert run([*args, "--in", str(src), "--out", str(out), "--target", "y"]) == 1
    assert capsys.readouterr().err == f"error: {src} has a header but no data rows\n"
    assert not out.exists()


def test_smote_r_on_a_nominal_target_is_a_data_error(imbc_csv, tmp_path, capsys):
    code = run(["smote-r", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
                "--target", "Class"])
    assert code == 1
    assert capsys.readouterr().err == "error: target values must be present and numeric\n"


def one_error_line(capsys) -> str:
    """The one line the CLI printed to stderr, an ``error:`` line."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_smote_r_names_the_blank_column_before_any_search(tmp_path, capsys):
    # under euclidean a blank feature cell has no distance; the error
    # must name the column and --dist heom, not blame the target
    src, out = tmp_path / "blank.csv", tmp_path / "o.csv"
    write_dataset(blanked_imbr(), str(src))
    code = run(["smote-r", "--dist", "euclidean", "--in", str(src),
                "--out", str(out), "--target", "Tgt"])
    assert code == 1
    err = one_error_line(capsys)
    assert err.startswith("error: column 'X1' has a missing cell")
    assert "euclidean" in err and "--dist heom" in err
    assert not out.exists()


def test_smote_r_names_distances_that_overflow(tmp_path, capsys):
    # finite cells 1e200 apart square to inf under euclidean: a synthetic
    # row between two of them is infinitely far from both its parents,
    # and its inverse-distance weighted target is inf / inf
    ds = gen_imbr(200, seed=0)
    y = ds.column("Tgt").values
    x1 = ds.column("X1").values.copy()
    rare = np.flatnonzero(y >= 20.0)
    x1[rare] = np.resize([0.0, 1e200, -1e200, 2e200], len(rare))
    src, out = tmp_path / "huge.csv", tmp_path / "o.csv"
    write_dataset(Dataset([Column("X1", ColumnKind.NUMERIC, x1), ds.column("X2"),
                           ds.column("Tgt")], target="Tgt"), str(src))
    code = run(["smote-r", "--dist", "euclidean", "--in", str(src),
                "--out", str(out), "--target", "Tgt"])
    assert code == 1
    err = one_error_line(capsys)
    assert "NaN" in err and "overflow" in err and "--dist heom" in err
    assert not out.exists()


def mixed_table(tmp_path, cells, names=("X1", "X2", "Tgt")):
    """The ``names`` columns of ``gen imbr`` at 200 rows plus a nominal
    Class column (``ring`` for targets of 20 and above), as a CSV file
    whose data row i, column j holds the text ``cells[i, j]``."""
    ds = gen_imbr(200, seed=0)
    label = np.where(ds.column("Tgt").values >= 20.0, "ring", "bulk").astype(object)
    path = tmp_path / "mixed.csv"
    write_dataset(Dataset([*map(ds.column, names), Column("Class", ColumnKind.NOMINAL, label)],
                          target="Class"), str(path))
    lines = path.read_text().splitlines()
    for (i, j), text in cells.items():
        row = lines[i + 1].split(",")
        row[j] = text
        lines[i + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    return path


NEIGHBOUR_COMMANDS = ("tomek", "cnn", "oss", "enn", "ncl", "smote", "smote-r")


@pytest.mark.parametrize("cmd", NEIGHBOUR_COMMANDS)
def test_infinite_cell_is_a_data_error_under_heom(cmd, tmp_path, capsys):
    # 1e999 reads as inf, and inf - inf has no distance under any metric
    src, out = mixed_table(tmp_path, {(7, 1): "1e999"}), tmp_path / "o.csv"
    target = "Tgt" if cmd == "smote-r" else "Class"
    code = run([cmd, "--dist", "heom", "--in", str(src), "--out", str(out),
                "--target", target])
    assert code == 1
    err = one_error_line(capsys)
    assert err.startswith("error: column 'X2' has an infinite cell")
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_hvdm_four_sd_that_overflows_is_a_data_error(tmp_path, capsys):
    # X1's span is finite, but its sd overflows: HVDM would ignore X1
    src, out = tmp_path / "huge.csv", tmp_path / "o.csv"
    src.write_text("X1,X2,Class\n1e200,0,p\n-1e200,1,q\n1e200,2,q\n-1e200,3,p\n")
    code = run(["tomek", "--dist", "hvdm", "--in", str(src), "--out", str(out),
                "--target", "Class"])
    assert code == 1
    err = one_error_line(capsys)
    assert err == ("error: column 'X1' has an infinite cell, or cells so far apart that "
                   "their spread overflows")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["tomek", "enn"])
def test_distances_that_overflow_print_no_warning(cmd, tmp_path):
    # cells of +-1e200 are finite and span a finite range, but their
    # squared differences overflow to inf: an inf distance orders like
    # any number, and numpy must not report the overflow on stderr;
    # without Tgt as a feature, the classes overlap and both strategies
    # find rows to drop, so they print no warning of their own
    huge = {(3, 0): "1e200", (50, 0): "-1e200", (97, 0): "1e200"}
    src, out = mixed_table(tmp_path, huge, names=("X1", "X2")), tmp_path / "o.csv"
    proc = _python_m(["rebalance", cmd, "--in", str(src), "--out", str(out),
                      "--target", "Class"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert out.exists()


def _python_m(args, text=True, stdin=None):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args], env=env, input=stdin,
                          capture_output=True, text=text, timeout=60)


@pytest.mark.parametrize("module", ["rebalance", "rebalance.cli"])
def test_python_m_entry_points(module):
    proc = _python_m([module, "--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: rebalance ")


def test_large_output_to_dev_stdout(tmp_path):
    # over SPLIT_ROWS rows, so written by two processes where two CPUs
    # are free; the worker's bytes go through a temporary file
    rows = str(tabular.SPLIT_ROWS + 3)
    proc = _python_m(["rebalance", "gen", "imbr", "--rows", rows, "--out", "/dev/stdout"],
                     text=False)
    assert proc.returncode == 0 and proc.stderr == b""
    path = tmp_path / "g.csv"
    assert run(["gen", "imbr", "--rows", rows, "--out", str(path)]) == 0
    assert proc.stdout == path.read_bytes()


def test_large_input_from_a_pipe(tmp_path):
    # enough lines to split a regular file where two CPUs are free; a
    # pipe stays serial, since a scan for the split point would drain it
    path = tmp_path / "g.csv"
    assert run(["gen", "imbc", "--rows", str(2 * tabular.SPLIT_ROWS + 3), "--out", str(path)]) == 0
    args = ["randunder", "--out", "/dev/stdout", "--target", "Class"]
    proc = _python_m(["rebalance", *args, "--in", "/dev/stdin"], text=False,
                     stdin=path.read_bytes())
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == _python_m(["rebalance", *args, "--in", str(path)], text=False).stdout
