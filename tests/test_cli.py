import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rebalance import class_counts, read_dataset, write_dataset
from rebalance.cli import run

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
])
def test_non_finite_numbers_are_data_errors(imbc_csv, imbr_csv, tmp_path, capsys, args):
    src, target = (imbr_csv, "Tgt") if args[0].endswith("-r") else (imbc_csv, "Class")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"X1,X2,Class\n1,\xff,normal\n")
    args = [str(bad) if a == "NOT_UTF8" else a for a in args]
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


def test_smote_r_on_a_nominal_target_is_a_data_error(imbc_csv, tmp_path, capsys):
    code = run(["smote-r", "--in", str(imbc_csv), "--out", str(tmp_path / "o.csv"),
                "--target", "Class"])
    assert code == 1
    assert capsys.readouterr().err == "error: target values must be present and numeric\n"


def test_smote_r_names_nan_distances_from_blank_cells(tmp_path, capsys):
    # under euclidean a blank feature cell makes NaN distances, and so
    # NaN synthetic targets; the error must say so, not blame the target
    src, out = tmp_path / "blank.csv", tmp_path / "o.csv"
    write_dataset(blanked_imbr(), str(src))
    code = run(["smote-r", "--dist", "euclidean", "--in", str(src),
                "--out", str(out), "--target", "Tgt"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "NaN" in err[0] and "euclidean" in err[0] and "--dist heom" in err[0]
    assert "target column" not in err[0]
    assert not out.exists()


def _python_m(args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["rebalance", "rebalance.cli"])
def test_python_m_entry_points(module):
    proc = _python_m([module, "--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: rebalance ")
