"""Golden corpus: pinned sha256 digests of every subcommand's output.

Every case runs one CLI subcommand on a fixed 1,000-row input and
compares the sha256 of the output CSV and of the ``--report`` JSON with
``golden.json``; an error case (``ERRORS``) must instead exit 1 with one
``error:`` line naming its column, and write nothing.  The report is hashed without its wall time and with
the working directory cut out of its paths, so the pin also guards the
recorded ``params``, counts, warnings and bumps.

The inputs are ``gen imbc`` and ``gen imbr`` at seed 0, plus three
copies:

- ``imbr-nan``: numeric-only ``gen imbr`` with a fixed pattern of blank
  ``X1``/``X2`` cells and a nominal ``Class`` column (``ring`` for
  targets of 20 and above, else ``bulk``).  The euclidean distance is
  not defined at a blank cell, so every neighbour strategy must refuse
  it, naming ``X1``, before any search: the error cases.
- ``imbc-solo``: ``gen imbc`` with row 0 relabelled ``solo``, a
  single-row class.
- ``imbc-swapped``: ``gen imbc`` with the nominal ``X2`` before the
  numeric ``X1``, which pins that synthesis draws column by column.
- ``imbr`` with ``rel-solo.csv``: relevance points that make the single
  largest target the only row at relevance 1, so ``--thr-rel 1`` gives
  a single-row Rare bump.

Every case runs a second time as on a host with two free CPUs and
with ``SPLIT_ROWS`` cut to 4, so that two processes read each input and
two write each output, and must give the same outcome.

A change that means to alter output bytes re-records the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rebalance.tabular as tabular
from rebalance.cli import run
from rebalance.synthgen import gen_imbc
from rebalance.tabular import Column, ColumnKind, Dataset, write_dataset

from _toys import blanked_imbr, two_cpus

GOLDEN = Path(__file__).with_name("golden.json")
ROWS = 1000

TARGETS = {"imbc": "Class", "imbr": "Tgt", "imbr-nan": "Class", "imbc-solo": "Class",
           "imbc-swapped": "Class"}
# the two largest gen imbr targets at 1,000 rows and seed 0 are
# 23.120 and 23.375: only the largest reaches relevance 1
REL_SOLO = "23.2,0,0\n23.3,1,0\n"
SOLO_BUMP = ("--rel-points", "{work}/rel-solo.csv", "--thr-rel", "1")


NEIGHBOUR_COMMANDS = ("tomek", "cnn", "oss", "enn", "ncl", "smote")


def _cases() -> dict[str, tuple[str, tuple[str, ...]]]:
    cases = {}
    for cmd in NEIGHBOUR_COMMANDS:
        for dist in ("heom", "hvdm"):
            cases[f"{cmd}-{dist}"] = ("imbc", (cmd, "--dist", dist))
    for dist in ("euclidean", "heom"):
        cases[f"smote-r-{dist}"] = ("imbr", ("smote-r", "--dist", dist))
    imbc = {
        "randunder": ("randunder",),
        "randunder-extreme-repl": ("randunder", "--c-perc", "extreme", "--repl"),
        "randover": ("randover",),
        "randover-explicit": ("randover", "--c-perc", "rare1=2.5,rare2=1.5"),
        "impsamp": ("impsamp",),
        "impsamp-extreme": ("impsamp", "--c-perc", "extreme"),
        "impsamp-mixed": ("impsamp", "--c-perc", "normal=0.5,rare1=4"),
        "gaussnoise": ("gaussnoise",),
        "gaussnoise-pert0": ("gaussnoise", "--pert", "0"),
        "gaussnoise-mixed-repl": (
            "gaussnoise", "--c-perc", "normal=0.5,rare2=3", "--repl"),
        "smote-heom-extreme": ("smote", "--dist", "heom", "--c-perc", "extreme"),
        "smote-heom-mixed": (
            "smote", "--dist", "heom", "--c-perc", "normal=0.5,rare1=3,rare2=2"),
        "smote-heom-repl": ("smote", "--dist", "heom", "--repl"),
    }
    imbr = {
        "randunder-r": ("randunder-r",),
        "randunder-r-extreme-repl": ("randunder-r", "--c-perc", "extreme", "--repl"),
        "randover-r": ("randover-r",),
        "randover-r-explicit": ("randover-r", "--c-perc", "1.5"),
        "gaussnoise-r": ("gaussnoise-r",),
        "gaussnoise-r-pert0": ("gaussnoise-r", "--pert", "0"),
        "gaussnoise-r-mixed-repl": ("gaussnoise-r", "--c-perc", "0.5,2", "--repl"),
        "impsamp-r-a": ("impsamp-r",),
        "impsamp-r-a-extreme": ("impsamp-r", "--c-perc", "extreme", "--thr-rel", "0.7"),
        "impsamp-r-b": ("impsamp-r", "--u", "0.5", "--o", "1.0"),
        "smote-r-euclidean-extreme": ("smote-r", "--c-perc", "extreme"),
        "smote-r-euclidean-mixed": ("smote-r", "--c-perc", "0.5,3", "--k", "3"),
        "smote-r-heom-repl": ("smote-r", "--dist", "heom", "--repl"),
        "gaussnoise-r-solo": ("gaussnoise-r", *SOLO_BUMP),
        "smote-r-solo": ("smote-r", *SOLO_BUMP),
    }
    cases.update((name, ("imbc", args)) for name, args in imbc.items())
    cases.update((name, ("imbr", args)) for name, args in imbr.items())
    cases["gaussnoise-solo"] = ("imbc-solo", ("gaussnoise",))
    cases["smote-heom-solo"] = ("imbc-solo", ("smote", "--dist", "heom"))
    cases["gaussnoise-swapped"] = ("imbc-swapped", ("gaussnoise",))
    cases["smote-heom-swapped"] = ("imbc-swapped", ("smote", "--dist", "heom"))
    return cases


CASES = _cases()
# cases that must fail: a blank cell under a plain metric
ERRORS = {f"{cmd}-euclidean-nan": ("imbr-nan", (cmd, "--dist", "euclidean"))
          for cmd in NEIGHBOUR_COMMANDS}
ALL_CASES = CASES | ERRORS


def _imbr_nan() -> Dataset:
    ds = blanked_imbr(ROWS)
    y = ds.column("Tgt").values
    label = np.where(y >= 20.0, "ring", "bulk").astype(object)
    return Dataset(
        [ds.column("X1"), ds.column("X2"),
         Column("Class", ColumnKind.NOMINAL, label)],
        target="Class",
    )


def _imbc_solo() -> Dataset:
    ds = gen_imbc(ROWS, seed=0)
    label = ds.column("Class").labels
    label[0] = "solo"
    return Dataset(
        [ds.column("X1"), ds.column("X2"), Column("Class", ColumnKind.NOMINAL, label)],
        target="Class",
    )


def _imbc_swapped() -> Dataset:
    ds = gen_imbc(ROWS, seed=0)
    return Dataset([ds.column("X2"), ds.column("X1"), ds.column("Class")], target="Class")


def write_inputs(workdir: Path) -> None:
    for variant in ("imbc", "imbr"):
        path = workdir / f"{variant}.csv"
        assert run(["gen", variant, "--rows", str(ROWS), "--seed", "0",
                    "--out", str(path)]) == 0
    write_dataset(_imbr_nan(), str(workdir / "imbr-nan.csv"))
    write_dataset(_imbc_solo(), str(workdir / "imbc-solo.csv"))
    write_dataset(_imbc_swapped(), str(workdir / "imbc-swapped.csv"))
    (workdir / "rel-solo.csv").write_text(REL_SOLO)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(name: str, workdir: Path) -> tuple[int, Path, Path]:
    """Run the case: its exit code, output path and report path."""
    source, args = ALL_CASES[name]
    out = workdir / f"out-{name}.csv"
    rep = workdir / f"report-{name}.json"
    code = run([*(a.format(work=workdir) for a in args),
                "--in", str(workdir / f"{source}.csv"), "--target", TARGETS[source],
                "--out", str(out), "--report", str(rep), "--seed", "0"])
    return code, out, rep


def digests(name: str, workdir: Path) -> tuple[str, str]:
    """sha256 of the case's output CSV and of its normalised report."""
    code, out, rep = _run(name, workdir)
    assert code == 0, f"{name} exited {code}"
    report = json.loads(rep.read_text())
    del report["elapsed_seconds"]
    text = json.dumps(report, sort_keys=True).replace(str(workdir), "")
    return _sha256(out.read_bytes()), _sha256(text.encode())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("golden")
    write_inputs(workdir)
    return workdir


def test_corpus_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["csv"]) == sorted(golden["report"]) == sorted(CASES)


def check_outcome(name: str, workdir: Path, capsys) -> None:
    """The case gives its pinned digests, or, for an error case, exit 1,
    one ``error:`` line naming X1 and no output."""
    if name not in ERRORS:
        golden = json.loads(GOLDEN.read_text())
        assert digests(name, workdir) == (golden["csv"][name], golden["report"][name])
        return
    capsys.readouterr()
    code, out, rep = _run(name, workdir)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: column 'X1' has a missing cell")
    assert not out.exists() and not rep.exists()


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_golden_digest(name, inputs, capsys):
    check_outcome(name, inputs, capsys)


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_golden_digest_on_two_cpus(name, inputs, capsys):
    # no read falls back to one process
    serial = mock.patch.object(tabular, "_read_serial",
                               side_effect=AssertionError("read by one process"))
    with mock.patch.object(tabular, "SPLIT_ROWS", 4), serial, two_cpus() as forks:
        check_outcome(name, inputs, capsys)
    # one fork to read the input, and one to write the output unless the
    # case is an error
    assert len(forks) == 1 + (name not in ERRORS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        pinned = {name: digests(name, workdir) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(
        {"csv": {n: d[0] for n, d in pinned.items()},
         "report": {n: d[1] for n, d in pinned.items()}},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} case digests to {GOLDEN}", file=sys.stderr)
