"""Golden corpus: pinned sha256 digests of neighbour-strategy output CSVs.

Every case runs one CLI subcommand on a fixed 1,000-row input and
compares the sha256 of the output CSV with ``golden.json``.  The inputs
are ``gen imbc`` and ``gen imbr`` at seed 0, plus a numeric-only copy
of ``gen imbr`` with a fixed pattern of blank ``X1``/``X2`` cells and a
nominal ``Class`` column (``ring`` for targets of 20 and above, else
``bulk``).  Under the euclidean distance a blank cell makes a distance
NaN, so that copy pins how each strategy orders NaN distances.

A change that means to alter output bytes re-records the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rebalance.cli import run
from rebalance.tabular import Column, ColumnKind, Dataset, write_dataset

from _toys import blanked_imbr

GOLDEN = Path(__file__).with_name("golden.json")
ROWS = 1000

TARGETS = {"imbc": "Class", "imbr": "Tgt", "imbr-nan": "Class"}


def _cases() -> dict[str, tuple[str, tuple[str, ...]]]:
    cases = {}
    for cmd in ("tomek", "cnn", "oss", "enn", "ncl", "smote"):
        for dist in ("heom", "hvdm"):
            cases[f"{cmd}-{dist}"] = ("imbc", (cmd, "--dist", dist))
        cases[f"{cmd}-euclidean-nan"] = ("imbr-nan", (cmd, "--dist", "euclidean"))
    for dist in ("euclidean", "heom"):
        cases[f"smote-r-{dist}"] = ("imbr", ("smote-r", "--dist", dist))
    return cases


CASES = _cases()


def _imbr_nan() -> Dataset:
    ds = blanked_imbr(ROWS)
    y = ds.column("Tgt").values
    label = np.where(y >= 20.0, "ring", "bulk").astype(object)
    return Dataset(
        [ds.column("X1"), ds.column("X2"),
         Column("Class", ColumnKind.NOMINAL, label)],
        target="Class",
    )


def write_inputs(workdir: Path) -> None:
    for variant in ("imbc", "imbr"):
        path = workdir / f"{variant}.csv"
        assert run(["gen", variant, "--rows", str(ROWS), "--seed", "0",
                    "--out", str(path)]) == 0
    write_dataset(_imbr_nan(), str(workdir / "imbr-nan.csv"))


def digest(name: str, workdir: Path) -> str:
    source, args = CASES[name]
    out = workdir / f"out-{name}.csv"
    code = run([*args, "--in", str(workdir / f"{source}.csv"),
                "--target", TARGETS[source], "--out", str(out), "--seed", "0"])
    assert code == 0, f"{name} exited {code}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("golden")
    write_inputs(workdir)
    return workdir


def test_corpus_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, inputs):
    expected = json.loads(GOLDEN.read_text())[name]
    assert digest(name, inputs) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        pinned = {name: digest(name, workdir) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {GOLDEN}", file=sys.stderr)
