"""An in-process fuzz of ``cli.run``.

The input files are generated bytes: CSV text with ragged rows, stray
quotes, a byte-order mark, duplicate or empty header names, bare CRs
and bytes that are not UTF-8, empty files, and raw bytes.  The options
are drawn from good and bad values of each subcommand's own options.
Whatever the run, it must exit 0, 1 or 2, raise no exception and let
no Python or numpy warning out.  Exit 0 writes the CSV and the report,
and prints only the strategy's warnings, as the report lists them.
A column that reads as numeric from the input reads as numeric from
the output too.  Exit 1 prints one ``error:`` line and exit 2
argparse's usage and error lines.  Either leaves the directory as it
was: no ``--out``, no ``--report`` and no new file beside them.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rebalance import ColumnKind, read_dataset
from rebalance.cli import COMMANDS, run

NAMES = st.sampled_from(["x", "g", "t", "t", "", "ä", 'q"', " t"])
# plain cells, and cells that are odd as numbers or break a record
PLAIN = st.sampled_from(["", "0", "1", "2", "-2.5", "3e2", "-0.0", "a", "b", "c"])
ODD = st.sampled_from(["1e999", "nan", "inf", "ä", " 1", "١", "a,b", '"q"', '"', 'x"y', "\r"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def one_in(n):
    """True one time in ``n``."""
    return st.sampled_from([False] * (n - 1) + [True])

# option -> (good values, bad values) to draw; a flag draws whether it
# is given
VALUES = {
    "c_perc": (["balance", "extreme", "a=2", "b=0.5", "a=0.5,b=1.5"],
               ["x", "a=", "=1", "a=nan", "a=-1", "a=inf", "0.5,2"]),
    "c_perc_r": (["balance", "extreme", "0.5,2", "1", "2,0.5,1"], ["a=2", "x", "nan", "-1"]),
    "thr_rel": (["0", "0.5", "0.9", "1"], ["2", "-1", "nan", "x"]),
    "dist": (["euclidean", "manhattan", "chebyshev", "canberra", "minkowsky", "overlap",
              "heom", "hvdm"], ["bogus"]),
    "p": (["1", "2", "0.5"], ["0", "-1", "nan", "inf", "x"]),
    "cl": (["all", "smaller", "a", "b", "a,b"], ["zz", ",", ""]),
    "rem": (["both", "maj"], ["x"]),
    "start": (["cnn", "tomek"], ["x"]),
    "k": (["1", "2", "3"], ["0", "-1", "50", "x"]),
    "pert": (["0", "0.1", "1"], ["-1", "nan", "inf"]),
    "u": (["0", "0.5", "1"], ["2", "-1", "nan"]),
    "o": (["0", "0.5", "2"], ["-1", "nan", "inf"]),
    "seed": (["0", "7"], ["-1", "x", "1e3"]),
    "rel": (["auto", "auto:high", "auto:low", "auto:both"], ["bogus"]),
    # the huge counts need more bytes than any 57-bit address space
    "rows": (["1", "2", "3", "9"],
             ["-1", "0", "x", "100000000000000000", "100000000000000000000"]),
}


@st.composite
def csv_bytes(draw):
    """The bytes of an input file: mostly a table with a "t" column,
    now and then raw bytes."""
    if draw(one_in(10)):
        return draw(st.binary(max_size=40))
    header = draw(st.lists(NAMES, max_size=4, unique=not draw(one_in(8))))
    if "t" not in header and not draw(one_in(4)):
        header.insert(draw(st.integers(0, len(header))), "t")
    width = st.integers(0, 5) if draw(one_in(6)) else st.just(len(header))
    cells = one_in(10).flatmap(lambda odd: ODD if odd else PLAIN)
    rows = draw(st.lists(width.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w)),
                         max_size=12))
    ending = draw(ENDINGS)
    text = ending.join(",".join(r) for r in [header, *rows] if header or rows)
    text = "\ufeff" * draw(one_in(5)) + text + ending * draw(st.booleans())
    data = text.encode("utf-8")
    if data and draw(one_in(6)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\x00"])) + data[at:]
    return data


@st.composite
def options(draw):
    """A subcommand and the options after ``--in``, ``--out`` and
    ``--report``: each left out, or given a good value or, one time in
    eight, a bad one; now and then an unknown option."""
    name = draw(st.sampled_from([*COMMANDS, "gen"]))
    if name == "gen":
        argv = [name, draw(st.sampled_from(["imbc", "imbr", "imbc", "imbr", "x"]))]
        opts = ["rows", "seed"]
    else:
        argv = [name]
        if not draw(one_in(20)):
            argv += ["--target", draw(NAMES) if draw(one_in(8)) else "t"]
        opts = [*COMMANDS[name].options, "seed"]
        opts += ["rel"] * COMMANDS[name].regress + ["p"] * ("dist" in opts)
    for opt in opts:
        flag = "--" + opt.replace("_", "-")
        if opt == "repl":
            argv += [flag] * draw(st.booleans())
        elif draw(st.booleans()):
            good, bad = VALUES[opt + "_r" * (opt == "c_perc" and COMMANDS[name].regress)]
            argv += [flag, draw(st.sampled_from(bad if draw(one_in(8)) else good))]
    return argv + ["--bogus"] * draw(one_in(20))


def numeric_columns(path, target):
    """The names of the numeric columns of the CSV file at ``path``."""
    ds = read_dataset(path, target=target)
    return {c.name for c in ds.columns if c.kind is ColumnKind.NUMERIC}


def run_in(tmp, data, argv):
    """Run ``argv`` on an input file holding ``data`` in ``tmp``, with
    every warning made an error; the exit code and stderr."""
    inp, out, report = (str(Path(tmp) / name) for name in ("in.csv", "out.csv", "report.json"))
    Path(inp).write_bytes(data)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run([*argv, *(["--in", inp] if argv[0] != "gen" else []),
                    "--out", out, "--report", report])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=csv_bytes(), argv=options())
@example(data=b"", argv=["tomek", "--target", "t"])
@example(data="\ufefft,x\na,1\nb,2\n".encode(), argv=["randover", "--target", "t"])
@example(data=b"t,t\na,b\n", argv=["randunder", "--target", "t"])
@example(data=b't,x\na,"1\nb,2\n', argv=["enn", "--target", "t", "--k", "1"])
@example(data=b"t,x\na,1\nb\xff,2\n", argv=["ncl", "--target", "t"])
# an infinite target: numpy's percentile warned
@example(data=b"x,g,t\n,,1\n,,1e999", argv=["randunder-r", "--target", "t"])
# an sd that is NaN: numpy warned, and the noisy rows were blank
@example(data=b"x,t\n1e999,a\n1,a\n2,a\n4,b\n",
         argv=["gaussnoise", "--target", "t", "--c-perc", "a=2", "--seed", "1"])
# an infinite cell was written as "inf", which reads back as a label
@example(data=b"x,t\n1e999,a\n2,b\n", argv=["randover", "--target", "t"])
def test_cli_ends_in_an_exit_code_and_leaves_no_partial_output(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_in(tmp, data, argv)
        left = sorted(os.listdir(tmp))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        lines = err.splitlines()
        event(f"exit {code}")
        if code == 0:
            assert left == ["in.csv", "out.csv", "report.json"]
            report = json.loads((Path(tmp) / "report.json").read_text(encoding="utf-8"))
            # stderr holds the strategy's warnings, and nothing else
            assert lines == report.get("warnings", [])
            if argv[0] != "gen":
                # every numeric column reads back numeric
                target = argv[argv.index("--target") + 1]
                assert (numeric_columns(Path(tmp) / "in.csv", target)
                        <= numeric_columns(Path(tmp) / "out.csv", target))
            return
        assert left == ["in.csv"]
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert lines[0].startswith("usage: rebalance") and ": error: " in lines[-1]
