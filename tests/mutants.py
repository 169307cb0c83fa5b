"""Named one-line mutants of the engine, the editing rules, the shrink/grow driver,
the relevance function, the regression strategies, the CSV layer and the CLI's
option parsers and output tail.

Run by hand from the repository root; pytest does not collect it:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant replaces one piece of code in ``src/rebalance``, found by
its text, which must occur exactly once.  For each, the script copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
applies the mutant there, runs its module's ``TESTS`` with ``-x`` and
prints ``killed`` (a test failed) or ``survived``, or for a survivor
listed as equivalent, ``equivalent: <reason>``.  The unmutated copy
must pass each set of tests first.  The working tree is never edited.
The script exits 1 if any other mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ENGINE_TESTS = ("tests/test_engine.py", "tests/test_kernel.py", "tests/test_rules.py",
                "tests/test_golden.py")
REGRESS_TESTS = ("tests/test_relevance.py", "tests/test_regress.py", "tests/test_outcomes.py",
                 "tests/test_golden.py", "tests/test_acceptance.py", "tests/test_added_rows.py",
                 "tests/test_refusals.py")
# the tests run against each mutated module
TESTS = {"distance.py": ENGINE_TESTS, "classif.py": ENGINE_TESTS,
         "relevance.py": REGRESS_TESTS, "regress.py": REGRESS_TESTS,
         "tabular.py": ("tests/test_csv.py", "tests/test_tabular.py"),
         "cli.py": ("tests/test_cli.py", "tests/test_golden.py", "tests/test_refusals.py")}
# a mutant that loops for ever is killed by the clock
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str    # file under src/rebalance
    code: str      # the text replaced, once in the module
    mutant: str    # what replaces it
    # why no test can tell the mutant from the code, if none can
    equivalent: str | None = None


MUTANTS = [
    Mutant("merge without the position key", "distance.py",
           "o = np.lexsort((p, d), axis=1)[:, :k]",
           "o = np.argsort(d, axis=1, kind=\"stable\")[:, :k]"),
    Mutant("np.maximum for np.fmax on the gaps", "distance.py",
           "np.fmax(gap, x_lo - hi, out=gap)",
           "np.maximum(gap, x_lo - hi, out=gap)",
           "a box's lo and hi are NaN together, so both gaps are, and the fmax with 0 "
           "that follows maps NaN to 0 under either function"),
    Mutant("no infinite self-distance", "distance.py",
           "block[hit, at[hit]] = np.inf",
           "pass"),
    # _k_nearest's tie rule for a row whose entries left are all inf
    Mutant("no earliest free column for a row of inf in _k_nearest", "distance.py",
           "c[stuck] = taken.argmin(axis=1)",
           "pass"),
    Mutant("no HEOM override for a missing code", "distance.py",
           "_override(hits, x < 0, y < 0, True)",
           "pass"),
    Mutant("first stage of k columns only", "distance.py",
           "want = np.maximum(touched + (2 * len(feats) - 1) * CHUNK_ROWS, k + self_pairs)",
           "want = np.full(g1 - g0, k + self_pairs)"),
    Mutant("\"left\" for \"right\" in the rest cutoff", "distance.py",
           "best_d[:, -1].max(), \"right\")",
           "best_d[:, -1].max(), \"left\")"),
    Mutant("< for <= in need", "distance.py",
           "need = (bound <= best_d[:, -1:]) & left",
           "need = (bound < best_d[:, -1:]) & left"),
    Mutant("no 1 - 2^-20 shrink of the bound", "distance.py",
           "bound *= 1.0 - 2.0**-20",
           "pass",
           "a guard: numpy's float ** was monotone on every run of adjacent doubles "
           "measured, but neither C nor numpy promises a monotone pow"),
    Mutant("Tomek link without the mutual test", "classif.py",
           "link = (nn[nn] == np.arange(ds.n_rows)) & (code != code[nn])",
           "link = code != code[nn]"),
    Mutant("k // 2 for ceil(k/2) in ENN", "classif.py",
           "marked = in_cl & (same < math.ceil(k / 2))",
           "marked = in_cl & (same < k // 2)"),
    Mutant("CNN's misclassified test on positions, not rows", "classif.py",
           "new = q[code[kept[pos]] != code[q]]",
           "new = q[code[pos] != code[q]]"),
    Mutant("every outside class takeable in NCL", "classif.py",
           "takeable = ~is_key & (sizes >= 0.5 * sizes[is_key].min())",
           "takeable = ~is_key"),
    Mutant("_outcome marks the replicas synthetic", "classif.py",
           "*(b is not None for _, b in added)",
           "*(b is None for _, b in added)"),
    Mutant("_outcome drops the blocks", "classif.py",
           "blocks = [b for _, b in added if b is not None]",
           "blocks = []"),
    Mutant("a one-row SMOTE group draws", "classif.py",
           "if len(idx) == 1:\n        seeds = np.repeat(idx, extra)",
           "if False:\n        seeds = np.repeat(idx, extra)"),
    Mutant("the driver never warns for a one-row group", "classif.py",
           "warnings.append(lone.format(key))",
           "pass"),
    Mutant("_outcome's removed lists the kept rows", "classif.py",
           "np.arange(ds.n_rows, dtype=dtype)[gone]",
           "np.arange(ds.n_rows, dtype=dtype)[~gone]"),
    Mutant("_outcome's extra copies where the kept rows differ", "classif.py",
           "kept[1:][kept[1:] == kept[:-1]]",
           "kept[1:][kept[1:] != kept[:-1]]"),
    Mutant("_outcome's extra copies among the replicas too", "classif.py",
           "kept = idx[:len(kept)]",
           "kept = idx"),
    Mutant("the 3x Fritsch-Carlson cap made 4x", "relevance.py",
           "cap = 3.0 * min(abs(s) for s in adjacent)",
           "cap = 4.0 * min(abs(s) for s in adjacent)"),
    Mutant("no zero slope at a sign change of the secants", "relevance.py",
           "if len(signs) > 1:",
           "if False:"),
    Mutant("an opposing user slope kept", "relevance.py",
           "if math.copysign(1.0, m[k]) not in signs:",
           "if False:"),
    Mutant("the upper fence at 2 IQR", "relevance.py",
           "q3 + 1.5 * iqr",
           "q3 + 2.0 * iqr"),
    Mutant("> for >= in the quartiles' lerp", "relevance.py",
           "if g >= 0.5 else",
           "if g > 0.5 else"),
    Mutant("a wrong Hermite basis term", "relevance.py",
           "m[seg] * h * (t3 - 2 * t2 + t)",
           "m[seg] * h * (t3 - t2 + t)"),
    Mutant("no clip to [0, 1]", "relevance.py",
           "np.clip(out, 0.0, 1.0, out=out)",
           "pass",
           "a guard: Fritsch and Carlson's alpha, beta <= 3 keeps each cubic monotone "
           "between its end values, which lie in [0, 1]; 12M evaluations over 3,000 "
           "random control sets found no value outside, but rounding might make one"),
    Mutant("> for >= in find_bumps", "relevance.py",
           "out=buf[:len(part)])) >= thr_rel",
           "out=buf[:len(part)])) > thr_rel"),
    Mutant("SMOTER's weights swapped", "regress.py",
           "(d2 * y1 + d1 * y2) / (d1 + d2)",
           "(d1 * y1 + d2 * y2) / (d1 + d2)"),
    Mutant("SMOTER's seed target at equal distances", "regress.py",
           "np.where(d1 + d2 == 0, (y1 + y2) / 2.0,",
           "np.where(d1 + d2 == 0, y1,"),
    Mutant("mode A's uniform shrink", "regress.py",
           "p = _proportional(1.0 - phi[idx])",
           "p = None"),
    Mutant("mode A's uniform grow", "regress.py",
           "p=_proportional(phi[idx])), None",
           "p=None), None"),
    Mutant("mode B ignores u", "regress.py",
           "< u * (1.0 - phi)",
           "< (1.0 - phi)"),
    Mutant("mode B's ceil for floor", "regress.py",
           "m = int(math.floor(o * total_phi))",
           "m = int(math.ceil(o * total_phi))"),
    Mutant("mode B's uniform seeds", "regress.py",
           "p=phi / total_phi)",
           "p=None)"),
    Mutant("_proportional never uniform", "regress.py",
           "return w / total if total > 0 else None",
           "return w / total"),
    Mutant("no '\"\"' for a one-column row's empty field", "tabular.py",
           'empty = _quote("", dialect) if ds.n_cols == 1 else ""',
           'empty = ""'),
    Mutant("categories left unquoted", "tabular.py",
           "_quote(v, dialect) if v else empty",
           "v if v else empty"),
    Mutant("inf for 1e999", "tabular.py",
           '"inf": "1e999", "-inf": "-1e999"',
           '"inf": "inf", "-inf": "-inf"'),
    Mutant("no quote check in _split_point", "tabular.py",
           "if (b'\"' in chunk or (cr and",
           "if ((cr and"),
    Mutant("no kind-flip check in _read_split", "tabular.py",
           "if backs is None or any(map(_ColumnReader.flips, columns, backs)):",
           "if backs is None:"),
    Mutant("flips always False", "tabular.py",
           "return (back.numeric and not self.numeric",
           "return False and (back.numeric and not self.numeric"),
    Mutant("the caller reads the back for a back column all empty", "tabular.py",
           "and not all(np.isnan(f).all() for f in back.floats))",
           "and True)"),
    Mutant("the caller reads the back of every split file", "tabular.py",
           "if backs is None or any(map(_ColumnReader.flips, columns, backs)):",
           "if True:"),
    Mutant("the caller always reads the back, the worker's columns dropped", "tabular.py",
           "backs = None if tmp is None else pickle.load(tmp)",
           "backs = None"),
    Mutant("a temporary file that cannot be made raises", "tabular.py",
           "        try:\n            tmp = stack.enter_context(tempfile.TemporaryFile())\n",
           "        tmp = stack.enter_context(tempfile.TemporaryFile())\n        try:\n"),
    Mutant("a failed worker's output joined", "tabular.py",
           "return None if status else tmp",
           "return tmp"),
    Mutant("no back read in this process after a failed worker", "tabular.py",
           "_read_records(reader, columns, lines + 1)",
           "pass"),
    Mutant("no back write in this process after a failed worker", "tabular.py",
           "_write_rows(ds, fh, start=mid, header=False)",
           "pass"),
    Mutant("no final + 1 in _split_row", "tabular.py",
           "int(np.searchsorted(rows, 0)) + 1",
           "int(np.searchsorted(rows, 0))"),
    Mutant("an empty class name taken in --c-perc", "cli.py",
           "if not sep or not name:",
           "if not sep:"),
    Mutant("a class given twice in --c-perc keeps the last percentage", "cli.py",
           "if name in percs:",
           "if False:"),
    Mutant("--c-perc extreme read as balance for classes", "cli.py",
           "return ClassPercSpec.extreme()",
           "return ClassPercSpec.balance()"),
    Mutant("--c-perc balance read as extreme for bumps", "cli.py",
           "return BumpPercSpec.balance()",
           "return BumpPercSpec.extreme()"),
    Mutant("an empty bump percentage skipped", "cli.py",
           'percs = [float(item) for item in text.split(",")]',
           'percs = [float(item) for item in text.split(",") if item]'),
    Mutant("relevance point lines counted from 0", "cli.py",
           "enumerate(rows, start=1)",
           "enumerate(rows, start=0)"),
    Mutant("a relevance point of four fields taken", "cli.py",
           "if len(row) not in (2, 3):",
           "if len(row) not in (2, 3, 4):"),
    Mutant("a blank line ends the relevance points", "cli.py",
           "if not row:\n            continue",
           "if not row:\n            break"),
    Mutant("a byte-order mark read as part of the relevance points", "cli.py",
           'with open(path, "r", encoding="utf-8-sig", newline="") as fh:',
           'with open(path, "r", encoding="utf-8", newline="") as fh:'),
    Mutant("relevance points that are not UTF-8 end in a traceback", "cli.py",
           "except UnicodeDecodeError as exc:\n            raise RelevanceError(",
           "except LookupError as exc:\n            raise RelevanceError("),
    Mutant("gen's report gains warnings", "cli.py",
           'warnings, fields = [], {"n_rows": data.n_rows}',
           'warnings, fields = [], {"n_rows": data.n_rows, "warnings": []}'),
    Mutant("a strategy report drops added", "cli.py",
           "added=len(out.seeds), warnings=warnings)",
           "warnings=warnings)"),
    Mutant("warnings are not printed", "cli.py",
           "print(warning, file=sys.stderr)",
           "pass"),
]


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _mutated(m: Mutant) -> str:
    """The text of ``m``'s module with ``m`` applied."""
    text = (ROOT / "src" / "rebalance" / m.module).read_text(encoding="utf-8")
    if text.count(m.code) != 1:
        raise SystemExit(f"{m.name}: {m.code!r} occurs {text.count(m.code)} times "
                         f"in {m.module}, not once")
    return text.replace(m.code, m.mutant)


def _run_tests(dest: Path, tests: tuple[str, ...]) -> tuple[str, float]:
    """``tests`` run in ``dest``: killed, survived or timeout, and seconds."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)", time.perf_counter() - start
    return ("survived" if proc.returncode == 0 else "killed"), time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [(m, _mutated(m)) for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        for tests in dict.fromkeys(TESTS[m.module] for m, _ in chosen):
            outcome, secs = _run_tests(base, tests)
            if outcome != "survived":
                raise SystemExit(f"the unmutated tests fail ({outcome}): {' '.join(tests)}")
            print(f"unmutated: {' '.join(tests)} pass in {secs:.0f} s")
        print()
        print("| mutant | module | result | s |")
        print("|---|---|---|---|")
        survivors = 0
        for m, text in chosen:
            dest = Path(tmp) / "mutant"
            _copy(dest)
            (dest / "src" / "rebalance" / m.module).write_text(text, encoding="utf-8")
            outcome, secs = _run_tests(dest, TESTS[m.module])
            if outcome == "survived" and m.equivalent:
                outcome = f"equivalent: {m.equivalent}"
            survivors += outcome == "survived"
            print(f"| {m.name} | `{m.module}` | {outcome} | {secs:.0f} |", flush=True)
            shutil.rmtree(dest)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
