"""Correctness gate behind ``failed``: every op's output is checked.

An op fails if ``cli.run`` raised or returned non-zero, if its output
bytes differ from those of the same op in another cycle, or if the
output it left fails ``check_output``.  At the default seed the output
digest must also equal the one pinned in ``digests.json``; the other
checks hold at any seed.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import DEFAULT_SEED, Op

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_pinned() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def check_digest(workload: str, label: str, digest: str | None, seed: int,
                 pinned: dict[str, dict[str, str]]) -> list[str]:
    """The pinned digest must match at the default seed."""
    if seed != DEFAULT_SEED:
        return []
    want = pinned.get(workload, {}).get(label)
    if want is None:
        return [f"no digest pinned for seed {seed}"]
    if digest != want:
        return [f"output sha256 {digest} != pinned {want}"]
    return []


def check_output(op: Op, inp, out_path: Path, report_path: Path) -> list[str]:
    """Invariants between an op's input, output CSV and report."""
    from rebalance.relevance import build_relevance_extremes, find_bumps
    from rebalance.tabular import TabularError, class_counts, read_dataset

    try:
        out = read_dataset(out_path, target=op.input.target)
    except (OSError, TabularError) as exc:
        return [f"output does not parse: {exc}"]
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"report does not parse: {exc}"]

    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: {got!r} != {want!r}")

    expect("header", [c.name for c in out.columns], [c.name for c in inp.columns])
    expect("n_rows_before", report["n_rows_before"], inp.n_rows)
    expect("rows vs n_rows_after", out.n_rows, report["n_rows_after"])
    expect("rows vs before - removed + added", out.n_rows,
           report["n_rows_before"] - report["removed"] + report["added"])
    if "class_counts_after" in report:
        expect("class_counts_before", report["class_counts_before"], dict(class_counts(inp)))
        expect("class_counts_after", report["class_counts_after"], dict(class_counts(out)))
    if "bumps_after" in report:
        fn = build_relevance_extremes(inp.target_column.values, "both")
        thr = report["params"]["thr_rel"]
        for key, ds in (("bumps_before", inp), ("bumps_after", out)):
            got = [(b["rare"], b["count"]) for b in report[key]]
            want = [(b.rare, b.count) for b in find_bumps(ds, fn, thr).bumps]
            expect(key, got, want)
    return problems


def check_cycles(records: list[dict]) -> list[str]:
    """Every cycle of one op must exit 0 and write the same bytes."""
    problems = []
    for r in records:
        if r["error"] is not None:
            problems.append(f"cycle {r['cycle']}: raised {r['error']}")
        elif r["rc"] != 0:
            problems.append(f"cycle {r['cycle']}: exit code {r['rc']}")
    digests = {r["digest"] for r in records}
    if len(digests) > 1:
        problems.append(f"output differs between cycles: {len(digests)} digests")
    return problems
