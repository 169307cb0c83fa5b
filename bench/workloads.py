"""Benchmark workloads: the generated input tables and the op cycle.

Each workload is a closed loop with one client: the ops run one after
another, in the listed order, and the cycle repeats.  Every op is one
``rebalance.cli.run(argv)`` call that reads a CSV, resamples it, writes
a CSV and a ``--report`` JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

TARGETS = {"imbc": "Class", "imbr": "Tgt"}


@dataclass(frozen=True)
class Input:
    variant: str  # ``rebalance gen`` variant: imbc or imbr
    rows: int

    @property
    def target(self) -> str:
        return TARGETS[self.variant]

    def path(self, workdir: Path) -> Path:
        return workdir / f"in-{self.variant}-{self.rows}.csv"


@dataclass(frozen=True)
class Op:
    label: str
    input: Input
    args: tuple[str, ...]  # subcommand and its options

    def argv(self, workdir: Path, seed: int, index: int) -> list[str]:
        return [
            *self.args,
            "--in", str(self.input.path(workdir)),
            "--target", self.input.target,
            "--out", str(self.output(workdir, index)),
            "--report", str(self.report(workdir, index)),
            "--seed", str(seed),
        ]

    def output(self, workdir: Path, index: int) -> Path:
        return workdir / f"out-{index}-{self.label}.csv"

    def report(self, workdir: Path, index: int) -> Path:
        return workdir / f"report-{index}-{self.label}.json"


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    ops: tuple[Op, ...]
    # wall time of one untraced cycle on the baseline commit (2-core Xeon);
    # a run of S seconds measures round(S / cycle_s) whole cycles, so
    # every run with the same settings times the same ops
    cycle_s: float

    def cycles(self, seconds: float, min_ops: int = 1) -> int:
        return max(round(seconds / self.cycle_s), -(-min_ops // len(self.ops)))

    def gen_argv(self, workdir: Path, seed: int) -> list[list[str]]:
        return [
            ["gen", i.variant, "--rows", str(i.rows), "--seed", str(seed),
             "--out", str(i.path(workdir))]
            for i in self.inputs
        ]


def _neighbour_clean() -> Workload:
    c = Input("imbc", 4_000)
    return Workload("neighbour-clean", (c,), (
        Op("tomek-heom", c, ("tomek", "--dist", "heom")),
        Op("cnn-heom", c, ("cnn", "--dist", "heom")),
        Op("oss-heom", c, ("oss", "--dist", "heom")),
        Op("enn-heom-k3", c, ("enn", "--dist", "heom", "--k", "3")),
        Op("ncl-hvdm-k3", c, ("ncl", "--dist", "hvdm", "--k", "3")),
    ), cycle_s=7.5)


def _bulk_io() -> Workload:
    c, r = Input("imbc", 100_000), Input("imbr", 100_000)
    return Workload("bulk-io", (c, r), (
        Op("randunder", c, ("randunder",)),
        Op("randover", c, ("randover",)),
        Op("gaussnoise", c, ("gaussnoise",)),
        Op("randover-r", r, ("randover-r",)),
        Op("impsamp-r-u0.5-o1", r, ("impsamp-r", "--u", "0.5", "--o", "1.0")),
    ), cycle_s=7.0)


def _smote_synth() -> Workload:
    c, r = Input("imbc", 20_000), Input("imbr", 20_000)
    return Workload("smote-synth", (r, c), (
        Op("smote-r-euclidean-balance", r,
           ("smote-r", "--dist", "euclidean", "--c-perc", "balance", "--k", "5")),
        Op("smote-r-heom-0.5,3", r, ("smote-r", "--dist", "heom", "--c-perc", "0.5,3")),
        Op("smote-heom-balance", c, ("smote", "--dist", "heom", "--c-perc", "balance")),
        Op("smote-hvdm-extreme", c, ("smote", "--dist", "hvdm", "--c-perc", "extreme")),
    ), cycle_s=6.0)


WORKLOADS = {w.name: w for w in (_neighbour_clean(), _bulk_io(), _smote_synth())}
