"""Command line interface.

One subcommand per resampling strategy (classification strategies by
name, regression twins with a ``-r`` suffix) plus ``gen`` for the
bundled synthetic dataset generators.  Input and output are CSV files
with a header row; an optional JSON report captures what the run did.

``COMMANDS`` is the one table of resampling subcommands.  An entry
names its strategy function, looked up in this module each time the
command runs, and its options with their defaults.  The parser is
built from the table, with the options of the subcommand named on the
command line only; each option reaches the strategy as the keyword
of the same name (``--c-perc`` as ``spec``, ``--dist`` with ``--p`` as
``metric``), and the report's ``params`` record each option under its
name.  Two kinds of entries carry a hook: ``impsamp-r`` picks mode A
or mode B from its options, and ``cnn``/``oss`` report the important
and unimportant class lists they return.

``--out`` and ``--report`` appear whole or not at all.  Each that names
a regular file or a new path is written to a new file beside it, which
replaces it only once the CSV and the report are both written, and is
unlinked if the run fails or is interrupted; a replaced file keeps its
permission bits, and a new one gets those the umask leaves of 0o666, as
``open`` gives.  Any other target, a symlink, a device such as
``/dev/stdout`` or a pipe, is written in place, through the link, as is
a target beside which no file can be made.  Both naming one regular
file or new path is a usage error.

Exit codes: 0 for success (warnings included), 2 for usage errors, 1
for data or parameter errors.  A fixed ``--seed`` makes the output CSV
and the report byte-identical across runs, except for the wall-time
field of the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Mapping

# COMMANDS reaches the strategies by name, through this module's globals
from .classif import (
    ClassPercSpec,
    ResampleError,
    StrategyOutcome,
    cnn_classif,
    enn_classif,
    gauss_noise_classif,
    imp_samp_classif,
    ncl_classif,
    oss_classif,
    rand_over_classif,
    rand_under_classif,
    smote_classif,
    tomek_classif,
)
from .distance import METRIC_NAMES, Metric, MetricError
from .regress import (
    BumpPercSpec,
    ImpSampParams,
    gauss_noise_regress,
    imp_samp_regress,
    rand_over_regress,
    rand_under_regress,
    smoter,
)
from .relevance import (
    ControlPoint,
    RelevanceError,
    RelevanceFn,
    build_relevance_extremes,
    build_relevance_range,
    copied_bumps,
    find_bumps,
)
from .tabular import (
    ColumnKind,
    Dataset,
    TabularError,
    class_counts,
    read_dataset,
    write_dataset,
)

__all__ = ["run", "main"]


def _parse_c_perc_classif(text: str) -> ClassPercSpec:
    if text == "balance":
        return ClassPercSpec.balance()
    if text == "extreme":
        return ClassPercSpec.extreme()
    percs = {}
    for item in text.split(","):
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise argparse.ArgumentTypeError(
                f"bad class percentage {item!r}; expected label=number"
            )
        try:
            percs[name] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad percentage value {value!r} for class {name!r}"
            ) from None
    return ClassPercSpec.explicit(percs)


def _parse_c_perc_regress(text: str) -> BumpPercSpec:
    if text == "balance":
        return BumpPercSpec.balance()
    if text == "extreme":
        return BumpPercSpec.extreme()
    try:
        percs = [float(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad bump percentages {text!r}; expected balance, extreme, "
            "or comma-separated numbers"
        ) from None
    return BumpPercSpec.explicit(percs)


def _parse_cl(text: str):
    if text in ("all", "smaller"):
        return text
    return [item for item in text.split(",") if item]


def _parse_rel(text: str) -> str:
    if text == "auto":
        return "both"
    if text.startswith("auto:") and text[5:] in ("high", "low", "both"):
        return text[5:]
    raise argparse.ArgumentTypeError(
        f"bad relevance spec {text!r}; expected auto, auto:high, auto:low "
        "or auto:both"
    )


def _seed(text: str) -> int:
    # numpy's generators take no negative seed
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"bad seed {text!r}; expected a non-negative integer"
        )
    return int(text)


def _metric_from(args: argparse.Namespace) -> Metric:
    if args.dist == "minkowsky":
        return Metric("minkowsky", p=args.p)
    return Metric(args.dist)


def _read_rel_points(path: str) -> RelevanceFn:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise RelevanceError(f"relevance points are not UTF-8 text: {exc}") from None
    points = []
    for lineno, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) not in (2, 3):
            raise RelevanceError(
                f"relevance point on line {lineno} needs y,phi[,dphi]"
            )
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise RelevanceError(
                f"bad relevance point on line {lineno}: {row!r}"
            ) from None
        points.append(ControlPoint(*vals))
    return build_relevance_range(points)


def _relevance_from(args: argparse.Namespace, ds: Dataset) -> RelevanceFn:
    if args.rel_points is not None:
        return _read_rel_points(args.rel_points)
    if ds.target_column.kind is not ColumnKind.NUMERIC:  # its values would be codes
        raise RelevanceError("target values must be present and numeric")
    return build_relevance_extremes(ds.target_column.values, extr_type=args.rel)


def _bump_summary(bumps) -> list[dict]:
    """The report's rows of ``Bump``s or ``BumpSummary``s."""
    return [
        {
            "rare": b.rare,
            "count": b.count,
            "y_low": b.y_low,
            "y_high": b.y_high,
        }
        for b in bumps
    ]


def _spec_repr(spec) -> str | dict | list:
    if spec.mode == "explicit":
        if isinstance(spec, ClassPercSpec):
            return dict(spec.percs)
        return list(spec.percs)
    return spec.mode


def _impsamp_r_mode(args: argparse.Namespace) -> tuple[dict, dict]:
    """impsamp-r: mode B with --u/--o, else mode A with --thr-rel/--c-perc."""
    if args.u is not None or args.o is not None:
        if args.c_perc is not None:
            raise ResampleError("--c-perc cannot be combined with --u/--o")
        return {"params": ImpSampParams(u=args.u, o=args.o)}, {"u": args.u, "o": args.o}
    spec = BumpPercSpec.balance() if args.c_perc is None else args.c_perc
    return (
        {"params": ImpSampParams(thr_rel=args.thr_rel, spec=spec)},
        {"thr_rel": args.thr_rel, "c_perc": _spec_repr(spec)},
    )


def _class_lists(result) -> tuple[StrategyOutcome, dict]:
    """cnn, oss: report the class lists the strategy returns."""
    out, important, unimportant = result
    return out, {"important_classes": important, "unimportant_classes": unimportant}


@dataclass(frozen=True)
class Command:
    """One resampling subcommand."""

    strategy: str                  # a strategy function of this module
    help: str
    options: Mapping[str, object]  # option -> default; the report's params
    regress: bool = False
    # args -> (strategy keywords, params), in place of the options' own
    prepare: Callable | None = None
    # strategy result -> (outcome, extra report fields)
    finish: Callable | None = None


# argparse settings of each option; the default comes from the command
ARGUMENTS = {
    "c_perc": {},  # the type depends on the command's family
    "thr_rel": {"type": float},
    "dist": {"choices": METRIC_NAMES},
    "cl": {"type": _parse_cl},
    "rem": {"choices": ["both", "maj"]},
    "start": {"choices": ["cnn", "tomek"]},
    "k": {"type": int},
    "pert": {"type": float},
    "repl": {"action": "store_true"},
    "u": {"type": float},
    "o": {"type": float},
}

COMMANDS = {
    "randunder": Command(
        "rand_under_classif", "random under-sampling (classification)",
        {"c_perc": "balance", "repl": False}),
    "randover": Command(
        "rand_over_classif", "random over-sampling (classification)",
        {"c_perc": "balance"}),
    "impsamp": Command(
        "imp_samp_classif", "importance sampling (classification)",
        {"c_perc": "balance"}),
    "tomek": Command(
        "tomek_classif", "Tomek link removal",
        {"dist": "euclidean", "cl": "all", "rem": "both"}),
    "cnn": Command(
        "cnn_classif", "condensed nearest neighbours",
        {"dist": "euclidean", "cl": "smaller"}, finish=_class_lists),
    "oss": Command(
        "oss_classif", "one-sided selection",
        {"dist": "euclidean", "cl": "smaller", "start": "cnn"}, finish=_class_lists),
    "enn": Command(
        "enn_classif", "edited nearest neighbours",
        {"dist": "euclidean", "cl": "all", "k": 3}),
    "ncl": Command(
        "ncl_classif", "neighbourhood cleaning",
        {"dist": "euclidean", "cl": "smaller", "k": 3}),
    "gaussnoise": Command(
        "gauss_noise_classif", "Gaussian-noise synthesis (classification)",
        {"c_perc": "balance", "pert": 0.1, "repl": False}),
    "smote": Command(
        "smote_classif", "smote synthesis (classification)",
        {"dist": "euclidean", "c_perc": "balance", "k": 5, "repl": False}),
    "randunder-r": Command(
        "rand_under_regress", "random under-sampling (regression)",
        {"thr_rel": 0.5, "c_perc": "balance", "repl": False}, regress=True),
    "randover-r": Command(
        "rand_over_regress", "random over-sampling (regression)",
        {"thr_rel": 0.5, "c_perc": "balance"}, regress=True),
    "gaussnoise-r": Command(
        "gauss_noise_regress", "Gaussian-noise synthesis (regression)",
        {"thr_rel": 0.5, "c_perc": "balance", "pert": 0.1, "repl": False},
        regress=True),
    "smote-r": Command(
        "smoter", "smote synthesis (regression)",
        {"thr_rel": 0.5, "dist": "euclidean", "c_perc": "balance", "k": 5,
         "repl": False}, regress=True),
    # mode A uses --thr-rel/--c-perc; giving --u/--o switches to mode B
    "impsamp-r": Command(
        "imp_samp_regress", "importance sampling (regression)",
        {"thr_rel": 0.5, "c_perc": None, "u": None, "o": None},
        regress=True, prepare=_impsamp_r_mode),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: when ``argv`` starts with a subcommand,
    only that one is registered, with its options; otherwise every
    subcommand is registered, for the help and error texts."""
    parser = argparse.ArgumentParser(
        prog="rebalance",
        description="Resample imbalanced tabular datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in [*COMMANDS, "gen"] else None
    for name, cmd in COMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=cmd.help)
        if name != named:
            continue
        p.add_argument("--in", dest="input", required=True, metavar="FILE")
        p.add_argument("--out", dest="output", required=True, metavar="FILE")
        p.add_argument("--target", required=True, metavar="NAME")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--report", default=None, metavar="FILE")
        if cmd.regress:
            p.add_argument("--rel", type=_parse_rel, default="auto")
            p.add_argument("--rel-points", default=None, metavar="FILE")
        for opt, default in cmd.options.items():
            settings = dict(ARGUMENTS[opt], default=default)
            if opt == "c_perc":
                settings["type"] = (
                    _parse_c_perc_regress if cmd.regress else _parse_c_perc_classif
                )
            p.add_argument("--" + opt.replace("_", "-"), **settings)
            if opt == "dist":
                p.add_argument(
                    "--p", type=float, default=2.0, help="exponent for --dist minkowsky"
                )

    if named in (None, "gen"):
        p = sub.add_parser("gen", help="generate a synthetic dataset")
    if named != "gen":
        return parser
    p.add_argument("variant", choices=["imbc", "imbr"])
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", dest="output", required=True, metavar="FILE")
    p.add_argument("--report", default=None, metavar="FILE")
    return parser


def _options(cmd: Command, args: argparse.Namespace) -> tuple[dict, dict]:
    """Strategy keywords and report params of a command's options."""
    kwargs, params = {}, {}
    for opt in cmd.options:
        value = getattr(args, opt)
        if opt == "c_perc":
            kwargs["spec"], params[opt] = value, _spec_repr(value)
        elif opt == "dist":
            kwargs["metric"], params[opt] = _metric_from(args), value
        else:
            kwargs[opt] = params[opt] = value
    return kwargs, params


def _dispatch(args: argparse.Namespace, ds: Dataset):
    """Run the command's strategy: its outcome, params and report fields."""
    cmd = COMMANDS[args.command]
    fn = _relevance_from(args, ds) if cmd.regress else None
    if cmd.prepare:
        kwargs, params = cmd.prepare(args)
    else:
        kwargs, params = _options(cmd, args)
    # looked up at call time, so a wrapper installed on this module counts
    strategy = globals()[cmd.strategy]
    lead = (ds, fn) if cmd.regress else (ds,)
    result = strategy(*lead, **kwargs, seed=args.seed)
    out, report = cmd.finish(result) if cmd.finish else (result, {})
    if not cmd.regress:
        report["class_counts_before"] = dict(class_counts(ds))
        report["class_counts_after"] = dict(class_counts(out.dataset))
        return out, params, report
    params["relevance"] = (
        {"points_file": args.rel_points}
        if args.rel_points is not None
        else {"auto": args.rel}
    )
    if "thr_rel" in params:
        # the strategy partitioned the input already
        report["bumps_before"] = _bump_summary(out.partition.bumps)
        after = copied_bumps(out.partition, out.dataset)
        if after is None:
            after = find_bumps(out.dataset, fn, params["thr_rel"]).bumps
        report["bumps_after"] = _bump_summary(after)
    return out, params, report


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _beside(target: str, moves: list[tuple[str, str]]) -> str:
    """The path to write ``target`` through: a new empty file beside a
    regular file or a new path, listed in ``moves`` with ``target``, or
    else ``target`` itself."""
    try:
        st = os.lstat(target)
    except FileNotFoundError:
        st = None
    except OSError:  # the write in place says why
        return target
    if st is not None and not stat.S_ISREG(st.st_mode):
        return target
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError:
        return target
    moves.append((tmp, target))
    if st is not None:
        os.chmod(tmp, stat.S_IMODE(st.st_mode))
    return tmp


def run(argv: list[str]) -> int:
    """Parse argv, run the requested command, and return the exit code."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    path = os.path.realpath(args.output)
    if args.report and path == os.path.realpath(args.report) and (
            os.path.isfile(path) or not os.path.exists(path)):
        print("error: --out and --report name the same file", file=sys.stderr)
        return 2

    started = time.perf_counter()
    # (new file, target) of each output written beside its target
    moves: list[tuple[str, str]] = []
    try:
        output = args.output and _beside(args.output, moves)
        report = args.report and _beside(args.report, moves)
        if args.command == "gen":
            from .synthgen import gen_imbc, gen_imbr

            gen = gen_imbc if args.variant == "imbc" else gen_imbr
            ds = gen(args.rows, seed=args.seed)
            write_dataset(ds, output)
            if report:
                payload = {
                    "command": "gen",
                    "params": {"variant": args.variant, "rows": args.rows},
                    "seed": args.seed,
                    "output": args.output,
                    "n_rows": ds.n_rows,
                    "elapsed_seconds": time.perf_counter() - started,
                }
                _write_report(report, payload)
        else:
            ds = read_dataset(args.input, target=args.target)
            if not ds.n_rows:
                raise TabularError(f"{args.input} has a header but no data rows")
            out, params, extra = _dispatch(args, ds)

            write_dataset(out.dataset, output)
            for warning in out.warnings:
                print(warning, file=sys.stderr)
            if report:
                payload = {
                    "command": args.command,
                    "input": args.input,
                    "output": args.output,
                    "target": args.target,
                    "seed": args.seed,
                    "params": params,
                    "n_rows_before": ds.n_rows,
                    "n_rows_after": out.dataset.n_rows,
                    "removed": len(out.removed),
                    "added": len(out.seeds),
                    "warnings": out.warnings,
                    "elapsed_seconds": time.perf_counter() - started,
                }
                payload.update(extra)
                _write_report(report, payload)
        # only now, with every output written
        for tmp, target in moves:
            os.replace(tmp, target)
        moves.clear()
        return 0
    except (TabularError, MetricError, RelevanceError, ResampleError, OSError,
            MemoryError) as exc:
        message = str(exc) or "out of memory"
        # name the file the user asked for, not the one written beside it
        for tmp, target in moves:
            message = message.replace(tmp, target)
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        # a failed or interrupted run leaves no new file behind
        for tmp, _ in moves:
            with suppress(FileNotFoundError):
                os.unlink(tmp)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
