"""Command line interface.

One subcommand per resampling strategy (classification strategies by
name, regression twins with a ``-r`` suffix) plus ``gen`` for the
bundled synthetic dataset generators.  Input and output are CSV files
with a header row; an optional JSON report captures what the run did.

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
import sys
import time
from typing import Callable

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
from .distance import Metric, MetricError
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
    find_bumps,
)
from .tabular import (
    Dataset,
    TabularError,
    class_counts,
    read_dataset,
    write_dataset,
)

__all__ = ["run", "main"]

CLASSIF_COMMANDS = (
    "randunder",
    "randover",
    "impsamp",
    "tomek",
    "cnn",
    "oss",
    "enn",
    "ncl",
    "gaussnoise",
    "smote",
)
REGRESS_COMMANDS = (
    "randunder-r",
    "randover-r",
    "gaussnoise-r",
    "smote-r",
    "impsamp-r",
)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebalance",
        description="Resample imbalanced tabular datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--in", dest="input", required=True, metavar="FILE")
    io_parent.add_argument("--out", dest="output", required=True, metavar="FILE")
    io_parent.add_argument("--target", required=True, metavar="NAME")
    io_parent.add_argument("--seed", type=int, default=0)
    io_parent.add_argument("--report", default=None, metavar="FILE")

    dist_parent = argparse.ArgumentParser(add_help=False)
    dist_parent.add_argument(
        "--dist",
        default="euclidean",
        choices=[
            "euclidean",
            "manhattan",
            "minkowsky",
            "chebyshev",
            "canberra",
            "overlap",
            "heom",
            "hvdm",
        ],
    )
    dist_parent.add_argument(
        "--p", type=float, default=2.0, help="exponent for --dist minkowsky"
    )

    rel_parent = argparse.ArgumentParser(add_help=False)
    rel_parent.add_argument("--rel", type=_parse_rel, default="auto")
    rel_parent.add_argument("--rel-points", default=None, metavar="FILE")
    rel_parent.add_argument("--thr-rel", type=float, default=0.5)

    def classif(name: str, **kwargs) -> argparse.ArgumentParser:
        parents = [io_parent] + kwargs.pop("parents", [])
        return sub.add_parser(name, parents=parents, **kwargs)

    p = classif("randunder", help="random under-sampling (classification)")
    p.add_argument("--c-perc", type=_parse_c_perc_classif, default=ClassPercSpec.balance())
    p.add_argument("--repl", action="store_true")

    p = classif("randover", help="random over-sampling (classification)")
    p.add_argument("--c-perc", type=_parse_c_perc_classif, default=ClassPercSpec.balance())

    p = classif("impsamp", help="importance sampling (classification)")
    p.add_argument("--c-perc", type=_parse_c_perc_classif, default=ClassPercSpec.balance())

    p = classif("tomek", parents=[dist_parent], help="Tomek link removal")
    p.add_argument("--cl", type=_parse_cl, default="all")
    p.add_argument("--rem", choices=["both", "maj"], default="both")

    p = classif("cnn", parents=[dist_parent], help="condensed nearest neighbours")
    p.add_argument("--cl", type=_parse_cl, default="smaller")

    p = classif("oss", parents=[dist_parent], help="one-sided selection")
    p.add_argument("--cl", type=_parse_cl, default="smaller")
    p.add_argument("--start", choices=["cnn", "tomek"], default="cnn")

    p = classif("enn", parents=[dist_parent], help="edited nearest neighbours")
    p.add_argument("--cl", type=_parse_cl, default="all")
    p.add_argument("--k", type=int, default=3)

    p = classif("ncl", parents=[dist_parent], help="neighbourhood cleaning")
    p.add_argument("--cl", type=_parse_cl, default="smaller")
    p.add_argument("--k", type=int, default=3)

    p = classif("gaussnoise", help="Gaussian-noise synthesis (classification)")
    p.add_argument("--c-perc", type=_parse_c_perc_classif, default=ClassPercSpec.balance())
    p.add_argument("--pert", type=float, default=0.1)
    p.add_argument("--repl", action="store_true")

    p = classif("smote", parents=[dist_parent], help="smote synthesis (classification)")
    p.add_argument("--c-perc", type=_parse_c_perc_classif, default=ClassPercSpec.balance())
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--repl", action="store_true")

    p = classif("randunder-r", parents=[rel_parent], help="random under-sampling (regression)")
    p.add_argument("--c-perc", type=_parse_c_perc_regress, default=BumpPercSpec.balance())
    p.add_argument("--repl", action="store_true")

    p = classif("randover-r", parents=[rel_parent], help="random over-sampling (regression)")
    p.add_argument("--c-perc", type=_parse_c_perc_regress, default=BumpPercSpec.balance())

    p = classif("gaussnoise-r", parents=[rel_parent], help="Gaussian-noise synthesis (regression)")
    p.add_argument("--c-perc", type=_parse_c_perc_regress, default=BumpPercSpec.balance())
    p.add_argument("--pert", type=float, default=0.1)
    p.add_argument("--repl", action="store_true")

    p = classif("smote-r", parents=[rel_parent, dist_parent], help="smote synthesis (regression)")
    p.add_argument("--c-perc", type=_parse_c_perc_regress, default=BumpPercSpec.balance())
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--repl", action="store_true")

    p = classif("impsamp-r", parents=[rel_parent], help="importance sampling (regression)")
    p.add_argument("--c-perc", type=_parse_c_perc_regress, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--o", type=float, default=None)
    # mode A uses --thr-rel/--c-perc; giving --u/--o switches to mode B

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("variant", choices=["imbc", "imbr"])
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="output", required=True, metavar="FILE")
    p.add_argument("--report", default=None, metavar="FILE")

    return parser


def _read_threads() -> int:
    raw = os.environ.get("REBALANCE_THREADS")
    if raw is None:
        return 0
    try:
        threads = int(raw)
    except ValueError:
        raise ResampleError(
            f"REBALANCE_THREADS must be a non-negative integer, got {raw!r}"
        ) from None
    if threads < 0:
        raise ResampleError(
            f"REBALANCE_THREADS must be a non-negative integer, got {raw!r}"
        )
    return threads


def _metric_from(args: argparse.Namespace) -> Metric:
    name = getattr(args, "dist", "euclidean")
    if name == "minkowsky":
        return Metric("minkowsky", p=args.p)
    return Metric(name)


def _read_rel_points(path: str) -> RelevanceFn:
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
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
    return build_relevance_extremes(ds.target_column.values, extr_type=args.rel)


def _bump_summary(ds: Dataset, fn: RelevanceFn, thr_rel: float) -> list[dict]:
    part = find_bumps(ds, fn, thr_rel)
    return [
        {
            "rare": b.rare,
            "count": b.count,
            "y_low": b.y_low,
            "y_high": b.y_high,
        }
        for b in part.bumps
    ]


def _spec_repr(spec) -> str | dict | list:
    if spec is None:
        return None
    if spec.mode == "explicit":
        if isinstance(spec, ClassPercSpec):
            return dict(spec.percs)
        return list(spec.percs)
    return spec.mode


def _dispatch_classif(args: argparse.Namespace, ds: Dataset):
    command = args.command
    seed = args.seed
    extra: dict = {}
    if command == "randunder":
        out = rand_under_classif(ds, args.c_perc, repl=args.repl, seed=seed)
        params = {"c_perc": _spec_repr(args.c_perc), "repl": args.repl}
    elif command == "randover":
        out = rand_over_classif(ds, args.c_perc, seed=seed)
        params = {"c_perc": _spec_repr(args.c_perc)}
    elif command == "impsamp":
        out = imp_samp_classif(ds, args.c_perc, seed=seed)
        params = {"c_perc": _spec_repr(args.c_perc)}
    elif command == "tomek":
        out = tomek_classif(ds, _metric_from(args), cl=args.cl, rem=args.rem, seed=seed)
        params = {"dist": args.dist, "cl": args.cl, "rem": args.rem}
    elif command == "cnn":
        out, important, unimportant = cnn_classif(
            ds, _metric_from(args), cl=args.cl, seed=seed
        )
        params = {"dist": args.dist, "cl": args.cl}
        extra = {"important_classes": important, "unimportant_classes": unimportant}
    elif command == "oss":
        out, important, unimportant = oss_classif(
            ds, _metric_from(args), cl=args.cl, start=args.start, seed=seed
        )
        params = {"dist": args.dist, "cl": args.cl, "start": args.start}
        extra = {"important_classes": important, "unimportant_classes": unimportant}
    elif command == "enn":
        out = enn_classif(ds, _metric_from(args), k=args.k, cl=args.cl, seed=seed)
        params = {"dist": args.dist, "cl": args.cl, "k": args.k}
    elif command == "ncl":
        out = ncl_classif(ds, _metric_from(args), k=args.k, cl=args.cl, seed=seed)
        params = {"dist": args.dist, "cl": args.cl, "k": args.k}
    elif command == "gaussnoise":
        out = gauss_noise_classif(
            ds, args.c_perc, pert=args.pert, repl=args.repl, seed=seed
        )
        params = {"c_perc": _spec_repr(args.c_perc), "pert": args.pert, "repl": args.repl}
    elif command == "smote":
        out = smote_classif(
            ds, args.c_perc, k=args.k, metric=_metric_from(args),
            repl=args.repl, seed=seed,
        )
        params = {"c_perc": _spec_repr(args.c_perc), "k": args.k, "dist": args.dist, "repl": args.repl}
    else:  # pragma: no cover - guarded by argparse choices
        raise ResampleError(f"unknown command {command!r}")

    report = {
        "class_counts_before": dict(class_counts(ds)),
        "class_counts_after": dict(class_counts(out.dataset)),
    }
    report.update(extra)
    return out, params, report


def _dispatch_regress(args: argparse.Namespace, ds: Dataset):
    command = args.command
    seed = args.seed
    fn = _relevance_from(args, ds)

    if command == "impsamp-r":
        mode_b = args.u is not None or args.o is not None
        if mode_b:
            if args.c_perc is not None:
                raise ResampleError("--c-perc cannot be combined with --u/--o")
            params_obj = ImpSampParams(u=args.u, o=args.o)
            params = {"u": args.u, "o": args.o}
            thr = None
        else:
            spec = args.c_perc if args.c_perc is not None else BumpPercSpec.balance()
            thr = args.thr_rel
            params_obj = ImpSampParams(thr_rel=thr, spec=spec)
            params = {"thr_rel": thr, "c_perc": _spec_repr(spec)}
        out = imp_samp_regress(ds, fn, params_obj, seed=seed)
    elif command == "randunder-r":
        thr = args.thr_rel
        out = rand_under_regress(ds, fn, thr, args.c_perc, repl=args.repl, seed=seed)
        params = {"thr_rel": thr, "c_perc": _spec_repr(args.c_perc), "repl": args.repl}
    elif command == "randover-r":
        thr = args.thr_rel
        out = rand_over_regress(ds, fn, thr, args.c_perc, seed=seed)
        params = {"thr_rel": thr, "c_perc": _spec_repr(args.c_perc)}
    elif command == "gaussnoise-r":
        thr = args.thr_rel
        out = gauss_noise_regress(
            ds, fn, thr, args.c_perc, pert=args.pert, repl=args.repl, seed=seed
        )
        params = {
            "thr_rel": thr,
            "c_perc": _spec_repr(args.c_perc),
            "pert": args.pert,
            "repl": args.repl,
        }
    else:  # smote-r
        thr = args.thr_rel
        out = smoter(
            ds, fn, thr, args.c_perc, k=args.k, metric=_metric_from(args),
            repl=args.repl, seed=seed,
        )
        params = {
            "thr_rel": thr,
            "c_perc": _spec_repr(args.c_perc),
            "k": args.k,
            "dist": args.dist,
            "repl": args.repl,
        }

    params["relevance"] = (
        {"points_file": args.rel_points}
        if args.rel_points is not None
        else {"auto": args.rel}
    )
    report = {}
    if thr is not None:
        report["bumps_before"] = _bump_summary(ds, fn, thr)
        report["bumps_after"] = _bump_summary(out.dataset, fn, thr)
    return out, params, report


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(argv: list[str]) -> int:
    """Parse argv, run the requested command, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    started = time.perf_counter()
    try:
        threads = _read_threads()

        if args.command == "gen":
            from .synthgen import gen_imbc, gen_imbr

            gen = gen_imbc if args.variant == "imbc" else gen_imbr
            ds = gen(args.rows, seed=args.seed)
            write_dataset(ds, args.output)
            if args.report:
                payload = {
                    "command": "gen",
                    "params": {"variant": args.variant, "rows": args.rows},
                    "seed": args.seed,
                    "output": args.output,
                    "n_rows": ds.n_rows,
                    "threads": threads,
                    "elapsed_seconds": time.perf_counter() - started,
                }
                _write_report(args.report, payload)
            return 0

        ds = read_dataset(args.input, target=args.target)
        if args.command in CLASSIF_COMMANDS:
            out, params, extra = _dispatch_classif(args, ds)
        else:
            out, params, extra = _dispatch_regress(args, ds)

        write_dataset(out.dataset, args.output)
        for warning in out.warnings:
            print(warning, file=sys.stderr)
        if args.report:
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
                "added": len(out.added),
                "warnings": out.warnings,
                "threads": threads,
                "elapsed_seconds": time.perf_counter() - started,
            }
            payload.update(extra)
            _write_report(args.report, payload)
        return 0
    except (TabularError, MetricError, RelevanceError, ResampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
