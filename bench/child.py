"""One benchmark process: set up a workload's inputs, then run its ops.

Started by ``run.py``, one process per workload run, so that its peak
resident set belongs to one workload only.  It imports the package from
the source tree, generates the input CSVs through ``rebalance gen`` and
then, unless ``--setup-only``, runs whole op cycles in a closed loop,
as many as fill ``--seconds`` on the baseline commit.  Before each op,
outside its timing, it has the calibration process (``calib.py``,
reached through ``--cal-fds``) run the calibration loop.  With
``--trace 1`` untraced and traced cycles alternate.  Everything it
measured goes to ``--result`` as JSON; ``run.py`` checks the outputs
and turns the record into metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from collections.abc import Callable
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rebalance.cli  # noqa: E402

from calib import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_OPS = 11  # the tail percentile needs at least ten ops beyond it


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def set_up(wl: Workload, workdir: Path, seed: int) -> None:
    for argv in wl.gen_argv(workdir, seed):
        rc = rebalance.cli.run(argv)
        if rc != 0:
            raise RuntimeError(f"set-up failed: rebalance {' '.join(argv)} exited {rc}")


def run_cycle(wl: Workload, workdir: Path, seed: int, cycle: int, traced: bool,
              calibrate: Callable[[], float] | None = None) -> list[dict]:
    """Run each op once, in order; one record per op.

    ``calibrate``, if given, is timed before each op, outside its wall.
    """
    records = []
    for index, op in enumerate(wl.ops):
        argv = op.argv(workdir, seed, index)
        out = op.output(workdir, index)
        out.unlink(missing_ok=True)
        gc.collect()
        cal = calibrate() if calibrate else None
        error = None
        started = time.perf_counter()
        try:
            rc = rebalance.cli.run(argv)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        records.append({
            "cycle": cycle,
            "index": index,
            "traced": traced,
            "wall": wall,
            "cal": cal,
            "rc": rc,
            "error": error,
            "digest": sha256_file(out) if out.exists() else None,
        })
    return records


def run_loop(wl: Workload, workdir: Path, seed: int, seconds: float, trace: bool,
             calibrate: Callable[[], float]):
    """Whole cycles; with tracing, untraced and traced cycles alternate."""
    tracer = Tracer()
    ops: list[dict] = []
    cycle_metrics: list[dict] = []
    if trace:
        plan = [False, True] * wl.cycles(seconds / 2)
    else:
        plan = [False] * wl.cycles(seconds, MIN_OPS)
    for cycle, traced in enumerate(plan):
        if traced:
            with tracer:
                records = run_cycle(wl, workdir, seed, cycle, traced, calibrate)
            metrics = tracer.collect()
            metrics["trace.op_wall_s"] = sum(r["wall"] for r in records)
            cycle_metrics.append(metrics)
            tracer.reset()
        else:
            records = run_cycle(wl, workdir, seed, cycle, traced, calibrate)
        ops.extend(records)
    return ops, cycle_metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--cal-fds", help="request,reply pipe ends of the calibration process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    result: dict = {"setup_metrics": None}
    if args.trace:
        with Tracer() as tracer:
            set_up(wl, args.workdir, args.seed)
        result["setup_metrics"] = tracer.collect()
    else:
        set_up(wl, args.workdir, args.seed)
    result["setup_done"] = time.monotonic()

    if not args.setup_only:
        calibrator = Calibrator(*map(int, args.cal_fds.split(",")))
        result["ops"], result["cycle_metrics"] = run_loop(
            wl, args.workdir, args.seed, args.seconds, bool(args.trace), calibrator.measure
        )
        calibrator.close()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
