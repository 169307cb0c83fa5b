"""Benchmark of the rebalance CLI: CSV in, strategy, CSV and report out.

    python3 bench/run.py --workload neighbour-clean --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Each run starts one child process per workload (``child.py``), which
imports the package from ``src/`` and drives ``rebalance.cli.run`` in
a closed loop, and one calibration process (``calib.py``) beside it.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Every op's output is checked
(``checks.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from calib import CAL_REF_S, Calibrator  # noqa: E402
from checks import check_cycles, check_digest, check_output, load_pinned  # noqa: E402
from tracer import CYCLE_METRICS, MAX_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 9  # set-ups per run: set-up-only children plus the measuring one
RUN_DEADLINE_S = 170  # a run must end within 180 s; children are killed after this
TAIL_BEYOND = 10

# gated end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = {
    "rows_per_cal": "rows/cal",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# printed with them but not gated: wall-time figures move with the host's
# speed (see README.md), and failed_ops_frac is 0 when the run is correct
INFORMATIONAL = {
    "rows_per_s": "rows/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cal_s": "s",
    "setup_wall_s": "s",
    "failed_ops_frac": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb_max"):
        return "MiB_computed"
    if ".bytes_" in name:
        return "B"
    return "count"


PER_LAYER = {
    name: unit_of(name)
    for name in sorted(
        set(CYCLE_METRICS)
        | {"trace.op_wall_s", "trace.overhead_frac", "trace.self_sum_frac"}
    )
}


class ChildFailed(RuntimeError):
    pass


# -- environment ---------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg()[0],
    }


# -- statistics ----------------------------------------------------------

def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Value at the highest nearest-rank percentile with ``beyond`` samples above it.

    Returns (value, percentile, sample count).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond  # 1-based
    return xs[rank - 1], 100.0 * rank / n, n


# -- children ------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REBALANCE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], workdir: Path, deadline: float, pass_fds=()):
    """Run child.py to completion; return (start time, result, rusage)."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    log_path = workdir / "child.log"
    cmd = [sys.executable, str(BENCH / "child.py"), *args,
           "--workdir", str(workdir), "--result", str(result_path)]
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT, pass_fds=pass_fds)
        timed_out = False
        while True:
            # wait4 gives this child's own rusage, so peak RSS is never mixed
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out or proc.returncode != 0:
        why = "ran past the deadline" if timed_out else f"exited {proc.returncode}"
        log_tail = log_path.read_text(errors="replace")[-2000:]
        raise ChildFailed(f"child {why}: {' '.join(args)}\n{log_tail}")
    return started, json.loads(result_path.read_text()), rusage


# -- checking ------------------------------------------------------------

def validate(wl: Workload, workdir: Path, seed: int, ops: list[dict]) -> tuple[int, list[str]]:
    """Count failed ops; one message per problem, naming workload and op."""
    from rebalance.tabular import read_dataset

    inputs = {i: read_dataset(i.path(workdir), target=i.target) for i in wl.inputs}
    pinned = load_pinned()
    failed = 0
    messages = []
    for index, op in enumerate(wl.ops):
        records = [r for r in ops if r["index"] == index]
        problems = check_cycles(records)
        out = op.output(workdir, index)
        if out.exists():
            problems += check_digest(wl.name, op.label, records[-1]["digest"], seed, pinned)
            problems += check_output(op, inputs[op.input], out,
                                     op.report(workdir, index))
        else:
            problems.append("no output written")
        if problems:
            failed += len(records)
            messages += [f"FAIL {wl.name} {op.label}: {p}" for p in problems]
    return failed, messages


# -- one workload --------------------------------------------------------

def end_to_end(wl: Workload, ops: list[dict], failed: int, setups: list[float],
               rusage) -> tuple[dict, str]:
    walls = [r["wall"] for r in ops]
    rows = sum(wl.ops[r["index"]].input.rows for r in ops)
    cal = statistics.median(r["cal"] for r in ops)
    tail_value, pct, n = tail(walls)
    return {
        "rows_per_cal": rows / sum(walls) * cal,
        "rows_per_s": rows / sum(walls),
        "cal_s": cal,
        "peak_rss_mb": rusage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "setup_s": statistics.median(setups) * CAL_REF_S / cal,
        "setup_wall_s": statistics.median(setups),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "failed_ops_frac": failed / len(ops),
    }, (f"op_tail_s is p{pct:.1f} of {n} ops ({TAIL_BEYOND} beyond); "
        f"setup_s is the median of {len(setups)} set-ups, "
        f"scaled by {CAL_REF_S} s / cal_s to the reference host's speed")


def per_layer(ops: list[dict], cycles: list[dict], setup_metrics: dict) -> tuple[dict, str]:
    def cal_wall(traced: bool) -> float:
        """Op wall of one half, in calibration-loop units (host speed divided out)."""
        half = [r for r in ops if r["traced"] is traced]
        return sum(r["wall"] for r in half) / statistics.median(r["cal"] for r in half)

    out = {}
    for name in CYCLE_METRICS:
        values = [c[name] for c in cycles]
        out[name] = max(values) if name in MAX_METRICS else statistics.fmean(values)
    out["synthgen.gen_s"] = setup_metrics["synthgen.gen_s"]
    out["synthgen.errors"] = setup_metrics["synthgen.errors"]
    out["trace.op_wall_s"] = statistics.fmean(c["trace.op_wall_s"] for c in cycles)
    out["trace.overhead_frac"] = cal_wall(True) / cal_wall(False) - 1.0
    self_sum = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["trace.self_sum_frac"] = self_sum / out["trace.op_wall_s"]
    note = (f"per-layer values are per cycle, mean of {len(cycles)} traced cycles; "
            f"layer self times sum to {100 * out['trace.self_sum_frac']:.2f}% of traced op wall")
    return out, note


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = BENCH / "_work" / f"{name}-{os.getpid()}"
    loop = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    calibrator = Calibrator.start(_child_env())
    try:
        setups = []
        if not trace:
            for i in range(SETUP_REPEATS - 1):
                started, res, _ = spawn(loop + ["--setup-only"], work / f"setup-{i}", deadline)
                setups.append(res["setup_done"] - started)
                shutil.rmtree(work / f"setup-{i}")
        run_dir = work / "run"
        started, res, rusage = spawn(loop + ["--cal-fds", "%d,%d" % calibrator.fds],
                                     run_dir, deadline, pass_fds=calibrator.fds)
        setups.append(res["setup_done"] - started)
        ops = res["ops"]
        failed, lines = validate(wl, run_dir, seed, ops)
    finally:
        calibrator.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    if trace:
        metrics, note = per_layer(ops, res["cycle_metrics"], res["setup_metrics"])
        units, shown = PER_LAYER, PER_LAYER
    else:
        metrics, note = end_to_end(wl, ops, failed, setups, rusage)
        units, shown = END_TO_END, END_TO_END | INFORMATIONAL
    cycles = len({r["cycle"] for r in ops})
    lines.append(f"# {name}: seed {seed}, {len(ops)} ops in {cycles} cycles, {failed} failed")
    lines.append(f"# {note}")
    lines += [f"  {k:28s} {metrics[k]:.6g} {shown[k]}" for k in shown]
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rebalance" / "cli.py").is_file():
        print(f"error: no rebalance source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results.append(result)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()[0]
    env["loaded"] = max(env["loadavg_start"], env["loadavg_end"]) > env["nproc"]
    if env["loaded"]:
        print("# WARNING: load average exceeded nproc; figures may be disturbed")
    print("# env " + json.dumps(env, sort_keys=True))
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
