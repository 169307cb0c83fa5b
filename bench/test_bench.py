"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from calib import Calibrator  # noqa: E402
from checks import check_digest, check_output  # noqa: E402
from child import run_cycle, set_up  # noqa: E402
from run import END_TO_END, PER_LAYER, _child_env, tail  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Op, Workload  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([float(x) for x in range(1, 21)]) == (10.0, 50.0, 20)
    value, pct, n = tail([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    # order of the samples does not matter
    assert tail([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0, 40)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "cli", "run", 0.0, 10.0),
        Span(1, 0, "classif", "enn", 1.0, 7.0),
        Span(2, 1, "distance", "pairwise", 2.0, 5.0),
        Span(3, 1, "tabular", "take", 5.5, 6.0),
        Span(4, 0, "tabular", "write_dataset", 8.0, 9.0),
    ]
    got = self_times(spans)
    assert got["cli"] == pytest.approx(3.0)
    assert got["classif"] == pytest.approx(2.5)
    assert got["distance"] == pytest.approx(3.0)
    assert got["tabular"] == pytest.approx(1.5)
    assert sum(got.values()) == pytest.approx(10.0)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digest_check_catches_a_one_byte_change():
    data = b"X1,X2,Class\r\n1.5,cat,normal\r\n"
    pinned = {"w": {"op": sha256_bytes(data)}}
    assert check_digest("w", "op", sha256_bytes(data), DEFAULT_SEED, pinned) == []
    changed = data.replace(b"1.5", b"1.6")
    assert len(changed) == len(data)
    assert check_digest("w", "op", sha256_bytes(changed), DEFAULT_SEED, pinned)
    # other seeds are checked by invariants only
    assert check_digest("w", "op", sha256_bytes(changed), DEFAULT_SEED + 1, pinned) == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END
    assert layer == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*e2e, *layer, *WORKLOADS]:
        assert NAME_RE.match(name) and len(name) <= 64, name


def _scaled(wl: Workload, rows: int) -> Workload:
    inputs = {i: replace(i, rows=rows) for i in wl.inputs}
    ops = tuple(Op(op.label, inputs[op.input], op.args) for op in wl.ops)
    return replace(wl, inputs=tuple(inputs.values()), ops=ops)


def _traced_cycle(wl: Workload, workdir: Path) -> tuple[dict, float]:
    workdir.mkdir()
    set_up(wl, workdir, DEFAULT_SEED)
    with Tracer() as tracer:
        records = run_cycle(wl, workdir, DEFAULT_SEED, 0, traced=True)
    assert all(r["rc"] == 0 for r in records)
    return tracer.collect(), sum(r["wall"] for r in records)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl = _scaled(WORKLOADS[name], 1_000)
    first, wall = _traced_cycle(wl, tmp_path / "a")
    second, _ = _traced_cycle(wl, tmp_path / "b")
    for key in ("distance.pairs", "distance.scalar_calls", "relevance.find_bumps_calls"):
        assert first[key] == second[key], key
    self_sum = sum(v for k, v in first.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(wall, rel=0.05)
    if name == "bulk-io":
        assert first["distance.pairwise_calls"] == 0
    if name == "neighbour-clean":
        assert first["distance.scalar_calls"] == 0
        assert first["relevance.find_bumps_calls"] == 0


def test_tracer_uninstall_restores_the_package(tmp_path):
    import rebalance.cli
    import rebalance.tabular

    before = (rebalance.cli.run, rebalance.cli.read_dataset, rebalance.tabular.Dataset.take)
    with Tracer():
        assert rebalance.cli.run is not before[0]
    assert (rebalance.cli.run, rebalance.cli.read_dataset,
            rebalance.tabular.Dataset.take) == before


def test_output_check_catches_a_wrong_report(tmp_path):
    wl = _scaled(WORKLOADS["bulk-io"], 500)
    set_up(wl, tmp_path, DEFAULT_SEED)
    index, op = 1, wl.ops[1]
    assert run_cycle(wl, tmp_path, DEFAULT_SEED, 0, traced=False)[index]["rc"] == 0
    from rebalance.tabular import read_dataset

    inp = read_dataset(op.input.path(tmp_path), target=op.input.target)
    out, report = op.output(tmp_path, index), op.report(tmp_path, index)
    assert check_output(op, inp, out, report) == []
    payload = json.loads(report.read_text())
    payload["added"] += 1
    report.write_text(json.dumps(payload))
    assert check_output(op, inp, out, report)


def test_calibrator_runs_in_its_own_process_and_exits_on_close():
    calibrator = Calibrator.start(_child_env())
    try:
        times = [calibrator.measure() for _ in range(3)]
    finally:
        calibrator.close()
    assert all(0 < t < 10 for t in times)
    assert calibrator.proc.returncode == 0
