"""Outside-in layer tracing for the rebalance package.

The tracer wraps the public callables of each module at the place where
another module calls them (the module attribute a ``from .x import y``
bound, or the class attribute of a method) and records one span per
call: layer, name, start, end and the enclosing span.  Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

Layers are the package's modules: cli, tabular, distance, relevance,
classif, regress and synthgen.  ``_util`` is not wrapped, so its time
counts as self time of whichever layer called it; so does
``Dataset.row``, which ``smoter`` calls twice per synthetic row.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Per-layer metrics are reported per workload cycle.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "tabular", "distance", "relevance", "classif", "regress", "synthgen")
CALLER_MODULES = ("cli", "classif", "regress", "relevance", "distance", "tabular")

# (layer, callable name) -> metric that sums the spans' wall time
SPAN_METRICS = {
    ("tabular", "read_dataset"): "tabular.read_s",
    ("tabular", "write_dataset"): "tabular.write_s",
    ("tabular", "take"): "tabular.take_s",
    ("tabular", "append"): "tabular.append_s",
    ("distance", "build_context"): "distance.build_context_s",
    ("distance", "pairwise"): "distance.pairwise_s",
    ("distance", "distance"): "distance.scalar_s",
    ("relevance", "build_relevance_extremes"): "relevance.build_s",
    ("relevance", "build_relevance_range"): "relevance.build_s",
    ("relevance", "find_bumps"): "relevance.find_bumps_s",
    ("synthgen", "gen_imbc"): "synthgen.gen_s",
    ("synthgen", "gen_imbr"): "synthgen.gen_s",
}

COUNT_METRICS = (
    "tabular.rows_read",
    "tabular.bytes_read",
    "tabular.rows_written",
    "tabular.bytes_written",
    "tabular.class_counts_calls",
    "distance.pairwise_calls",
    "distance.pairs",
    "distance.scalar_calls",
    "relevance.find_bumps_calls",
    "relevance.rows_scanned",
    "classif.calls",
    "regress.calls",
)
MAX_METRICS = ("distance.matrix_mb_max",)

# every per-cycle metric ``collect`` returns
CYCLE_METRICS = tuple(sorted(
    set(SPAN_METRICS.values())
    | set(COUNT_METRICS)
    | set(MAX_METRICS)
    | {f"{layer}.self_s" for layer in LAYERS if layer != "synthgen"}
    | {f"{layer}.errors" for layer in LAYERS}
))


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: span time minus the time child spans cover.

    Spans come from one thread through a stack, so children nest inside
    their parent and never overlap each other.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] += own[s.id]
    return out


def _path_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_read(counts, args, kwargs, result) -> None:
    counts["tabular.rows_read"] += result.n_rows
    counts["tabular.bytes_read"] += _path_size(args[0])


def _count_write(counts, args, kwargs, result) -> None:
    counts["tabular.rows_written"] += args[0].n_rows
    counts["tabular.bytes_written"] += _path_size(args[1])


def _count_pairwise(counts, args, kwargs, result) -> None:
    cells = result.shape[0] * result.shape[1]
    counts["distance.pairwise_calls"] += 1
    counts["distance.pairs"] += cells
    # computed from the shape (float64 cells), not measured
    mb = cells * 8 / 2**20
    counts["distance.matrix_mb_max"] = max(counts["distance.matrix_mb_max"], mb)


def _count_find_bumps(counts, args, kwargs, result) -> None:
    counts["relevance.find_bumps_calls"] += 1
    counts["relevance.rows_scanned"] += args[0].n_rows


def _count_call(metric: str):
    def count(counts, args, kwargs, result) -> None:
        counts[metric] += 1
    return count


COUNTERS: dict[tuple[str, str], Callable] = {
    ("tabular", "read_dataset"): _count_read,
    ("tabular", "write_dataset"): _count_write,
    ("tabular", "class_counts"): _count_call("tabular.class_counts_calls"),
    ("distance", "pairwise"): _count_pairwise,
    ("distance", "distance"): _count_call("distance.scalar_calls"),
    ("relevance", "find_bumps"): _count_find_bumps,
}


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get((layer, name))
        if counter is None and layer in ("classif", "regress"):
            counter = _count_call(f"{layer}.calls")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, parent, layer, name, start, end))
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def collect(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since the last reset."""
        out = {name: 0.0 for name in CYCLE_METRICS}
        for s in self.spans:
            metric = SPAN_METRICS.get((s.layer, s.name))
            if metric is not None:
                out[metric] += s.end - s.start
        for layer, secs in self_times(self.spans).items():
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] = secs
        out.update(self.counts)
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original))

    def install(self) -> None:
        """Wrap every cross-module call site in the rebalance package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = "rebalance"
        mods = {m: importlib.import_module(f"{pkg}.{m}") for m in LAYERS}
        for caller in CALLER_MODULES:
            mod = mods[caller]
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if value.__module__.startswith(pkg) and home in LAYERS and home != caller:
                    self._patch(mod, attr, home, value.__name__)
        # the harness calls cli.run; cli imports the generators lazily
        self._patch(mods["cli"], "run", "cli", "run")
        for attr in ("gen_imbc", "gen_imbr"):
            self._patch(mods["synthgen"], attr, "synthgen", attr)
        # methods that other modules call
        self._patch(mods["tabular"].Dataset, "take", "tabular", "take")
        self._patch(mods["tabular"].Dataset, "append", "tabular", "append")
        self._patch(mods["relevance"].RelevanceFn, "__call__", "relevance", "evaluate")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
