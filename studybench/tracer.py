"""Outside-in span tracing of the study pipeline.

The recorder wraps the public entry points of each layer *where their
callers look them up* (module attributes and class methods), so the
program itself is unchanged: a traced study runs the same code as an
untraced one, plus one wrapper call per boundary crossing.

Every span records its name, start, end, the index of the span that
caused it, and a job id (the benchmark name) shared by all spans of one
benchmark's job.  Counts are taken at the same boundaries.  Spans are
kept in memory and written out once, when the study is over.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Layer boundaries: (module, attribute path, span name).  The span name
#: is the per-layer metric stem (``walker`` -> ``walker.s``).
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.harness.runner", "study_benchmark", "job"),
    ("repro.workloads.spec", "SyntheticBenchmark.trace", "walker"),
    ("repro.core.study", "avep_from_trace", "profiles"),
    ("repro.core.study", "compare_flat_profiles", "train_compare"),
    ("repro.core.study", "compare_train_regions", "train_compare"),
    ("repro.dbt.multireplay", "MultiThresholdReplay.run", "replay"),
    ("repro.dbt.multireplay", "ThresholdReplayState.snapshot", "snapshot"),
    ("repro.core.study", "compare_inip_to_avep", "navep"),
    ("repro.harness.runner", "CostTables", "perfmodel.tables"),
    ("repro.harness.runner", "estimate_cost", "perfmodel.price"),
    ("repro.harness.runner", "save_shard", "cache.write"),
    ("repro.harness.runner", "load_shard", "cache.read"),
    # Count only, no span: the NAVEP solve's graph size.
    ("repro.core.comparison", "normalize_avep", "navep.graph_nodes"),
)

#: Spans of the study's subtree whose self time is harness work (job
#: set-up, result assembly, dispatch, merge) rather than a pipeline layer.
HARNESS_SPANS = ("study", "job")


def _array_bytes(obj: Any) -> int:
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray))


def _count(name: str, args: tuple, result: Any) -> Dict[str, float]:
    """Work counts taken at a boundary, keyed by per-layer metric name."""
    if name == "walker":
        return {"walker.steps": len(result)}
    if name == "perfmodel.price":
        return {"perfmodel.steps_priced": len(args[0])}
    if name == "perfmodel.tables":
        return {"perfmodel.tables_mb": _array_bytes(result) / 2**20}
    return {}


class Recorder:
    """In-memory span and count store for one traced process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._job: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "job": self._job}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span (and the boundary's counts) around it."""
        if name == "navep.graph_nodes":
            @functools.wraps(fn)
            def counted(graph, *args, **kwargs):
                self.counts[name] += len(graph.nodes)
                return fn(graph, *args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_job = self._job
            if name == "job":
                self._job = args[0].name
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                self._job = outer_job
            for key, value in _count(name, args, result).items():
                if key.endswith("_mb"):  # a footprint: keep the peak
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value
            return result
        return traced

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Patch every boundary for the ``with`` body, then restore."""
        undo = []
        for module_name, path, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original))
            undo.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def export(self) -> Dict[str, Any]:
        """JSON-ready spans and counts."""
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its children (overlapping children counted
    once, children clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append((record["start"],
                                               record["end"]))
    out = []
    for index, record in enumerate(spans):
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append((end - start) - covered)
    return out


def descendants(spans: List[Dict[str, Any]], root: int) -> List[int]:
    """Indices of ``root`` and every span below it."""
    below = {root}
    for index, record in enumerate(spans):
        if record["parent"] in below:
            below.add(index)
    return sorted(below)


def layer_self_times(spans: List[Dict[str, Any]],
                     root: int) -> Dict[str, float]:
    """Self time summed per span name, over ``root``'s subtree."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for index in descendants(spans, root):
        totals[spans[index]["name"]] += own[index]
    return dict(totals)


def call_seconds(spans: List[Dict[str, Any]], name: str) -> List[float]:
    """Durations of every span called ``name``."""
    return [r["end"] - r["start"] for r in spans if r["name"] == name]
