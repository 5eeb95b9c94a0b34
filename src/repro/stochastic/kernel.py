"""The walker entry point of the study pipeline.

:func:`record_trace` records one benchmark run with the vectorized event
kernel (:class:`~repro.stochastic.vecwalker.VecWalker`).  The scalar
:class:`~repro.stochastic.walker.CFGWalker` produces byte-identical
traces for the same seed; it is kept as the oracle the differential
tests and ``benchmarks/bench_kernel.py`` measure the kernel against, and
never runs in a study.
"""

from __future__ import annotations

from ..cfg.graph import ControlFlowGraph
from ..obs.spans import span
from .behavior import ProgramBehavior
from .trace import ExecutionTrace, assemble_trace
from .vecwalker import VecWalker


def record_trace(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 max_steps: int, seed: int = 0) -> ExecutionTrace:
    """Record one run of ``cfg`` under ``behavior``.

    The event batches stream through
    :func:`~repro.stochastic.trace.assemble_trace`, so the per-block
    event index arrives pre-built chunk by chunk and ``trace.events()``
    is free for the replay consumers.
    """
    with span("kernel.record_trace", steps=int(max_steps)):
        walker = VecWalker(cfg, behavior, seed=seed)
        return assemble_trace(walker.run_batches(max_steps),
                              cfg.num_nodes, build_index=True)
