"""Scalable block-level stochastic execution.

* :mod:`repro.stochastic.behavior` — time-varying branch models (phases,
  warm-up, drift) and the trip-count ⇄ loop-back-probability relation.
* :mod:`repro.stochastic.trace` — numpy-backed execution traces plus the
  incremental per-block event-index builder.
* :mod:`repro.stochastic.walker` — the scalar CFG walker (the oracle),
  plus adapters between traces and the interpreter's listener protocol.
* :mod:`repro.stochastic.vecwalker` — the numpy-vectorized event kernel,
  byte-identical to the scalar walker.
* :mod:`repro.stochastic.kernel` — the instrumented
  :func:`~repro.stochastic.kernel.record_trace` entry point.
"""

from .behavior import (BranchBehavior, Phase, ProgramBehavior, drifting,
                       loopback_for_trip_count, phased, steady,
                       trip_count_for_loopback, warmup)
from .kernel import record_trace
from .trace import (NO_BRANCH, BlockEvents, EventIndexBuilder,
                    ExecutionTrace, TraceError, assemble_trace)
from .vecwalker import VecWalker, numpy_uniform_stream, vec_walk
from .walker import CFGWalker, TraceRecorder, replay_trace, walk

__all__ = [
    "NO_BRANCH", "BlockEvents", "BranchBehavior", "CFGWalker",
    "EventIndexBuilder", "ExecutionTrace", "Phase", "ProgramBehavior",
    "TraceError", "TraceRecorder", "VecWalker", "assemble_trace",
    "drifting", "loopback_for_trip_count", "numpy_uniform_stream",
    "phased", "record_trace", "replay_trace", "steady",
    "trip_count_for_loopback", "vec_walk", "walk", "warmup",
]
