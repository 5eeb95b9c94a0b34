"""Scalable block-level stochastic execution.

* :mod:`repro.stochastic.behavior` — time-varying branch models (phases,
  warm-up, drift) and the trip-count ⇄ loop-back-probability relation.
* :mod:`repro.stochastic.trace` — numpy-backed execution traces and their
  lazily built per-block event index.
* :mod:`repro.stochastic.walker` — the scalar CFG walker (the oracle),
  plus adapters between traces and the interpreter's listener protocol.
* :mod:`repro.stochastic.kernel` — the instrumented
  :func:`~repro.stochastic.kernel.record_trace` entry point, which drives
  the compiled walk loop (byte-identical to the scalar walker).
"""

from .behavior import (BranchBehavior, Phase, ProgramBehavior, drifting,
                       loopback_for_trip_count, phased, steady,
                       trip_count_for_loopback, warmup)
from .kernel import numpy_uniform_stream, record_trace
from .trace import NO_BRANCH, BlockEvents, ExecutionTrace, TraceError
from .walker import CFGWalker, TraceRecorder, replay_trace, walk

__all__ = [
    "NO_BRANCH", "BlockEvents", "BranchBehavior", "CFGWalker",
    "ExecutionTrace", "Phase", "ProgramBehavior", "TraceError",
    "TraceRecorder", "drifting", "loopback_for_trip_count",
    "numpy_uniform_stream", "phased", "record_trace", "replay_trace",
    "steady", "trip_count_for_loopback", "walk", "warmup",
]
