"""Replay states driven by an explicitly chosen engine.

Production code replays through :class:`~repro.dbt.MultiThresholdReplay`,
which always runs the batched sweep at its default window size.  The
differential suites need both engines side by side — the scalar
heap-walk oracle and the batched sweep at an arbitrary window — over
the same :class:`~repro.dbt.ThresholdReplayState` the production path
fills, so every consumer (snapshots, translation maps, the fingerprint
helpers) reads both the same way.
"""

from repro.cfg.loops import find_loops
from repro.dbt import ThresholdReplayState
from repro.dbt.batchreplay import run_batched_replay, run_scalar_replay
from repro.dbt.multireplay import registration_positions


def _state(trace, cfg, config, loops):
    return ThresholdReplayState(trace, cfg, config, loops or find_loops(cfg))


def oracle_replay(trace, cfg, config, loops=None):
    """One threshold replayed by the scalar heap-walk oracle."""
    state = _state(trace, cfg, config, loops)
    run_scalar_replay(
        registration_positions(trace.events(), config.threshold),
        config, state.optimize_blocks)
    return state


def batched_replay(trace, cfg, config, chunk, loops=None):
    """One threshold replayed by the batched sweep at window ``chunk``."""
    state = _state(trace, cfg, config, loops)
    run_batched_replay(
        registration_positions(trace.events(), config.threshold),
        config, state.optimize_blocks, trace.num_blocks, chunk=chunk)
    return state
