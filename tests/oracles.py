"""Scalar oracles the differential suites compare production paths to.

Replay states driven by an explicitly chosen engine: production code
replays through :class:`~repro.dbt.MultiThresholdReplay`,
which always runs the batched sweep at its default window size.  The
differential suites need both engines side by side — the scalar
heap-walk oracle and the batched sweep at an arbitrary window — over
the same :class:`~repro.dbt.ThresholdReplayState` the production path
fills, so every consumer (snapshots, translation maps, the fingerprint
helpers) reads both the same way.

The per-step cost estimator: :func:`oracle_cost` prices a translation
map one trace step at a time — per-step prices summed under a per-step
"optimised yet?" mask — the reference for the per-block and per-edge
pricer of :class:`~repro.perfmodel.CostTables`.
"""

import numpy as np

from repro.cfg.loops import find_loops
from repro.dbt import ThresholdReplayState
from repro.dbt.batchreplay import run_batched_replay, run_scalar_replay
from repro.dbt.multireplay import registration_positions
from repro.perfmodel import DEFAULT_COSTS, CostBreakdown


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


def oracle_cost(trace, tmap, block_sizes, costs=DEFAULT_COSTS,
                opt_cost=None):
    """Figure 17's cost of ``trace`` under ``tmap``, priced step by step.

    ``opt_cost`` optionally replaces the flat optimised cost with one
    cost per block id (the measured model of
    :func:`repro.perfmodel.estimate_cost_measured`).
    """
    sizes = np.asarray(block_sizes, dtype=float)
    if len(sizes) != trace.num_blocks:
        raise ValueError("block_sizes length does not match block count")
    blocks = trace.blocks.astype(np.int64)
    step_sizes = sizes[blocks]
    unopt_price = step_sizes * costs.interp_cost + costs.profile_overhead
    opt_price = (step_sizes * costs.opt_cost if opt_cost is None
                 else np.asarray(opt_cost, dtype=float)[blocks])
    optimized = tmap.optimized_at[blocks] <= np.arange(len(blocks))

    unopt_total = float(np.sum(np.where(~optimized, unopt_price, 0.0)))
    opt_total = float(np.sum(np.where(optimized, opt_price, 0.0)))

    num_side_exits = 0
    if len(blocks) > 1 and tmap.internal_pairs:
        src = blocks[:-1]
        codes = src * trace.num_blocks + blocks[1:]
        internal = np.array([s * trace.num_blocks + d
                             for s, d in tmap.internal_pairs],
                            dtype=np.int64)
        tails = np.zeros(trace.num_blocks, dtype=bool)
        tails[list(tmap.tail_blocks)] = True
        side = optimized[:-1] & ~np.isin(codes, internal) & ~tails[src]
        num_side_exits = int(np.sum(side))

    return CostBreakdown(
        unoptimized=unopt_total, optimized=opt_total,
        side_exits=num_side_exits * costs.side_exit_penalty,
        translation=float(tmap.instructions_translated(sizes) *
                          costs.translation_cost),
        num_side_exits=num_side_exits,
        optimized_fraction=(float(np.mean(optimized))
                            if len(blocks) else 0.0))
