"""Trace-replay performance estimation (paper §4.4, Figure 17).

Given a recorded trace and the translation map of a finished DBT run, this
module computes the modelled execution cost of the run and the relative
performance across thresholds (base = threshold 1, exactly as the paper
normalises Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..dbt.codecache import TranslationMap
from ..obs.registry import inc
from ..obs.spans import span
from ..stochastic.trace import ExecutionTrace
from .costs import DEFAULT_COSTS, CostModel
from .tables import CostTables


@dataclass
class CostBreakdown:
    """Modelled cost of one run, by mechanism.

    ``total`` is the sum of the four components; ``relative_performance``
    against another run is ``other.total / self.total`` (higher = faster).
    """

    unoptimized: float
    optimized: float
    side_exits: float
    translation: float
    num_side_exits: int
    optimized_fraction: float

    @property
    def total(self) -> float:
        """Total modelled cost."""
        return (self.unoptimized + self.optimized + self.side_exits +
                self.translation)


def _breakdown(tables: CostTables, tmap: TranslationMap, costs: CostModel,
               opt_price: np.ndarray) -> CostBreakdown:
    """Price one translation map against precomputed trace tables.

    ``opt_price`` is the per-executed-block cost of one optimised
    execution — the flat ``tables.opt_price`` for the analytic model,
    or measured per-block costs for the derived model.  With on-grid
    prices (see :mod:`repro.perfmodel.tables`) every sum is exact, so
    the totals equal the per-step sums bit for bit.
    """
    n = tables.num_steps
    before = tables.runs_before(tmap.optimized_at)
    after = tables.use - before

    # Side exits: an optimised block whose *dynamic* successor edge is
    # not covered by any region's internal/back edges fell out of
    # translated code unexpectedly.  Exits from region tails are the
    # planned region exit and are free.
    num_side_exits = 0
    if n > 1 and tmap.internal_pairs:
        for i in np.flatnonzero(after):
            num_side_exits += tables.exits_after(
                i, int(before[i]), tmap.internal_pairs, tmap.tail_blocks)

    translation = float(tmap.instructions_translated(tables.sizes) *
                        costs.translation_cost)

    return CostBreakdown(
        unoptimized=float(before @ tables.unopt_price),
        optimized=float(after @ opt_price),
        side_exits=num_side_exits * costs.side_exit_penalty,
        translation=translation, num_side_exits=num_side_exits,
        optimized_fraction=int(after.sum()) / n if n else 0.0)


def estimate_cost(trace: ExecutionTrace, tmap: TranslationMap,
                  block_sizes: Sequence[int],
                  costs: CostModel = DEFAULT_COSTS,
                  tables: Optional[CostTables] = None) -> CostBreakdown:
    """Price ``trace`` run under the translation map (Figure 17's model).

    Args:
        trace: the recorded run.
        tmap: which blocks ran optimised from when, and which dynamic
            edges stayed inside optimised regions.
        block_sizes: static instruction count per block id (the walker has
            no instruction stream, so sizes come from the workload's CFG
            metadata or :meth:`Program.block_table`).
        costs: the cost calibration.
        tables: optional precomputed :class:`CostTables` for this
            (trace, block_sizes, costs) triple — pass one when sweeping
            many translation maps over the same trace so the
            trace-invariant work is paid once.  Results are bit-identical
            with or without.
    """
    if tables is None:
        tables = CostTables(trace, block_sizes, costs)
    elif tables.num_steps != trace.num_steps:
        raise ValueError("tables were built from a different trace")

    with span("perfmodel.estimate_cost", steps=trace.num_steps):
        breakdown = _breakdown(tables, tmap, costs, tables.opt_price)
    inc("perfmodel.estimates")
    inc("perfmodel.side_exits", breakdown.num_side_exits)
    return breakdown


def relative_performance(costs_by_threshold: Dict[int, CostBreakdown],
                         base_threshold: int = 1) -> Dict[int, float]:
    """Figure 17 normalisation: performance relative to the base threshold.

    ``perf(T) = cost(base) / cost(T)`` — higher is better, base = 1.0.
    """
    if base_threshold not in costs_by_threshold:
        raise KeyError(f"base threshold {base_threshold} missing")
    base = costs_by_threshold[base_threshold].total
    return {t: base / c.total for t, c in costs_by_threshold.items()}
