"""Per-block and per-edge count tables for the performance model.

A threshold sweep prices one recorded trace against many translation
maps (one per threshold).  Figure 17's model (paper §4.4) needs only
counts from the trace, never the step order itself:

* per block, how many executions fall before and after the step from
  which it runs optimised (``TranslationMap.optimized_at``);
* per dynamic edge, how many executions of its source fall after that
  step, to count the edges that leave optimised code unplanned.

:class:`CostTables` indexes exactly that.  Each executed block keeps its
sorted steps, taken by reference from the trace's per-block event index
(``trace.events()``, which the replay already built), and each block
with more than one distinct dynamic successor keeps, per successor but
the most frequent one, the sorted positions within those steps of the
executions that went there.  One ``searchsorted`` per optimised block
and per kept edge then prices a whole map; nothing here is per step.

Bitwise identity with the per-step sum is a checked precondition, not
luck: :class:`~repro.perfmodel.costs.CostModel` keeps every weight on
the 2⁻⁸ grid and the tables require integral block sizes, so every
per-block price is a multiple of 2⁻⁸.  The tables also reject traces
whose total price could reach 2⁵³ grid units, so every partial sum, in
any order, is exact.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..stochastic.trace import ExecutionTrace
from .costs import COST_GRID, DEFAULT_COSTS, CostModel

#: Largest total (in cost units) whose partial sums are all exact: 2⁵³
#: grid steps of :data:`~repro.perfmodel.costs.COST_GRID`.
EXACT_LIMIT = 2.0 ** 53 * COST_GRID


class CostTables:
    """Trace-invariant counts of the cost estimators, computed once.

    Attributes:
        num_blocks: size of the block id space.
        num_steps: steps in the underlying trace.
        sizes: float instruction size per block id.
        costs: the cost calibration the prices were computed under.
        block_ids: ids of the executed blocks, ascending.
        steps: per executed block, its sorted global steps (the event
            index's own arrays, not copies).
        use: executions per executed block.
        unopt_price: per executed block, the cost of one unoptimised
            execution (``size * interp_cost + profile_overhead``).
        opt_price: per executed block, the cost of one optimised
            execution under the flat model (``size * opt_cost``).
        succ_use: per executed block, its executions that have a
            successor (all but the trace's last step).
        major_succ: per executed block, its most frequent dynamic
            successor (``-1`` when it has none).
        edge_bounds: ``edge_bounds[i]:edge_bounds[i + 1]`` are executed
            block ``i``'s other successor edges.
        edge_dst: per such edge, its destination block.
        edge_pos_bounds: ``edge_pos_bounds[e]:edge_pos_bounds[e + 1]``
            slices ``edge_pos`` to edge ``e``'s executions.
        edge_pos: per edge, ascending positions within the source
            block's ``steps`` of the executions that took it.
    """

    def __init__(self, trace: ExecutionTrace,
                 block_sizes: Sequence[int],
                 costs: CostModel = DEFAULT_COSTS):
        sizes = np.asarray(block_sizes, dtype=float)
        if len(sizes) != trace.num_blocks:
            raise ValueError("block_sizes length does not match block count")
        if not np.array_equal(sizes, np.floor(sizes)):
            raise ValueError("block sizes must be integral")
        events = trace.events()
        n = trace.num_steps
        self.num_blocks = trace.num_blocks
        self.num_steps = n
        self.sizes = sizes
        self.costs = costs
        self.block_ids = np.array(sorted(events), dtype=np.int64)
        self.steps = [events[int(b)].steps for b in self.block_ids]
        self.use = np.array([len(s) for s in self.steps], dtype=np.int64)
        block_sizes_used = sizes[self.block_ids]
        self.unopt_price = (block_sizes_used * costs.interp_cost +
                            costs.profile_overhead)
        self.opt_price = block_sizes_used * costs.opt_cost
        if float(self.use @ self.unopt_price) >= EXACT_LIMIT:
            raise ValueError("trace too long for exact cost sums")

        blocks = trace.blocks
        succ_use = self.use.copy()
        major = np.full(len(self.block_ids), -1, dtype=np.int64)
        edge_bounds = [0]
        edge_dst, edge_pos = [], []
        for i, steps in enumerate(self.steps):
            if len(steps) and steps[-1] == n - 1:
                steps = steps[:-1]  # the last step has no successor
                succ_use[i] -= 1
            if len(steps):
                succ = blocks[steps + 1]
                counts = np.bincount(succ)
                major[i] = int(np.argmax(counts))
                if counts[major[i]] != len(succ):
                    for dst in np.flatnonzero(counts):
                        if dst != major[i]:
                            edge_dst.append(int(dst))
                            edge_pos.append(np.flatnonzero(succ == dst))
            edge_bounds.append(len(edge_dst))
        self.succ_use = succ_use
        self.major_succ = major
        self.edge_bounds = np.array(edge_bounds, dtype=np.int64)
        self.edge_dst = np.array(edge_dst, dtype=np.int64)
        self.edge_pos_bounds = np.zeros(len(edge_pos) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in edge_pos], out=self.edge_pos_bounds[1:])
        self.edge_pos = (np.concatenate(edge_pos) if edge_pos
                         else np.zeros(0, dtype=np.int64))

    def runs_before(self, optimized_at: np.ndarray) -> np.ndarray:
        """Per executed block, its executions before ``optimized_at``.

        ``optimized_at`` is the translation map's per-block float array
        (``inf`` = never optimised).  Only blocks optimised inside the
        trace are searched; the step is clamped to an int first so the
        search stays on the int64 step array.
        """
        before = self.use.copy()
        at = optimized_at[self.block_ids]
        for i in np.flatnonzero(at < self.num_steps):
            before[i] = np.searchsorted(self.steps[i], math.ceil(at[i]))
        return before

    def exits_after(self, i: int, before: int, internal, tails) -> int:
        """Executions of block ``i`` from its ``before``-th on whose
        edge is neither in ``internal`` nor leaves a block in ``tails``.
        """
        src = int(self.block_ids[i])
        left = max(int(self.succ_use[i]) - before, 0)
        if left == 0 or src in tails:
            return 0
        exits = 0
        for e in range(self.edge_bounds[i], self.edge_bounds[i + 1]):
            pos = self.edge_pos[self.edge_pos_bounds[e]:
                                self.edge_pos_bounds[e + 1]]
            count = len(pos) - int(np.searchsorted(pos, before))
            left -= count
            if (src, int(self.edge_dst[e])) not in internal:
                exits += count
        if (src, int(self.major_succ[i])) not in internal:
            exits += left
        return exits
