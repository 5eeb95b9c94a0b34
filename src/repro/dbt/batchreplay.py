"""The replay sweeps: registration windows instead of heap pops.

Both engines here drive one threshold's registration stream through the
candidate-pool state machine and call back into the host state at every
optimisation trigger; they differ only in how they walk the stream.

:func:`run_scalar_replay` is the oracle: it pops one ``(position,
block)`` registration event at a time off a heap and runs
:class:`~repro.dbt.pool.CandidatePool` per event in Python.  It is kept
for the differential tests and ``benchmarks/bench_kernel.py`` only.

:func:`run_batched_replay` is the production engine.  It replays the
*same* event stream in bulk:

1. every live block's next registrations are gathered into one sorted
   **position window** (numpy concatenate + argsort over the precomputed
   per-block registration-position arrays);
2. the pool-trigger scan over a window is vectorised — first-occurrence
   detection, pool-membership lookup and the running pool-size cumsum
   find the earliest trigger as array operations;
3. only at a trigger does Python run: the pool is drained and the
   caller's optimisation callback fires, exactly like the oracle; the
   scan then resumes after the trigger with the updated freeze set.

Equivalence to the oracle (the differential suite in
``tests/dbt/test_replay_diff.py`` pins it case by case):

* within one threshold every registration event has a **distinct** trace
  position (exactly one block executes per step), so sorting a window by
  position reproduces the heap's total order exactly;
* between two triggers the only state that changes is pool membership —
  precisely what the cumulative-sum scan models — so the earliest
  trigger found by the scan is the trigger the oracle would hit;
* frozen blocks are excluded when a window is built and re-filtered
  after every trigger, matching the oracle's skip-on-pop check;
* the pool drains completely at every trigger (``CandidatePool.drain``),
  so blocks dropped by region formation without being optimised
  re-register later as fresh members, in both engines.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Mapping, Set, Tuple

import numpy as np

from .config import DBTConfig
from .pool import CandidatePool

#: The optimisation callback: ``(drained_pool_blocks, now) -> newly
#: frozen block ids``.  Bound to
#: :meth:`~repro.dbt.multireplay.ThresholdReplayState.optimize_blocks`.
OptimizeFn = Callable[[List[int], int], Set[int]]

#: Target registration events per batched window.
DEFAULT_REPLAY_CHUNK = 2048


@dataclass
class ReplaySweepStats:
    """What one batched sweep did, for the ``replay.kernel.batched.*``
    counters."""

    windows: int = 0
    events: int = 0


def run_batched_replay(positions: Mapping[int, np.ndarray],
                       config: DBTConfig,
                       optimize_blocks: OptimizeFn,
                       num_blocks: int,
                       chunk: int = DEFAULT_REPLAY_CHUNK
                       ) -> ReplaySweepStats:
    """Drain one threshold's registration stream in sorted windows.

    Args:
        positions: per block, its sorted registration positions (from
            :func:`~repro.dbt.multireplay.registration_positions`).
        config: the threshold's DBT knobs (pool trigger size and the
            register-twice rule are read here).
        optimize_blocks: drains into the host pipeline state; returns
            the newly frozen blocks so the sweep can stop materialising
            their remaining registrations.
        num_blocks: size of the block id space.
        chunk: target registration events per window.  Windows adapt to
            event density — only *live* (unfrozen, unexhausted) blocks
            contribute — so post-freeze registrations are never
            materialised and tiny thresholds cost what the scalar
            oracle pays, not the full registration count.
    """
    stats = ReplaySweepStats()
    ids = np.fromiter(positions.keys(), dtype=np.int64,
                      count=len(positions))
    if ids.size == 0:
        return stats
    regs = list(positions.values())
    lens = np.fromiter((len(r) for r in regs), dtype=np.int64,
                       count=len(regs))
    ptr = np.zeros(ids.size, dtype=np.int64)
    frozen = np.zeros(num_blocks, dtype=bool)
    pool_member = np.zeros(num_blocks, dtype=bool)
    pool_order: List[int] = []
    trigger_size = config.pool_trigger_size
    dup_triggers = config.register_twice_triggers

    while True:
        alive = np.flatnonzero((ptr < lens) & ~frozen[ids])
        if alive.size == 0:
            return stats
        # Gather up to k next registrations per live block.  The first
        # position *not* taken from any block bounds the window: below
        # it, the gathered candidates are the complete event set.
        k = max(1, chunk // alive.size)
        cand_pos: List[np.ndarray] = []
        cand_blk: List[np.ndarray] = []
        limit = None
        for i in alive:
            p = int(ptr[i])
            take = regs[i][p:p + k]
            cand_pos.append(take)
            cand_blk.append(np.full(len(take), ids[i], dtype=np.int64))
            if p + k < lens[i]:
                nxt = int(regs[i][p + k])
                if limit is None or nxt < limit:
                    limit = nxt
        pos = np.concatenate(cand_pos)
        blk = np.concatenate(cand_blk)
        if limit is not None:
            keep = pos < limit
            pos = pos[keep]
            blk = blk[keep]
        order = np.argsort(pos)
        pos = pos[order]
        blk = blk[order]
        # Every window event is consumed below (registered, skipped as
        # frozen, or a no-op duplicate), so pointers advance up front.
        counts = np.bincount(blk, minlength=num_blocks)
        ptr[alive] += counts[ids[alive]]
        stats.windows += 1
        stats.events += len(pos)

        i0 = 0
        n = len(pos)
        while i0 < n:
            live_rel = np.flatnonzero(~frozen[blk[i0:]])
            if live_rel.size == 0:
                break  # only frozen-block events remain in the window
            idxs = i0 + live_rel
            b = blk[idxs]
            first = np.zeros(len(b), dtype=bool)
            first[np.unique(b, return_index=True)[1]] = True
            is_new = first & ~pool_member[b]
            # Pool size after each prospective registration; a full
            # trigger fires at the first new block that fills the pool,
            # a dup trigger (when enabled) at the first re-registration.
            cum = len(pool_order) + np.cumsum(is_new)
            full_hits = np.flatnonzero(is_new & (cum >= trigger_size))
            t = int(full_hits[0]) if full_hits.size else -1
            if dup_triggers:
                dup_hits = np.flatnonzero(~is_new)
                if dup_hits.size and (t < 0 or int(dup_hits[0]) < t):
                    t = int(dup_hits[0])
            if t < 0:
                added = b[is_new]
                pool_order.extend(int(x) for x in added)
                pool_member[added] = True
                break  # window consumed without a trigger
            added = b[:t + 1][is_new[:t + 1]]
            pool_order.extend(int(x) for x in added)
            drained = pool_order
            pool_order = []
            pool_member[:] = False
            newly = optimize_blocks(drained, int(pos[idxs[t]]) + 1)
            if newly:
                frozen[list(newly)] = True
            i0 = int(idxs[t]) + 1


def run_scalar_replay(positions: Mapping[int, np.ndarray],
                      config: DBTConfig,
                      optimize_blocks: OptimizeFn) -> None:
    """The oracle heap walk: one Python iteration per registration.

    Same inputs and callback protocol as :func:`run_batched_replay`
    (it keeps no sweep stats).  Only each block's *next* registration
    is enqueued, so tiny thresholds don't flood the heap up front.
    """
    pool = CandidatePool(config)
    frozen: Set[int] = set()
    heap: List[Tuple[int, int, int]] = [
        (int(regs[0]), block, 1) for block, regs in positions.items()]
    heapq.heapify(heap)

    while heap:
        pos, block, k = heapq.heappop(heap)
        if block in frozen:
            continue  # counting stopped before this occurrence
        if pool.register(block):
            frozen.update(optimize_blocks(pool.drain(), pos + 1))
        if block not in frozen:
            regs = positions[block]
            if k < len(regs):
                heapq.heappush(heap, (int(regs[k]), block, k + 1))
