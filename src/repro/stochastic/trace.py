"""Execution traces: the block/branch event stream in numpy form.

A trace is the complete record of one program run at block granularity:
``blocks[s]`` is the id of the block executed at step ``s`` and
``taken[s]`` is its branch outcome (1 taken / 0 fall-through / -1 for
blocks without a conditional branch).

Everything the study needs — AVEP, INIP(T) for *any* threshold, the
performance model, profiling-operation accounting — derives from this one
array pair, so each benchmark+input is simulated exactly once and replayed
many times (see :mod:`repro.dbt.replay`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: sentinel in the taken array for non-branch block executions.
NO_BRANCH = -1


class TraceError(ValueError):
    """Raised for malformed or inconsistent traces."""


@dataclass
class BlockEvents:
    """Per-block view of a trace (built once, queried many times).

    Attributes:
        steps: sorted global steps at which the block executed.
        taken_prefix: ``taken_prefix[k]`` = taken outcomes among the first
            ``k`` executions (so ``taken_prefix[len(steps)]`` is the total);
            all zeros for non-branch blocks.
    """

    steps: np.ndarray
    taken_prefix: np.ndarray

    @property
    def use(self) -> int:
        """Total executions of the block in the trace."""
        return int(len(self.steps))

    @property
    def taken(self) -> int:
        """Total taken outcomes of the block's branch in the trace."""
        return int(self.taken_prefix[-1])

    def use_before(self, step: int) -> int:
        """Executions strictly before global ``step``."""
        return int(np.searchsorted(self.steps, step, side="left"))

    def taken_before(self, step: int) -> int:
        """Taken outcomes strictly before global ``step``."""
        return int(self.taken_prefix[self.use_before(step)])

    def step_of_use(self, k: int) -> Optional[int]:
        """Global step of the block's ``k``-th execution (1-based), if any."""
        if 1 <= k <= len(self.steps):
            return int(self.steps[k - 1])
        return None


class ExecutionTrace:
    """One complete block-level run of a benchmark.

    Args:
        blocks: int array of executed block ids, in order.
        taken: parallel int array of branch outcomes (1/0, or
            :data:`NO_BRANCH` when the block has no conditional branch).
        num_blocks: size of the block id space (ids are ``< num_blocks``).
    """

    def __init__(self, blocks: np.ndarray, taken: np.ndarray,
                 num_blocks: int):
        blocks = np.asarray(blocks, dtype=np.int32)
        taken = np.asarray(taken, dtype=np.int8)
        if blocks.shape != taken.shape or blocks.ndim != 1:
            raise TraceError("blocks/taken must be parallel 1-D arrays")
        if len(blocks) and (blocks.min() < 0 or blocks.max() >= num_blocks):
            raise TraceError("block id outside [0, num_blocks)")
        self.blocks = blocks
        self.taken = taken
        self.num_blocks = int(num_blocks)
        self._events: Optional[Dict[int, BlockEvents]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def num_steps(self) -> int:
        """Total block executions recorded."""
        return len(self.blocks)

    # -- aggregate counters ----------------------------------------------------

    def use_counts(self) -> np.ndarray:
        """Whole-run use count per block id (the AVEP use counters)."""
        return np.bincount(self.blocks, minlength=self.num_blocks).astype(
            np.int64)

    def taken_counts(self) -> np.ndarray:
        """Whole-run taken count per block id (the AVEP taken counters)."""
        is_taken = self.taken == 1
        return np.bincount(self.blocks[is_taken],
                           minlength=self.num_blocks).astype(np.int64)

    def branch_blocks(self) -> np.ndarray:
        """Ids of blocks that executed a conditional branch at least once."""
        has_branch = self.taken != NO_BRANCH
        return np.unique(self.blocks[has_branch])

    # -- per-block event index ---------------------------------------------------

    def events(self) -> Dict[int, BlockEvents]:
        """Per-block event index (cached after first construction)."""
        if self._events is None:
            self._events = self._build_events()
        return self._events

    def attach_events(self, events: Dict[int, BlockEvents]) -> None:
        """Install a pre-built per-block event index.

        The streaming producers (:class:`EventIndexBuilder` fed by the
        vector kernel) index events chunk by chunk as
        the trace is generated; attaching the result here lets every
        consumer skip the full-trace argsort of :meth:`events`.  The index
        must describe exactly this trace — a cheap total-step check guards
        against the obvious mixups, and the differential tests pin exact
        equality with :meth:`_build_events`.
        """
        total = sum(ev.use for ev in events.values())
        if total != len(self.blocks):
            raise TraceError(
                f"event index covers {total} steps, trace has "
                f"{len(self.blocks)}")
        self._events = events

    def _build_events(self) -> Dict[int, BlockEvents]:
        builder = EventIndexBuilder(self.num_blocks)
        builder.add(self.blocks, self.taken)
        return builder.finalize()

    def edge_counts(self) -> Dict[Tuple[int, int], int]:
        """Dynamic traversal count of every executed control-flow edge."""
        if len(self.blocks) < 2:
            return {}
        src = self.blocks[:-1]
        dst = self.blocks[1:]
        pairs = src.astype(np.int64) * self.num_blocks + dst
        unique, counts = np.unique(pairs, return_counts=True)
        return {(int(p // self.num_blocks), int(p % self.num_blocks)):
                int(c) for p, c in zip(unique, counts)}

    def validate_against_cfg(self, cfg) -> None:
        """Check the trace is a legal walk of ``cfg``.

        Raises :class:`TraceError` if block counts disagree, any recorded
        transition does not follow a CFG edge, or a branch outcome is
        recorded for a non-branch block (and vice versa).  The replay DBT
        and the analysis assume these invariants; validating externally
        sourced traces up front turns silent corruption into a loud
        error.
        """
        if cfg.num_nodes != self.num_blocks:
            raise TraceError(
                f"trace has {self.num_blocks} blocks, CFG has "
                f"{cfg.num_nodes}")
        for i in range(len(self.blocks)):
            block = int(self.blocks[i])
            outcome = int(self.taken[i])
            is_branch = cfg.is_branch(block)
            if is_branch and outcome == NO_BRANCH:
                raise TraceError(
                    f"step {i}: branch block {block} recorded without an "
                    "outcome")
            if not is_branch and outcome != NO_BRANCH:
                raise TraceError(
                    f"step {i}: non-branch block {block} recorded with "
                    f"outcome {outcome}")
            if i + 1 < len(self.blocks):
                nxt = int(self.blocks[i + 1])
                succ = cfg.successors(block)
                if is_branch:
                    expected = succ[0] if outcome == 1 else succ[1]
                    if nxt != expected:
                        raise TraceError(
                            f"step {i}: branch block {block} with outcome "
                            f"{outcome} must go to {expected}, trace goes "
                            f"to {nxt}")
                elif succ and nxt != succ[0]:
                    raise TraceError(
                        f"step {i}: block {block} must fall through to "
                        f"{succ[0]}, trace goes to {nxt}")
                elif not succ:
                    raise TraceError(
                        f"step {i}: exit block {block} is not last in the "
                        "trace")

    # -- persistence -------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to ``path`` (.npz)."""
        np.savez_compressed(path, blocks=self.blocks, taken=self.taken,
                            num_blocks=np.int64(self.num_blocks))

    @classmethod
    def load(cls, path: str) -> "ExecutionTrace":
        """Load a trace previously stored with :meth:`save`."""
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        data = np.load(path)
        return cls(data["blocks"], data["taken"],
                   int(data["num_blocks"]))

    @classmethod
    def from_sequences(cls, blocks: Sequence[int], taken: Sequence[int],
                       num_blocks: int) -> "ExecutionTrace":
        """Build a trace from plain Python sequences (tests, examples)."""
        return cls(np.asarray(blocks, dtype=np.int32),
                   np.asarray(taken, dtype=np.int8), num_blocks)


class EventIndexBuilder:
    """Incrementally builds the per-block event index from event chunks.

    The whole-trace :meth:`ExecutionTrace._build_events` is one stable
    argsort over the full run; this builder performs the same grouping one
    chunk at a time (each chunk's local argsort shifted by the global step
    offset), so the streaming vector kernel can maintain counter tables
    without ever materialising a second full-length array.
    :meth:`finalize` concatenates each block's per-chunk pieces — chunks
    arrive in step order, so the concatenation is already sorted — and
    produces a dict **identical** to ``_build_events`` on the
    concatenated trace (the differential suite pins this).
    """

    def __init__(self, num_blocks: int):
        self.num_blocks = int(num_blocks)
        self._offset = 0
        self._steps: Dict[int, list] = {}
        self._outcomes: Dict[int, list] = {}

    @property
    def num_steps(self) -> int:
        """Total steps indexed so far."""
        return self._offset

    def add(self, blocks: np.ndarray, taken: np.ndarray) -> None:
        """Index one chunk of parallel ``blocks``/``taken`` arrays.

        The per-event work is all bulk numpy: one stable argsort groups
        the chunk by block, then the shifted step array and the 0/1
        outcome array are built whole-chunk; the only Python loop slices
        *views* of those arrays per present block.
        """
        n = len(blocks)
        if n == 0:
            return
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        steps = order.astype(np.int64)
        steps += self._offset
        outcomes = (taken[order] == 1).astype(np.int64)
        boundaries = np.flatnonzero(np.diff(sorted_blocks)) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        ends = np.append(boundaries, n)
        for j, bid in enumerate(sorted_blocks[starts]):
            bid = int(bid)
            lo, hi = starts[j], ends[j]
            self._steps.setdefault(bid, []).append(steps[lo:hi])
            self._outcomes.setdefault(bid, []).append(outcomes[lo:hi])
        self._offset += n

    def add_batch(self, batch) -> None:
        """Index one :class:`repro.interp.events.EventBatch`."""
        self.add(batch.blocks, batch.taken)

    def finalize(self) -> Dict[int, BlockEvents]:
        """Assemble the per-block index from the accumulated chunks."""
        events: Dict[int, BlockEvents] = {}
        for bid, pieces in self._steps.items():
            steps = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            outs = self._outcomes[bid]
            outcomes = outs[0] if len(outs) == 1 else np.concatenate(outs)
            prefix = np.zeros(len(steps) + 1, dtype=np.int64)
            np.cumsum(outcomes, out=prefix[1:])
            events[bid] = BlockEvents(steps=steps, taken_prefix=prefix)
        return events


def assemble_trace(batches, num_blocks: int,
                   build_index: bool = True) -> ExecutionTrace:
    """Concatenate an event-batch stream into an :class:`ExecutionTrace`.

    ``batches`` is any iterable of objects with parallel ``blocks`` /
    ``taken`` arrays (duck-typed so callers can pass
    :class:`repro.interp.events.EventBatch` chunks or raw pairs).  With
    ``build_index`` the per-block event index is built incrementally
    during the same pass and attached, so ``trace.events()`` is free.
    """
    chunks_blocks = []
    chunks_taken = []
    builder = EventIndexBuilder(num_blocks) if build_index else None
    for batch in batches:
        chunks_blocks.append(batch.blocks)
        chunks_taken.append(batch.taken)
        if builder is not None:
            builder.add(batch.blocks, batch.taken)
    if chunks_blocks:
        blocks = np.concatenate(chunks_blocks)
        taken = np.concatenate(chunks_taken)
    else:
        blocks = np.zeros(0, dtype=np.int32)
        taken = np.zeros(0, dtype=np.int8)
    trace = ExecutionTrace(blocks, taken, num_blocks)
    if builder is not None:
        trace.attach_events(builder.finalize())
    return trace
