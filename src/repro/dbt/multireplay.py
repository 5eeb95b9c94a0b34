"""Trace replay of the two-phase pipeline: one trace walk, every INIP(T).

Running the live translator once per (benchmark, threshold) pair would
re-walk the whole event stream for every threshold.  Because the DBT's
decisions depend only on *when each block reaches multiples of T* —
sparse events — the pipeline can be replayed over the per-block event
index of a recorded :class:`~repro.stochastic.trace.ExecutionTrace` in
time proportional to the number of registrations, not the number of
steps.

:class:`MultiThresholdReplay` keeps the per-threshold pipeline state
(candidate pool, freeze steps, regions) for every swept threshold and
drives each state's registration stream through the batched windowed
sweep of :mod:`repro.dbt.batchreplay`.  Threshold states never interact
— each has its own pool, freeze map and region former — so one sweep
per state is event-for-event equivalent to N independent replays.

The replay is algebraically identical to :class:`repro.dbt.translator
.TwoPhaseDBT` fed the same trace (``tests/dbt/test_replay_equivalence
.py``), and the batched sweep equals the scalar heap-walk oracle
:func:`~repro.dbt.batchreplay.run_scalar_replay`
(``tests/dbt/test_replay_diff.py``, ``tests/dbt/test_multireplay.py``).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..obs.profile import sampled_span
from ..obs.registry import inc
from ..obs.spans import span
from ..profiles.model import BlockProfile, ProfileSnapshot, Region
from ..stochastic.trace import BlockEvents, ExecutionTrace
from .batchreplay import run_batched_replay
from .codecache import TranslationMap, translation_map_from_replay
from .config import DBTConfig
from .regions import RegionFormer


def registration_positions(events: Mapping[int, BlockEvents],
                           threshold: int) -> Dict[int, np.ndarray]:
    """Per block, the trace positions of its registration events.

    The k-th registration of a block is its ``(k*T)``-th execution, i.e.
    ``steps[k*T - 1]``; one strided slice pulls all of them out of the
    sorted step array at once, so the replay sweep indexes a
    precomputed array instead of re-deriving positions event by event.
    """
    positions: Dict[int, np.ndarray] = {}
    for block, ev in events.items():
        regs = ev.steps[threshold - 1::threshold]
        if len(regs):
            positions[block] = regs
    return positions


def frozen_counter_view(events: Mapping[int, BlockEvents],
                        freeze_step: Mapping[int, int],
                        now: int) -> Callable[[int], Tuple[int, int]]:
    """Counter view at live-step ``now`` (= trace position + 1).

    A block's counters stop at its freeze step; unfrozen blocks report
    their counts up to ``now``.  This is the optimiser's (frozen-aware)
    view of the profile.
    """
    events_get = events.get
    freeze_get = freeze_step.get

    def view(block: int) -> Tuple[int, int]:
        ev = events_get(block)
        if ev is None:
            return (0, 0)
        limit = freeze_get(block)
        upto = now if limit is None else min(now, limit)
        use = ev.use_before(upto)
        taken = int(ev.taken_prefix[use])
        return (use, taken)

    return view


def snapshot_from_state(trace: ExecutionTrace,
                        events: Mapping[int, BlockEvents],
                        config: DBTConfig,
                        freeze_step: Mapping[int, int],
                        regions: List[Region],
                        input_name: str = "ref") -> ProfileSnapshot:
    """Distil a finished replay state into the INIP(T) snapshot."""
    blocks: Dict[int, BlockProfile] = {}
    profiling_ops = 0
    freeze_get = freeze_step.get
    for block, ev in events.items():
        limit = freeze_get(block)
        use = ev.use if limit is None else ev.use_before(limit)
        taken = int(ev.taken_prefix[use])
        if use > 0:
            blocks[block] = BlockProfile(
                block_id=block, use=use, taken=taken, frozen_at=limit)
        profiling_ops += use + taken
    snapshot = ProfileSnapshot(
        label=f"INIP({config.threshold})",
        input_name=input_name,
        threshold=config.threshold,
        blocks=blocks,
        regions=list(regions),
        total_steps=trace.num_steps,
        profiling_ops=profiling_ops)
    snapshot.validate()
    return snapshot


class ThresholdReplayState:
    """One threshold's pipeline state inside a replay.

    After :meth:`MultiThresholdReplay.run` this carries the finished
    ``freeze_step``/``regions``/``optimized``/``optimization_events``
    plus ``trace``/``cfg``/``config``/``loops``, so it slots into every
    consumer of a ran replay — :class:`~repro.core.study
    .ThresholdOutcome` and :func:`~repro.dbt.codecache
    .translation_map_from_replay` included.  The four result containers
    are only ever mutated in place.
    """

    __slots__ = ("trace", "cfg", "config", "loops", "former", "freeze_step",
                 "regions", "optimized", "optimization_events", "_events",
                 "_tmap")

    def __init__(self, trace: ExecutionTrace, cfg: ControlFlowGraph,
                 config: DBTConfig, loops: LoopForest):
        self.trace = trace
        self.cfg = cfg
        self.config = config
        self.loops = loops
        self.former = RegionFormer(cfg, loops, config)
        self.freeze_step: Dict[int, int] = {}
        self.regions: List[Region] = []
        self.optimized: Set[int] = set()
        self.optimization_events: List[Tuple[int, List[int]]] = []
        self._events = trace.events()
        self._tmap: Optional[TranslationMap] = None

    def optimize_blocks(self, drained: List[int], now: int) -> Set[int]:
        """Run the optimisation phase over a drained pool at live-step
        ``now``; returns the newly frozen blocks.  This is the callback
        the replay sweeps drive."""
        pool_blocks = [b for b in drained if b not in self.optimized]
        if len(pool_blocks) != len(drained):
            inc("pool.evictions", len(drained) - len(pool_blocks))
        if not pool_blocks:
            return set()
        counters = frozen_counter_view(self._events, self.freeze_step, now)
        with sampled_span("region.form", threshold=self.config.threshold,
                          blocks=len(pool_blocks)):
            result = self.former.form(
                pool_blocks, counters, self.optimized,
                next_region_id=len(self.regions), formed_at=now)
        self.regions.extend(result.regions)
        for b in result.newly_optimized:
            self.freeze_step[b] = now
        self.optimized.update(result.newly_optimized)
        self.optimization_events.append(
            (now, sorted(result.newly_optimized)))
        return result.newly_optimized

    def snapshot(self, input_name: str = "ref") -> ProfileSnapshot:
        """The INIP(T) profile of this threshold's finished state."""
        return snapshot_from_state(self.trace, self._events, self.config,
                                   self.freeze_step, self.regions,
                                   input_name)

    def translation_map(self) -> TranslationMap:
        """The code-cache summary for the perf model (cached)."""
        if self._tmap is None:
            self._tmap = translation_map_from_replay(self)
        return self._tmap


class MultiThresholdReplay:
    """Replays the two-phase pipeline at many thresholds in one pass.

    Args:
        trace: the recorded run shared by every threshold.
        cfg: static CFG the trace was produced from.
        thresholds: thresholds to sweep (duplicates collapse).
        base_config: DBT knobs; its threshold field is overridden per
            swept point.
        loops: optional precomputed loop forest (recomputed otherwise —
            pass it in when replaying one CFG repeatedly).
    """

    def __init__(self, trace: ExecutionTrace, cfg: ControlFlowGraph,
                 thresholds: Sequence[int],
                 base_config: Optional[DBTConfig] = None,
                 loops: Optional[LoopForest] = None):
        if trace.num_blocks != cfg.num_nodes:
            raise ValueError("trace and CFG disagree on block count")
        if not thresholds:
            raise ValueError("at least one threshold is required")
        base_config = base_config or DBTConfig()
        self.trace = trace
        self.cfg = cfg
        self.loops = loops or find_loops(cfg)
        self.states: Dict[int, ThresholdReplayState] = {}
        for t in thresholds:
            if t not in self.states:
                self.states[t] = ThresholdReplayState(
                    trace, cfg, base_config.with_threshold(t), self.loops)
        self._ran = False

    @property
    def thresholds(self) -> List[int]:
        """Swept thresholds in ascending order."""
        return sorted(self.states)

    def run(self) -> "MultiThresholdReplay":
        """Drain every threshold's registration stream, updating every
        state."""
        if self._ran:
            return self
        self._ran = True
        events = self.trace.events()
        states = [self.states[t] for t in self.thresholds]
        windows = 0
        swept = 0
        with span("replay.multi_run", thresholds=len(states)):
            for state in states:
                stats = run_batched_replay(
                    registration_positions(events, state.config.threshold),
                    state.config, state.optimize_blocks,
                    self.trace.num_blocks)
                windows += stats.windows
                swept += stats.events

        # One shared pass over the trace, however many thresholds ride
        # it: replay.runs / replay.blocks_translated count the pass,
        # not the states (see the obs catalog), matching the cost model.
        inc("replay.kernel.batched.runs")
        inc("replay.kernel.batched.windows", windows)
        inc("replay.kernel.batched.events", swept)
        inc("replay.runs")
        inc("replay.blocks_translated", len(events))
        for state in states:
            inc("replay.retranslations", len(state.optimized))
            inc("replay.regions_formed", len(state.regions))
            inc("replay.optimization_events",
                len(state.optimization_events))
        return self

    # -- output ---------------------------------------------------------------------

    def state(self, threshold: int) -> ThresholdReplayState:
        """The finished state of one threshold (runs on first call)."""
        self.run()
        return self.states[threshold]

    def snapshots(self, input_name: str = "ref"
                  ) -> Dict[int, ProfileSnapshot]:
        """INIP(T) snapshots of every swept threshold, ascending."""
        self.run()
        return {t: self.states[t].snapshot(input_name)
                for t in self.thresholds}

    def __iter__(self) -> Iterator[ThresholdReplayState]:
        self.run()
        return iter(self.states[t] for t in self.thresholds)
