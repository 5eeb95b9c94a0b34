"""Single-threshold trace replay: INIP(T) for one threshold.

:class:`ReplayDBT` is a :class:`~repro.dbt.multireplay.MultiThresholdReplay`
sweeping exactly one threshold, with that threshold's finished pipeline
state (``freeze_step``/``regions``/``optimized``/``optimization_events``)
exposed directly on the instance.  The replay is algebraically identical
to :class:`repro.dbt.translator.TwoPhaseDBT` fed the same trace;
``tests/dbt/test_replay_equivalence.py`` asserts snapshot-for-snapshot
equality.
"""

from __future__ import annotations

from typing import Optional

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest
from ..profiles.model import ProfileSnapshot
from ..stochastic.trace import ExecutionTrace
from .codecache import TranslationMap
from .config import DBTConfig
from .multireplay import MultiThresholdReplay


class ReplayDBT(MultiThresholdReplay):
    """Replays the two-phase pipeline over a recorded trace.

    Args:
        trace: the recorded run (shared across thresholds).
        cfg: static CFG the trace was produced from.
        config: DBT configuration (the threshold lives here).
        loops: optional precomputed loop forest (recomputed otherwise —
            pass it in when sweeping thresholds over one CFG).
    """

    def __init__(self, trace: ExecutionTrace, cfg: ControlFlowGraph,
                 config: DBTConfig, loops: Optional[LoopForest] = None):
        super().__init__(trace, cfg, [config.threshold], base_config=config,
                         loops=loops)
        self.config = config
        state = self.states[config.threshold]
        # The state mutates these in place, so the aliases always show
        # the replay's progress.
        self.freeze_step = state.freeze_step
        self.regions = state.regions
        self.optimized = state.optimized
        self.optimization_events = state.optimization_events

    def snapshot(self, input_name: str = "ref") -> ProfileSnapshot:
        """The INIP(T) profile (runs the replay on first call)."""
        return self.state(self.config.threshold).snapshot(input_name)

    def translation_map(self) -> TranslationMap:
        """The code-cache summary for the perf model (cached; runs the
        replay on first call)."""
        return self.state(self.config.threshold).translation_map()


def inip_from_trace(trace: ExecutionTrace, cfg: ControlFlowGraph,
                    config: DBTConfig, loops: Optional[LoopForest] = None,
                    input_name: str = "ref") -> ProfileSnapshot:
    """One-shot helper: replay ``trace`` and return the INIP(T) snapshot."""
    return ReplayDBT(trace, cfg, config, loops=loops).snapshot(input_name)
