"""The simulated two-phase dynamic binary translator.

* :mod:`repro.dbt.config` — pipeline knobs (:class:`DBTConfig`).
* :mod:`repro.dbt.counters` — the use/taken counter table with freezing.
* :mod:`repro.dbt.pool` — candidate pool and retranslation triggers.
* :mod:`repro.dbt.regions` — optimisation-phase region formation.
* :mod:`repro.dbt.translator` — the live, event-driven translator.
* :mod:`repro.dbt.multireplay` — trace replay of many thresholds in one
  pass.
* :mod:`repro.dbt.replay` — the single-threshold replay.
* :mod:`repro.dbt.batchreplay` — the batched windowed replay sweep (and
  the scalar heap-walk oracle the tests measure it against).
* :mod:`repro.dbt.codecache` — block-level translation summaries for the
  performance model.
"""

from .codecache import TranslationMap, translation_map_from_replay
from .config import DBTConfig
from .counters import CounterTable
from .multireplay import MultiThresholdReplay, ThresholdReplayState
from .pool import CandidatePool
from .regions import FormationResult, RegionFormer
from .replay import ReplayDBT, inip_from_trace
from .translator import TwoPhaseDBT

__all__ = [
    "CandidatePool", "CounterTable", "DBTConfig", "FormationResult",
    "MultiThresholdReplay", "RegionFormer", "ReplayDBT",
    "ThresholdReplayState", "TranslationMap", "TwoPhaseDBT",
    "inip_from_trace", "translation_map_from_replay",
]
