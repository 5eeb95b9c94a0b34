"""The benchmark's workloads: which study each one runs, and how.

Every workload is one closed-loop study (one study at a time, each in a
fresh interpreter, writing into an empty cache directory), sweeping all
13 ``SIM_THRESHOLDS``.  See ``README.md`` for why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Walker seeds move by this much per unit of ``--seed``.
SEED_STRIDE = 1000

ALL_FIGURES = (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)


@dataclass(frozen=True)
class Workload:
    """One study configuration.

    Attributes:
        name: workload name as given to ``--workload``.
        suite: ``"int"`` for the 12 INT benchmarks, ``None`` for all 26.
        include_perf: run the Figure 17 cost model.
        jobs: worker processes (1 = in-process, no pool).
        figures: figure numbers the study's results must reproduce.
    """

    name: str
    suite: Optional[str]
    include_perf: bool
    jobs: int
    figures: Tuple[int, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload("full-serial", None, True, 1, ALL_FIGURES),
        Workload("full-parallel", None, True, 2, ALL_FIGURES),
        Workload("int-accuracy", "int", False, 1, (9, 11, 16)),
    )
}
