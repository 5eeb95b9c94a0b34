"""Cost parameters of the performance model (paper §4.4).

The paper measures wall-clock speedups on an Itanium2; we model the same
trade-offs analytically, with one cost term per mechanism the paper's
discussion names:

* unoptimised (quick-translated) code runs slower per instruction and pays
  per-block profiling instrumentation overhead;
* optimised region code runs faster per instruction (scheduling/ILP), but
  pays a penalty whenever execution leaves the region through a side exit
  the optimiser did not anticipate;
* each optimisation event pays translation cost proportional to the amount
  of code retranslated ("the cost of optimization").

Absolute values are calibrated to the relative magnitudes such translators
report (e.g. IA32EL's ~3x interpretation gap and the retranslation cost of
thousands of cycles per block); Figure 17 only depends on their ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every cost weight is a multiple of this (2⁻⁸): with integral block
#: sizes every per-block price then lies on the same dyadic grid, so the
#: perf model's sums are exact in any order (see
#: :mod:`repro.perfmodel.tables`).
COST_GRID = 2.0 ** -8


@dataclass(frozen=True)
class CostModel:
    """Per-mechanism cost weights (arbitrary units ≈ cycles).

    Every weight must be a non-negative multiple of :data:`COST_GRID`.

    Attributes:
        interp_cost: per guest instruction, unoptimised execution.
        profile_overhead: per block execution, counter instrumentation.
        opt_cost: per guest instruction inside an optimised region.
        side_exit_penalty: per unanticipated exit from optimised code
            (dispatcher round trip + register recovery).
        translation_cost: per guest instruction translated at an
            optimisation event (region formation + scheduling).
    """

    interp_cost: float = 3.0
    profile_overhead: float = 2.0
    opt_cost: float = 1.0
    side_exit_penalty: float = 20.0
    translation_cost: float = 1200.0

    def __post_init__(self) -> None:
        for name in ("interp_cost", "profile_overhead", "opt_cost",
                     "side_exit_penalty", "translation_cost"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            if not (value / COST_GRID).is_integer():
                raise ValueError(f"{name} must be a multiple of 2**-8")
        if self.opt_cost > self.interp_cost:
            raise ValueError("optimised code must not be slower than "
                             "unoptimised code")


#: The default calibration used by the Figure 17 experiment.
DEFAULT_COSTS = CostModel()
