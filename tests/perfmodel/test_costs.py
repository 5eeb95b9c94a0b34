"""Cost-model parameter validation tests."""

import pytest

from repro.perfmodel import DEFAULT_COSTS, CostModel


def test_defaults_are_consistent():
    assert DEFAULT_COSTS.opt_cost <= DEFAULT_COSTS.interp_cost
    assert DEFAULT_COSTS.side_exit_penalty > 0
    assert DEFAULT_COSTS.translation_cost > DEFAULT_COSTS.interp_cost


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        CostModel(interp_cost=-1.0)
    with pytest.raises(ValueError):
        CostModel(translation_cost=-5.0)


def test_optimized_slower_than_interp_rejected():
    with pytest.raises(ValueError, match="slower"):
        CostModel(interp_cost=1.0, opt_cost=2.0)


def test_frozen():
    with pytest.raises(Exception):
        DEFAULT_COSTS.opt_cost = 0.0  # type: ignore[misc]


def test_off_grid_weights_rejected():
    with pytest.raises(ValueError, match="2\\*\\*-8"):
        CostModel(interp_cost=0.1)
    with pytest.raises(ValueError):
        CostModel(side_exit_penalty=float("inf"))
    CostModel(interp_cost=4.5, profile_overhead=1.25, opt_cost=0.75)
