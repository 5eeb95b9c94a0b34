"""The study benchmark's tracer patches names the program must keep.

``studybench/tracer.py`` wraps each layer's entry point where its
callers look it up (``owner.__dict__[attr]``), counts trace steps with
``len`` of ``estimate_cost``'s first positional argument, and sizes the
cost tables from their ndarray attributes via ``vars()``.  A rename or a
moved import would not fail the study, only blind the benchmark, so the
contract is pinned here.
"""

import importlib
import inspect

import numpy as np
import pytest

from repro.harness import runner
from studybench.tracer import BOUNDARIES


@pytest.mark.parametrize("module_name, path, name", BOUNDARIES,
                         ids=[f"{name}:{path}" for _, path, name
                              in BOUNDARIES])
def test_every_boundary_resolves_like_the_recorder(module_name, path, name):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])


def test_estimate_cost_takes_the_trace_first():
    params = list(inspect.signature(runner.estimate_cost).parameters)
    assert params[0] == "trace"


def test_cost_tables_are_sized_through_vars(nested_trace):
    tables = runner.CostTables(nested_trace, [1] * nested_trace.num_blocks)
    assert not hasattr(type(tables), "__slots__")
    arrays = [v for v in vars(tables).values() if isinstance(v, np.ndarray)]
    assert arrays and sum(a.nbytes for a in arrays) > 0
