"""Shared fixtures: small CFGs, behaviours and traces used across suites."""

from __future__ import annotations

import pytest

from repro.cfg import ControlFlowGraph
from repro.ir import Cond, ProgramBuilder
from repro.stochastic import ProgramBehavior, steady, walk

#: Runtime knobs the suite must not inherit from the developer's shell —
#: a stray REPRO_JOBS=1 or REPRO_VERIFY=1 would silently change what the
#: tests exercise.
_REPRO_ENV_VARS = ("REPRO_JOBS", "REPRO_FAULT_SPEC", "REPRO_VERIFY",
                   "REPRO_RETRIES", "REPRO_JOB_TIMEOUT", "REPRO_PROFILE",
                   "REPRO_PROFILE_SAMPLE", "REPRO_FLIGHT_DIR",
                   "REPRO_FLIGHT_CAPACITY")


@pytest.fixture(autouse=True)
def _hermetic_repro_env(monkeypatch):
    """Clear every ``REPRO_*`` runtime knob around each test."""
    for var in _REPRO_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def loop_program():
    """A VIR program: sum 5..1 in a loop, then halt."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("acc", 0).li("i", 5).li("zero", 0).li("one", 1)
           .jmp("loop"))
        (fb.block("loop")
           .add("acc", "acc", "i")
           .sub("i", "i", "one")
           .br(Cond.GT, "i", "zero", taken="loop", fall="done"))
        fb.block("done").halt()
    return pb.build()


@pytest.fixture
def nested_cfg():
    """Outer loop with a diamond and an inner loop.

    Layout: 0 entry -> 1 outer header -> 2 inner header (branch: body 3 /
    leave 4); 3 latches back to 2; 4 splits to 5/6; both join at 7 which
    is the outer latch (taken -> exit check 8, fall -> back to 1); 8 exit.
    """
    return ControlFlowGraph([
        (1,),        # 0 entry
        (2,),        # 1 outer header
        (3, 4),      # 2 inner header
        (2,),        # 3 inner latch
        (5, 6),      # 4 diamond split
        (7,),        # 5
        (7,),        # 6
        (8, 1),      # 7 outer latch: taken -> exit, fall -> back
        (),          # 8 exit
    ])


@pytest.fixture
def nested_behavior():
    """Behaviour for ``nested_cfg``: ~25-trip inner loop, biased diamond,
    rare outer exit."""
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, steady(0.8))
    behavior.set(7, steady(0.001))
    return behavior


@pytest.fixture
def nested_trace(nested_cfg, nested_behavior):
    """A deterministic medium-length trace of the nested CFG."""
    return walk(nested_cfg, nested_behavior, max_steps=120_000, seed=7)


@pytest.fixture
def diamond_cfg():
    """entry 0 -> split 1 -> arms 2/3 -> join 4 -> exit."""
    return ControlFlowGraph([
        (1,),
        (2, 3),
        (4,),
        (4,),
        (),
    ])
