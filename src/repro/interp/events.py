"""Instrumentation event protocol of the interpreter.

The profiling phase of a two-phase DBT observes exactly two things per
block: that the block executed (**use**) and, if it ends in a conditional
branch, whether the branch was **taken**.  The interpreter reports both
through the :class:`ExecutionListener` protocol; anything implementing it
(profilers, trace recorders, the live DBT) can be attached.

Scalar listeners pay one Python call per event, which caps the throughput
of SPEC-scale runs.  The study therefore never streams events: the
compiled walk kernel (:mod:`repro.stochastic.kernel`) returns the
whole run as one :class:`repro.stochastic.trace.ExecutionTrace`, and
:func:`repro.stochastic.walker.replay_trace` drives a scalar listener
from such a trace when one is needed.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple


class ExecutionListener(Protocol):
    """Receiver of block-level execution events."""

    def on_block(self, block_id: int) -> None:
        """Block ``block_id`` started executing (one *use*)."""

    def on_branch(self, block_id: int, taken: bool) -> None:
        """Block ``block_id``'s conditional branch resolved to ``taken``."""


class NullListener:
    """A listener that ignores everything (the default)."""

    def on_block(self, block_id: int) -> None:  # noqa: D102
        pass

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        pass


class RecordingListener:
    """Accumulates the raw event stream — handy in tests and examples.

    Attributes:
        blocks: block ids in execution order.
        branches: ``(block_id, taken)`` tuples in resolution order.
    """

    def __init__(self) -> None:
        self.blocks: List[int] = []
        self.branches: List[Tuple[int, bool]] = []

    def on_block(self, block_id: int) -> None:  # noqa: D102
        self.blocks.append(block_id)

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        self.branches.append((block_id, taken))


class TeeListener:
    """Fans one event stream out to several listeners in order."""

    def __init__(self, *listeners: ExecutionListener):
        self.listeners = list(listeners)

    def on_block(self, block_id: int) -> None:  # noqa: D102
        for listener in self.listeners:
            listener.on_block(block_id)

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        for listener in self.listeners:
            listener.on_branch(block_id, taken)
