"""Nestable span timers exported as a Chrome trace.

``with span("replay.run", bench="gzip", threshold=50):`` times the
enclosed work, records the completed span into a process-global trace
buffer, and feeds its duration into the ``span.<name>.seconds``
histogram of the metrics registry.  Spans nest (a thread-local stack
tracks depth and parentage) and the buffer serialises to the Chrome
trace-event format, so :func:`write_trace` output loads directly in
``chrome://tracing`` or https://ui.perfetto.dev.

When observability is disabled, :func:`span` returns a shared inert
context manager — entering and exiting it does nothing at all.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from . import registry as _registry

#: Trace timestamps are relative to process start of this module.
_EPOCH = time.perf_counter()

#: Cap on buffered events so pathological loops cannot exhaust memory.
MAX_TRACE_EVENTS = 200_000

_EVENTS: List[Dict[str, Any]] = []
_EVENTS_LOCK = threading.Lock()
_LOCAL = threading.local()

#: Human labels for trace lanes: pid -> process name shown by Perfetto.
_LANE_LABELS: Dict[int, str] = {}

#: Synthetic pid allocator for foreign events that would otherwise
#: collapse onto this process's lane (inline worker attempts).
_SYNTHETIC_PID = 1_000_000


def _stack() -> List["Span"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class Span:
    """One timed operation; use via :func:`span` and ``with``."""

    __slots__ = ("name", "attrs", "start", "duration")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.start: Optional[float] = None
        self.duration: Optional[float] = None

    def __enter__(self) -> "Span":
        _stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self.duration = end - self.start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        args = dict(self.attrs)
        args["depth"] = len(stack)
        if stack:
            args["parent"] = stack[-1].name
        if exc_type is not None:
            args["error"] = exc_type.__name__
        event = {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": (self.start - _EPOCH) * 1e6,
            "dur": self.duration * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        with _EVENTS_LOCK:
            if len(_EVENTS) < MAX_TRACE_EVENTS:
                _EVENTS.append(event)
        _registry.observe(f"span.{self.name}.seconds", self.duration)
        from . import flightrec
        flightrec.record("span", self.name,
                         dur_ms=round(self.duration * 1e3, 3),
                         **({"error": args["error"]}
                            if "error" in args else {}))
        return False


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> Any:
    """A context manager timing ``name`` with free-form attributes.

    Returns the shared :data:`NULL_SPAN` when observability is
    disabled, so the call costs one flag check and nothing else.
    """
    if not _registry.enabled():
        return NULL_SPAN
    return Span(name, attrs)


def current_span() -> Optional[Span]:
    """The innermost span open on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


def trace_events() -> List[Dict[str, Any]]:
    """Completed span events, in completion order (a copy)."""
    with _EVENTS_LOCK:
        return list(_EVENTS)


def clear_trace() -> None:
    """Drop all buffered events and lane labels."""
    with _EVENTS_LOCK:
        _EVENTS.clear()
        _LANE_LABELS.clear()


@contextmanager
def isolated() -> Iterator[None]:
    """Run the body against a fresh trace buffer, then swap back.

    O(1) whatever the outer buffer holds: it is set aside, not copied.
    """
    global _EVENTS, _LANE_LABELS
    with _EVENTS_LOCK:
        outer = _EVENTS, _LANE_LABELS
        _EVENTS, _LANE_LABELS = [], {}
    try:
        yield
    finally:
        with _EVENTS_LOCK:
            _EVENTS, _LANE_LABELS = outer


def extend_trace(events: List[Dict[str, Any]],
                 label: Optional[str] = None) -> None:
    """Append externally produced span events (worker → parent merge).

    Worker processes forked before their first span share this module's
    :data:`_EPOCH`, so their timestamps land on the parent's timeline and
    the merged file still renders as one coherent Chrome trace.  Each
    worker keeps its own ``pid`` lane.

    ``label`` marks the events as a *named worker lane*: the label shows
    as the process name in Perfetto, and events that carry this
    process's own pid (a job attempt that ran inline rather than in a
    pool worker) are remapped onto a synthetic pid so they render as
    their own lane instead of collapsing onto the parent's row.  Without
    a label the events are appended verbatim (inline job spans re-nest
    in the parent's own lane that way).  The buffer cap applies.
    """
    global _SYNTHETIC_PID
    own_pid = os.getpid()
    remap: Optional[int] = None
    with _EVENTS_LOCK:
        lane_pids = set()
        for event in events:
            pid = event.get("pid", 0)
            if label and pid == own_pid:
                if remap is None:
                    _SYNTHETIC_PID += 1
                    remap = _SYNTHETIC_PID
                event = dict(event, pid=remap)
                pid = remap
            lane_pids.add(pid)
            if len(_EVENTS) < MAX_TRACE_EVENTS:
                _EVENTS.append(event)
        if label:
            for pid in lane_pids:
                _LANE_LABELS.setdefault(pid, label)


def label_lane(pid: int, label: str) -> None:
    """Name a trace lane (rendered as the process name in Perfetto)."""
    with _EVENTS_LOCK:
        _LANE_LABELS[pid] = label


def now_ts() -> float:
    """The current trace timestamp (µs since this module's epoch).

    Lets callers mark a point in time and later select only the span
    events recorded after it (the runner scopes its phase profile to the
    current run this way, excluding earlier same-process activity).
    """
    return (time.perf_counter() - _EPOCH) * 1e6


def _metadata_events() -> List[Dict[str, Any]]:
    """Chrome metadata naming each labelled lane.

    Metadata events go *after* the duration events — some consumers
    (including this repo's own tests) treat the first event as a span.
    """
    with _EVENTS_LOCK:
        labels = dict(_LANE_LABELS)
    events: List[Dict[str, Any]] = []
    for index, (pid, label) in enumerate(sorted(labels.items())):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        events.append({"name": "process_sort_index", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"sort_index": index}})
    return events


def write_trace(path: str) -> None:
    """Write the buffered spans as Chrome trace JSON (atomically)."""
    from ..ioutil import atomic_write_text
    payload = {"traceEvents": trace_events() + _metadata_events(),
               "displayTimeUnit": "ms"}
    atomic_write_text(path, json.dumps(payload) + "\n")
