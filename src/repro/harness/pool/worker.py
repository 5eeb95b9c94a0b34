"""The worker-side protocol of the study fan-out.

A *job* is one benchmark's study as shipped to a worker: a plain tuple
of picklable arguments ending with the profiling flag and the fault
kind the parent drew for the attempt.  Workers run jobs under strict
state isolation — the (fork-inherited) metrics registry, span buffer
and flight ring are reset before each job and the job's signals travel
back only inside the returned :class:`WorkerOutput` — so the parent can
merge observability deterministically and a retried attempt is never
double-counted.  A job either returns a :class:`WorkerOutput` or raises
a :class:`WorkerJobError`; there is no third outcome short of the
worker process dying.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ...dbt.config import DBTConfig
from ...obs import flightrec
from ...obs import log as obslog
from ...obs import profile as obsprofile
from ...obs import registry as obsregistry
from ...obs import spans as obsspans
from ...perfmodel.costs import CostModel
# Looked up as a module global at call time: patching
# ``worker.get_benchmark`` redirects every job, inline or forked.
from ...workloads.spec import get_benchmark
from .. import faults
from ..results import BenchmarkResult

_log = obslog.get_logger("repro.harness.pool.worker")

#: A study job as shipped to a worker (everything here pickles):
#: (name, thresholds, config, costs, steps_scale, include_perf, verify,
#: profile, inject) — the last two elements are the profiling flag and
#: the fault kind the parent drew for this attempt.
Job = Tuple[str, Tuple[int, ...], DBTConfig, CostModel, float, bool,
            bool, bool, Optional[str]]

#: perf_counter() at pool-worker initialisation (None in the parent).
_WORKER_SPAWNED_AT: Optional[float] = None


@dataclass
class WorkerOutput:
    """One benchmark's study result plus the worker's observability.

    The three timestamps come from ``time.perf_counter()`` —
    CLOCK_MONOTONIC on Linux, shared between parent and (forked or
    spawned) worker — so the parent can subtract them from its own
    clock readings to split queue wait, spawn cost and result transfer
    out of the job's wall time.
    """

    name: str
    result: BenchmarkResult
    seconds: float
    metrics: Dict[str, Dict]
    spans: List[Dict[str, Any]]
    pid: int = 0
    spawned_at: Optional[float] = None  # worker-init perf_counter
    started_at: float = 0.0             # job start in the worker
    finished_at: float = 0.0            # job end in the worker


class WorkerJobError(RuntimeError):
    """The one failure envelope a study job raises.

    Arbitrary worker exceptions do not always survive pickling back to
    the parent, and even when they do they arrive without the worker's
    recent history.  The job entry point wraps every failure in this
    (explicitly picklable) envelope: the original error rendered as
    text, the worker's flight-recorder ring, the formatted traceback,
    which injected fault (if any) actually fired, and the attempt's pid
    and ``perf_counter`` span.  ``fault_fired`` lets the parent refund a
    drawn fault token when the attempt died of an unrelated cause before
    its fault could fire, keeping the injection schedule deterministic.
    """

    def __init__(self, message: str,
                 flight: Optional[List[Dict[str, Any]]] = None,
                 traceback_text: str = "",
                 fault_fired: Optional[str] = None, pid: int = 0,
                 started_at: float = 0.0, finished_at: float = 0.0):
        super().__init__(message)
        self.message = message
        self.flight = flight
        self.traceback_text = traceback_text
        self.fault_fired = fault_fired
        self.pid = pid
        self.started_at = started_at
        self.finished_at = finished_at

    def __reduce__(self):
        return (WorkerJobError,
                (self.message, self.flight, self.traceback_text,
                 self.fault_fired, self.pid, self.started_at,
                 self.finished_at))


def pool_worker_init(profile: bool = False) -> None:
    """Pool initializer: stamp spawn time, arm faults and profiling.

    Also pre-imports the study machinery so a worker pays the import
    bill once, at spawn — under the default fork start method the
    modules are inherited for free, but a spawn-started worker would
    otherwise pay it inside its first job.
    """
    global _WORKER_SPAWNED_AT
    _WORKER_SPAWNED_AT = time.perf_counter()
    faults.mark_worker_process()
    obsprofile.set_profiling(profile)
    from .. import runner  # noqa: F401  (import once per worker, not per job)


def run_study_job(job: Job) -> WorkerOutput:
    """Run one benchmark's study; any failure leaves as a WorkerJobError."""
    (name, thresholds, config, costs, steps_scale, include_perf, verify,
     profile, inject) = job
    faults.clear_fired()
    started = time.perf_counter()
    try:
        # A forked worker inherits the parent's registry/trace contents —
        # start each job clean so the returned state is exactly this
        # benchmark's signals.
        obsregistry.reset_metrics()
        obsspans.clear_trace()
        flightrec.clear()
        obsprofile.set_profiling(profile)
        obsprofile.reset_sampling()
        # First breadcrumb after the reset: even a job that dies
        # instantly ships a ring that says which benchmark it was running.
        _log.debug("job start", bench=name, pid=os.getpid())
        if inject is not None:
            faults.fire(inject, name)
        from ..runner import study_benchmark  # late: runner imports us

        with obsspans.span("workload.build", bench=name):
            benchmark = get_benchmark(name)
        result = study_benchmark(benchmark, thresholds, config=config,
                                 costs=costs, steps_scale=steps_scale,
                                 include_perf=include_perf, verify=verify)
    except Exception as exc:
        # Ship the failure in a picklable envelope with the flight ring;
        # injected crashes (os._exit) and hangs never reach this point.
        raise WorkerJobError(f"{exc.__class__.__name__}: {exc}",
                             flight=flightrec.export(),
                             traceback_text=traceback.format_exc(),
                             fault_fired=faults.pop_fired(),
                             pid=os.getpid(), started_at=started,
                             finished_at=time.perf_counter())
    finished = time.perf_counter()
    return WorkerOutput(name=name, result=result,
                        seconds=finished - started,
                        metrics=obsregistry.export_state(),
                        spans=obsspans.trace_events(),
                        pid=os.getpid(), spawned_at=_WORKER_SPAWNED_AT,
                        started_at=started, finished_at=finished)


def run_job_inprocess(job: Job) -> WorkerOutput:
    """Run :func:`run_study_job` inline under worker-grade state isolation.

    The global registry, trace buffer and flight ring are swapped out
    for fresh ones around the attempt and swapped back afterwards,
    whether it succeeded or not — O(1), however much history the parent
    holds.  The attempt's signals travel only inside the returned
    :class:`WorkerOutput` — exactly the worker protocol — so a failed
    attempt leaves no trace in the parent's metrics and a retried
    benchmark is never double-counted.
    """
    parent_profiling = obsprofile.profiling_enabled()
    try:
        with obsregistry.isolated(), obsspans.isolated(), \
                flightrec.isolated():
            return run_study_job(job)
    finally:
        obsprofile.set_profiling(parent_profiling)
