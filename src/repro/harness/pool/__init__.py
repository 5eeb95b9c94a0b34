"""The study fan-out: inline at one worker, a process pool above.

The package splits the fan-out along its natural seam:

* :mod:`~repro.harness.pool.worker` — the worker-side protocol (jobs,
  outputs, the failure envelope, state isolation);
* :mod:`~repro.harness.pool.process` — the process pool;
* :mod:`~repro.harness.pool.dispatcher` — the retry/timeout/quarantine/
  telemetry engine and :func:`dispatch_study_jobs`, the one entry point
  callers use.
"""

from .dispatcher import (DispatchResult, Dispatcher, JOBS_ENV, JobFailure,
                         RetryPolicy, dedupe_names, dispatch_study_jobs,
                         resolve_jobs)
from .process import ProcessPool
from .worker import (Job, WorkerJobError, WorkerOutput, run_job_inprocess,
                     run_study_job)

__all__ = [
    "DispatchResult", "Dispatcher", "JOBS_ENV", "Job", "JobFailure",
    "ProcessPool", "RetryPolicy", "WorkerJobError", "WorkerOutput",
    "dedupe_names", "dispatch_study_jobs", "resolve_jobs",
    "run_job_inprocess", "run_study_job",
]
