"""Pluggable pool backends for the study dispatcher.

The package splits the study fan-out along its natural seam:

* :mod:`~repro.harness.pool.worker` — the worker-side protocol (jobs,
  outputs, state isolation, the batch runner);
* :mod:`~repro.harness.pool.base` — the :class:`PoolBackend` interface;
* :mod:`~repro.harness.pool.inprocess` / :mod:`~repro.harness.pool.process`
  — the backends: serial inline, warm process pool, batched process pool;
* :mod:`~repro.harness.pool.dispatcher` — the backend-agnostic
  retry/timeout/quarantine/telemetry engine and
  :func:`dispatch_study_jobs`, the one entry point callers use.
"""

from .base import PoolBackend
from .dispatcher import (BACKENDS, BATCH_ENV, DispatchResult, Dispatcher,
                         JOBS_ENV, JobFailure, POOL_ENV, RetryPolicy,
                         dedupe_names, dispatch_study_jobs, resolve_batch,
                         resolve_jobs, resolve_pool)
from .inprocess import InProcessPool
from .process import BatchedProcessPool, ProcessPool, shutdown_warm_pools
from .worker import (BatchItemFailure, Job, WorkerJobError, WorkerOutput,
                     run_job_batch, run_job_inprocess, run_study_job)

__all__ = [
    "BACKENDS", "BATCH_ENV", "BatchItemFailure", "BatchedProcessPool",
    "DispatchResult", "Dispatcher", "InProcessPool", "JOBS_ENV", "Job",
    "JobFailure", "POOL_ENV", "PoolBackend", "ProcessPool", "RetryPolicy",
    "WorkerJobError", "WorkerOutput", "dedupe_names", "dispatch_study_jobs",
    "resolve_batch", "resolve_jobs", "resolve_pool", "run_job_batch",
    "run_job_inprocess", "run_study_job", "shutdown_warm_pools",
]
