"""The process pool: one study job per future on worker processes.

:class:`ProcessPool` wraps ``concurrent.futures.ProcessPoolExecutor``
with the two teardowns the dispatcher needs: :meth:`~ProcessPool.kill`
reclaims hung or broken workers (and is how the dispatcher unwinds from
an exception), :meth:`~ProcessPool.shutdown` ends a finished dispatch.
Both join the workers, so no process outlives the dispatch that
spawned it.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor

from .worker import Job, WorkerOutput, pool_worker_init, run_study_job


def shutdown_warm_pools() -> None:
    """No-op: pools are joined at the end of every dispatch.

    Kept importable because the pinned study benchmark
    (``studybench/child.py``) still imports and calls it.
    """


class ProcessPool:
    """Worker processes the dispatcher submits one job at a time to."""

    def __init__(self, workers: int, profile: bool = False):
        self.workers = workers
        self.profile = profile
        self._executor: ProcessPoolExecutor = None  # type: ignore[assignment]

    def start(self) -> None:
        """Spawn a fresh executor (also how a killed pool is rebuilt)."""
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=pool_worker_init,
            initargs=(self.profile,))

    def submit(self, job: Job) -> "Future[WorkerOutput]":
        """Ship one job; the future raises a WorkerJobError on failure."""
        return self._executor.submit(run_study_job, job)

    def kill(self) -> None:
        """Terminate every worker, then join them and the executor.

        ``ProcessPoolExecutor`` offers no per-worker kill, so reclaiming
        one hung worker means tearing the whole pool down (``_processes``
        is private but stable since 3.7; guarded anyway).  The executor's
        manager thread sees the dead workers, fails their futures and
        reaps them; waiting for it leaves exactly one reaper per worker.
        """
        for process in list(
                (getattr(self._executor, "_processes", None) or {}).values()):
            process.terminate()
        self._executor.shutdown(wait=True, cancel_futures=True)

    def shutdown(self) -> None:
        """Let the workers exit and join them."""
        self._executor.shutdown(wait=True)
