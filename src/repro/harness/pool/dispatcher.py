"""The dispatch engine: retries, timeouts, quarantine, telemetry.

``run_full_study`` is embarrassingly parallel across benchmarks: each
:func:`~repro.harness.runner.study_benchmark` call depends only on its
benchmark name and the run configuration.  This module fans those jobs
out over worker processes — and keeps the run alive when workers
misbehave:

* a worker **crash** (segfault, OOM kill, ``os._exit``) breaks the whole
  pool; the dispatcher rebuilds it and resubmits only the jobs that were
  in flight, charging each one attempt of its retry budget (the culprit
  cannot be told apart from its pool-mates — all of them were running in
  the dead executor);
* a **hung** job (``job_timeout`` exceeded) is quarantined immediately
  — retrying a deterministic hang just burns another timeout window —
  and the pool is torn down and rebuilt to reclaim the stuck worker.
  Innocent jobs caught in the teardown are resubmitted without touching
  their budget;
* a job that **raises** is retried with exponential backoff up to
  ``retries`` times;
* jobs that exhaust their budget on the process pool fall back to one
  **in-process serial** attempt (pool pathologies — fork state,
  pickling, memory pressure — often vanish in-process) before being
  quarantined for good.  Inline, the attempts already ran in-process,
  so exhaustion quarantines directly.

Quarantined benchmarks land in :class:`DispatchResult.failures`; the
study completes without them instead of aborting.  Shard writes happen
in the parent as each job finishes, so nothing a worker does — or how it
dies — can corrupt the cache.

The job count alone picks where jobs run: one worker runs them inline,
more than one runs one job per future on a
:class:`~.process.ProcessPool`.  Figure data is byte-identical for every
job count — the non-negotiable invariant the equivalence suite enforces.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...dbt.config import DBTConfig
from ...obs import log as obslog
from ...obs.dispatch import JobTimeline
from ...obs.registry import inc
from ...obs.spans import span
from ...perfmodel.costs import CostModel
from .. import faults
from .process import ProcessPool
from .worker import WorkerJobError, WorkerOutput, run_job_inprocess

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"
_log = obslog.get_logger("repro.harness.pool.dispatcher")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count.

    Explicit ``jobs`` wins; otherwise the :data:`JOBS_ENV` environment
    variable; otherwise every CPU.  ``1`` selects the serial path.
    An empty-but-set variable is malformed, not "unset": it is almost
    always a broken shell expansion, and silently running on every CPU
    is the worst possible reading of it.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher treats failing jobs.

    Attributes:
        retries: extra attempts granted per benchmark after its first
            failure (``0`` = fail straight to the fallback attempt).
        job_timeout: seconds before an in-flight job is declared hung
            and quarantined (``None`` = unlimited; only enforced on the
            process pool — inline execution cannot be interrupted).
        backoff: base delay before retry ``k`` of a job, growing as
            ``backoff * 2**(k-1)`` up to ``backoff_cap``.
    """

    retries: int = faults.DEFAULT_RETRIES
    job_timeout: Optional[float] = None
    backoff: float = 0.05
    backoff_cap: float = 2.0

    def delay(self, attempts: int) -> float:
        """Backoff before resubmitting a job that failed ``attempts`` times."""
        if self.backoff <= 0 or attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff * 2 ** (attempts - 1))


@dataclass
class JobFailure:
    """Why a quarantined benchmark was given up on."""

    name: str
    reason: str  #: ``"timeout"`` | ``"crash"`` | ``"error"``
    attempts: int
    error: str
    flight_record: Optional[str] = None  #: path of the diagnosis dump


@dataclass
class DispatchResult:
    """Everything the dispatcher produced: successes and quarantines."""

    outputs: Dict[str, WorkerOutput] = field(default_factory=dict)
    failures: Dict[str, JobFailure] = field(default_factory=dict)
    #: Per-attempt dispatch timelines, in completion order.
    records: List[JobTimeline] = field(default_factory=list)
    #: Worker flight rings shipped with failures, keyed by benchmark.
    flights: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)


def dedupe_names(names: Sequence[str]) -> List[str]:
    """Drop duplicate benchmark names, keeping first-seen order.

    Outputs are keyed by name, so a duplicate would silently collapse
    into one result while still burning a pool job — warn instead.
    """
    unique = list(dict.fromkeys(names))
    dropped = len(names) - len(unique)
    if dropped:
        inc("study.duplicate_names", dropped)
        _log.warning("duplicate benchmark names dropped",
                     requested=len(names), unique=len(unique))
    return unique


class _JobState:
    """Book-keeping for one benchmark across its attempts."""

    __slots__ = ("name", "attempts", "not_before", "submitted_at",
                 "inject", "submitted_pc", "serialize_seconds",
                 "payload_bytes")

    def __init__(self, name: str):
        self.name = name
        self.attempts = 0          # failed attempts so far
        self.not_before = 0.0      # monotonic time gating resubmission
        self.submitted_at = 0.0    # monotonic time of the live submission
        self.inject = None         # fault drawn for the live attempt
        self.submitted_pc = 0.0    # perf_counter at the live submission
        self.serialize_seconds = 0.0  # payload pickling time (live attempt)
        self.payload_bytes = 0     # payload size (live attempt)


class Dispatcher:
    """The retry/rebuild/quarantine engine.

    ``pool`` is ``None`` for inline execution (one worker) or the
    :class:`~.process.ProcessPool` the jobs fan out over.
    """

    def __init__(self, names: Sequence[str], job_tail: Tuple,
                 pool: Optional[ProcessPool], policy: RetryPolicy,
                 plan: faults.FaultPlan,
                 on_output: Callable[[WorkerOutput], None]):
        self.job_tail = job_tail
        self.pool = pool
        self.workers = pool.workers if pool is not None else 1
        self.policy = policy
        self.plan = plan
        self.on_output = on_output
        self.queue: deque = deque(_JobState(n) for n in names)
        self.inflight: Dict[Future, _JobState] = {}
        self.result = DispatchResult()
        self.fallback: List[Tuple[_JobState, str, str]] = []

    # -- pool lifecycle ----------------------------------------------------

    def _rebuild_pool(self) -> None:
        inc("faults.pool_rebuild")
        with span("pool_rebuild", workers=self.workers):
            self.pool.start()

    # -- attempt accounting ------------------------------------------------

    def _job(self, state: _JobState) -> Tuple:
        return (state.name,) + self.job_tail + (state.inject,)

    def _submit(self, state: _JobState) -> None:
        state.inject = self.plan.draw(state.name)
        job = self._job(state)
        if self.pool is None:
            # Inline: nothing is pickled or queued, so the payload and
            # submission fields keep their zero defaults.
            try:
                output = run_job_inprocess(job)
            except Exception as exc:
                self._fail(state, exc)
            else:
                self._succeed(state, output)
            return
        # Measure the payload's pickling cost and size here (the
        # executor pickles again on its feeder thread, where it cannot
        # be timed); the payload is small, so paying it twice is cheap.
        # This is also where an unpicklable job must die: deferring it
        # to the feeder thread would surface as an opaque pool break.
        t0 = time.perf_counter()
        try:
            payload = pickle.dumps(job)
        except Exception as exc:
            self._refund_inject(state)
            state.serialize_seconds = time.perf_counter() - t0
            state.payload_bytes = 0
            state.submitted_pc = 0.0  # never submitted: no execute time
            self._record_attempt(state, outcome="error")
            self._charge_failure(state, "error",
                                 f"job payload failed to pickle: "
                                 f"{exc.__class__.__name__}: {exc}")
            return
        state.serialize_seconds = time.perf_counter() - t0
        state.payload_bytes = len(payload)
        state.submitted_at = time.monotonic()
        state.submitted_pc = time.perf_counter()
        try:
            future = self.pool.submit(job)
        except BrokenProcessPool as exc:
            # The pool died between completions; everything in flight is
            # lost, this job never ran and is requeued for free.
            self._refund_inject(state)
            self.queue.appendleft(state)
            self._handle_pool_break(exc)
            return
        self.inflight[future] = state

    def _refund_inject(self, state: _JobState) -> None:
        """Hand an unfired fault token back to the plan (see refund)."""
        if state.inject is not None:
            self.plan.refund(state.name, state.inject)
            state.inject = None

    def _requeue(self, state: _JobState, charged: bool) -> None:
        if charged:
            state.not_before = time.monotonic() + \
                self.policy.delay(state.attempts)
        inc("retry.resubmitted")
        self.queue.append(state)

    def _charge_failure(self, state: _JobState, reason: str,
                        error: str) -> None:
        """One attempt failed: retry within budget, else fall back."""
        state.attempts += 1
        inc(f"retry.{reason}")
        if state.attempts <= self.policy.retries:
            _log.warning("benchmark attempt failed, will retry",
                         bench=state.name, reason=reason,
                         attempts=state.attempts, error=error)
            self._requeue(state, charged=True)
        elif self.pool is None:
            # The attempts already ran in-process: a fallback would just
            # repeat the last one.  Quarantine directly.
            self._quarantine(state, reason, state.attempts, error)
        else:
            _log.warning("retry budget exhausted, deferring to inline "
                         "fallback", bench=state.name, reason=reason,
                         attempts=state.attempts, error=error)
            self.fallback.append((state, reason, error))

    def _quarantine(self, state: _JobState, reason: str, attempts: int,
                    error: str) -> None:
        inc("faults.quarantined")
        _log.error("benchmark quarantined", bench=state.name,
                   reason=reason, attempts=attempts, error=error)
        self.result.failures[state.name] = JobFailure(
            name=state.name, reason=reason, attempts=attempts, error=error)

    def _handle_pool_break(self, exc: BaseException) -> None:
        """The pool died: rebuild it, resubmit exactly the lost jobs."""
        lost = list(self.inflight.values())
        self.inflight.clear()
        self.pool.kill()
        _log.warning("process pool broke, rebuilding",
                     lost=[s.name for s in lost],
                     error=f"{exc.__class__.__name__}: {exc}")
        self._rebuild_pool()
        for state in lost:
            # A drawn hang/error fault cannot break a pool — the attempt
            # was collateral damage and its token goes back to the plan
            # so the injection schedule survives the interleaving.  (A
            # drawn crash is exactly what kills pools: consumed.)
            if state.inject in ("hang", "error"):
                self._refund_inject(state)
            # The culprit is indistinguishable from its pool-mates (the
            # executor reports one shared BrokenProcessPool), so every
            # lost job is charged one attempt.
            self._record_attempt(state, outcome="crash")
            self._charge_failure(state, "crash",
                                 f"worker died ({exc})")

    # -- completion handling -----------------------------------------------

    def _succeed(self, state: _JobState, output: WorkerOutput,
                 mode: Optional[str] = None) -> None:
        state.inject = None
        self._record_attempt(state, outcome="ok", output=output,
                             received=time.perf_counter(), mode=mode)
        self.result.outputs[state.name] = output
        self.on_output(output)

    def _fail(self, state: _JobState, exc: Exception) -> None:
        """An attempt raised: book it, then retry or fall back."""
        error = self._settle_error(state, exc)
        self._charge_failure(state, "error", error.message)

    def _settle_error(self, state: _JobState, exc: Exception,
                      mode: Optional[str] = None) -> WorkerJobError:
        """Book a failed attempt: its fault token, flight ring, timeline."""
        error = exc if isinstance(exc, WorkerJobError) else \
            WorkerJobError(f"{exc.__class__.__name__}: {exc}")
        if state.inject is not None and error.fault_fired != state.inject:
            # The attempt died of an unrelated cause before its drawn
            # fault could fire: the token goes back so the injection
            # schedule stays deterministic.
            self._refund_inject(state)
        state.inject = None
        if error.flight is not None:
            self.result.flights[state.name] = error.flight
        self._record_attempt(state, outcome="error", mode=mode,
                             failure=error)
        return error

    def _record_attempt(self, state: _JobState, outcome: str,
                        output: Optional[WorkerOutput] = None,
                        received: Optional[float] = None,
                        mode: Optional[str] = None,
                        failure: Optional[WorkerJobError] = None
                        ) -> JobTimeline:
        """Append this attempt's dispatch timeline to the result."""
        if mode is None:
            mode = "inline" if self.pool is None else "pool"
        record = JobTimeline(
            bench=state.name, mode=mode, attempt=state.attempts + 1,
            payload_bytes=state.payload_bytes,
            serialize_seconds=state.serialize_seconds, outcome=outcome)
        if output is not None and received is not None:
            record.worker_pid = output.pid
            record.execute_seconds = output.seconds
            if mode != "inline" and state.submitted_pc:
                queue = max(0.0, output.started_at - state.submitted_pc)
                record.queue_seconds = queue
                if output.spawned_at is not None:
                    # The slice of queue wait spent before the worker had
                    # even finished initialising: spin-up + import cost.
                    record.spawn_seconds = min(queue, max(
                        0.0, output.spawned_at - state.submitted_pc))
            record.transfer_seconds = max(0.0, received - output.finished_at)
        elif failure is not None and failure.finished_at:
            # The job caught its own failure and shipped its timing.
            record.worker_pid = failure.pid or None
            record.execute_seconds = max(
                0.0, failure.finished_at - failure.started_at)
        elif state.submitted_pc:
            # The worker never reported back (crash/timeout): all the
            # parent knows is how long the attempt burned.
            record.execute_seconds = max(
                0.0, time.perf_counter() - state.submitted_pc)
        self.result.records.append(record)
        return record

    def _process_future(self, future: Future, state: _JobState) -> bool:
        """Fold one finished job in; True if the pool broke."""
        try:
            output = future.result()
        except BrokenProcessPool as exc:
            # ``state`` is still in ``self.inflight`` — the break
            # handler charges it together with the rest of the lost jobs.
            self._handle_pool_break(exc)
            return True
        except Exception as exc:
            del self.inflight[future]
            self._fail(state, exc)
            return False
        del self.inflight[future]
        self._succeed(state, output)
        return False

    def _cull_timeouts(self) -> None:
        """Quarantine jobs past their deadline; rescue their pool-mates."""
        now = time.monotonic()
        expired: List[_JobState] = []
        for future, state in list(self.inflight.items()):
            if future.done():
                # Finished between the wait and the deadline check —
                # harvest it normally rather than blaming it.
                if self._process_future(future, state):
                    return
            elif now - state.submitted_at >= self.policy.job_timeout:
                expired.append(state)
        if not expired:
            return
        inc("faults.timeout", len(expired))
        survivors = [s for s in self.inflight.values() if s not in expired]
        self.inflight.clear()
        self.pool.kill()
        for state in expired:
            self._record_attempt(state, outcome="timeout")
            self._quarantine(
                state, "timeout", state.attempts + 1,
                f"exceeded job timeout {self.policy.job_timeout}s")
        self._rebuild_pool()
        for state in survivors:
            # Collateral damage of the teardown, not a failure of their
            # own — resubmit without touching the retry budget, and give
            # any unfired fault token back to the plan.
            self._refund_inject(state)
            self._requeue(state, charged=False)

    # -- the dispatch loop -------------------------------------------------

    def _take_eligible(self, now: float) -> Optional[_JobState]:
        """The first queued state clear of its backoff gate, if any."""
        for index, state in enumerate(self.queue):
            if state.not_before <= now:
                del self.queue[index]
                return state
        return None

    def _wait_timeout(self, now: float) -> Optional[float]:
        deadlines: List[float] = []
        if self.policy.job_timeout is not None:
            deadlines.extend(state.submitted_at + self.policy.job_timeout
                             for state in self.inflight.values())
        if self.queue and len(self.inflight) < self.workers:
            deadlines.extend(s.not_before for s in self.queue)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now) + 0.01

    def run(self) -> DispatchResult:
        if self.pool is not None:
            self.pool.start()
        try:
            self._loop()
            self._run_fallbacks()
        except BaseException:
            if self.pool is not None:
                self.pool.kill()
            raise
        if self.pool is not None:
            self.pool.shutdown()
        return self.result

    def _loop(self) -> None:
        while self.queue or self.inflight:
            now = time.monotonic()
            # Top up in-flight jobs (skipping backoff-gated ones) up to
            # the worker count, so every submitted job is running and
            # submission time approximates start time.
            while len(self.inflight) < self.workers:
                state = self._take_eligible(now)
                if state is None:
                    break
                self._submit(state)
            if not self.inflight:
                if not self.queue:
                    break
                # Everything left is waiting out its backoff.
                time.sleep(max(0.0, min(s.not_before
                                        for s in self.queue) - now))
                continue
            with span("dispatch.wait", inflight=len(self.inflight)):
                done, _ = futures_wait(set(self.inflight),
                                       timeout=self._wait_timeout(now),
                                       return_when=FIRST_COMPLETED)
            for future in done:
                state = self.inflight.get(future)
                if state is None:
                    continue  # cleared by an earlier pool break
                if self._process_future(future, state):
                    break
            else:
                if self.policy.job_timeout is not None:
                    self._cull_timeouts()

    # -- last-resort inline attempts ---------------------------------------

    def _run_fallbacks(self) -> None:
        for state, reason, error in self.fallback:
            _log.warning("final in-process attempt", bench=state.name,
                         prior_failures=state.attempts)
            state.submitted_pc = time.perf_counter()
            state.serialize_seconds = 0.0  # inline: nothing is pickled
            state.payload_bytes = 0
            state.inject = self.plan.draw(state.name)
            try:
                with span("fallback_inline", bench=state.name):
                    output = run_job_inprocess(self._job(state))
            except Exception as exc:
                inc("faults.fallback.error")
                failure = self._settle_error(state, exc, mode="fallback")
                self._quarantine(state, reason, state.attempts + 1,
                                 f"{error}; inline fallback also failed: "
                                 f"{failure.message}")
            else:
                inc("faults.fallback.success")
                _log.info("inline fallback succeeded", bench=state.name)
                self._succeed(state, output, mode="fallback")


def dispatch_study_jobs(
        names: Sequence[str],
        thresholds: Sequence[int],
        config: DBTConfig,
        costs: CostModel,
        steps_scale: float,
        include_perf: bool,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        plan: Optional[faults.FaultPlan] = None,
        on_output: Optional[Callable[[WorkerOutput], None]] = None,
        verify: bool = False,
        profile: bool = False,
) -> DispatchResult:
    """Fan ``study_benchmark`` jobs out with retries and quarantine.

    Args:
        names: benchmarks to study (duplicates dropped with a warning).
        jobs: worker processes, capped at ``len(names)``; one worker
            runs every job inline, more run one job per future on a
            process pool.
        policy: retry budget, job timeout and backoff (default
            :class:`RetryPolicy`).
        plan: the armed fault-injection plan (default: parsed from
            ``$REPRO_FAULT_SPEC``).
        on_output: called in completion order with every successful
            :class:`WorkerOutput` (progress logging, incremental shard
            writes).  Runs in the parent process.
        verify: run the semantic verifier inside every study job.
        profile: arm the fine-grained profiling span sites inside every
            job (shipped explicitly — the worker must not re-read the
            environment, or a parent-side explicit choice would not
            survive the process hop).

    Returns a :class:`DispatchResult`; the caller merges observability
    deterministically and decides what quarantined benchmarks mean.
    """
    names = dedupe_names(names)
    policy = policy or RetryPolicy()
    plan = plan if plan is not None else faults.FaultPlan.from_env()
    on_output = on_output or (lambda output: None)
    job_tail = (tuple(thresholds), config, costs, steps_scale, include_perf,
                verify, profile)
    workers = min(jobs, len(names))
    pool = ProcessPool(workers, profile=profile) if workers > 1 else None
    if policy.job_timeout is not None and pool is None:
        _log.warning("job timeout is not enforced on the inline path",
                     job_timeout=policy.job_timeout)
    return Dispatcher(names, job_tail, pool, policy, plan, on_output).run()
