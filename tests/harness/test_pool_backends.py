"""The two dispatch paths: inline at one worker, a process pool above.

The load-bearing guarantee of :mod:`repro.harness.pool`: figure data is
byte-identical for every job count — the paths differ only in transport
cost.  On top of that, a failing job must never charge its pool-mates,
an unpicklable job must fail fast with the original pickling error
instead of an opaque pool break, a drawn fault token must be refunded
when the attempt dies of an unrelated cause before the fault fires, and
``run_full_study(pool=)`` survives only as a consistency check on the
job count.
"""

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.dbt import DBTConfig
from repro.harness import run_full_study
from repro.harness.faults import FaultPlan
from repro.harness.pool import (JOBS_ENV, RetryPolicy, WorkerJobError,
                                dispatch_study_jobs, resolve_jobs)
from repro.obs import counter_value
from repro.perfmodel import DEFAULT_COSTS

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)

DISPATCH_ARGS = dict(thresholds=[5, 50], config=DBTConfig(),
                     costs=DEFAULT_COSTS, steps_scale=0.02,
                     include_perf=False)


def _dispatch(names, plan=None, retries=2, jobs=2, **overrides):
    policy = RetryPolicy(retries=retries, backoff=0.0)
    args = dict(DISPATCH_ARGS, **overrides)
    return dispatch_study_jobs(
        names, jobs=jobs, policy=policy,
        plan=plan if plan is not None else FaultPlan.from_spec(None),
        **args)


def _identical_bytes(results_a, results_b, tmp_path):
    """Byte-compare two StudyResults after manifest normalisation."""
    paths = []
    for i, results in enumerate((results_a, results_b)):
        manifest, results.manifest = results.manifest, None
        path = str(tmp_path / f"cmp{i}.json")
        results.save(path)
        results.manifest = manifest
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        return a.read() == b.read()


# -- knob resolution (satellite: empty-but-set env vars) ----------------------


def test_resolve_jobs_rejects_empty_env(monkeypatch):
    # An empty-but-set REPRO_JOBS is a broken shell expansion, and
    # silently running on every CPU is the worst possible reading.
    monkeypatch.setenv(JOBS_ENV, "")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_jobs(None)
    assert resolve_jobs(2) == 2  # explicit never consults the env


def test_pool_keyword_must_match_the_job_count():
    # The keyword configures nothing; it only has to agree with what the
    # job count picks.  No study runs: validation precedes everything.
    for pool, jobs in (("process", 1), ("inprocess", 2), ("batched", 2)):
        with pytest.raises(ValueError, match="contradicts"):
            run_full_study(names=["gzip"], cache_dir=None, jobs=jobs,
                           pool=pool, **KWARGS)


# -- job-count equivalence (the non-negotiable invariant) --------------------


def test_every_backend_produces_identical_bytes(tmp_path):
    """Inline (jobs 1) and the process pool (jobs 2, 3) give equal bytes."""
    names = ["gzip", "mcf", "art"]
    cells = [dict(jobs=1, pool="inprocess"), dict(jobs=2, pool="process"),
             dict(jobs=3)]
    runs = []
    deltas = []
    for cell in cells:
        translated = counter_value("replay.blocks_translated")
        results = run_full_study(names=names, cache_dir=None, **cell,
                                 **KWARGS)
        deltas.append(counter_value("replay.blocks_translated") -
                      translated)
        runs.append(results)
    baseline = runs[0]
    modes = {r["mode"] for r in
             baseline.manifest["dispatch"]["records_detail"]}
    assert modes == {"inline"}
    for cell, results in zip(cells[1:], runs[1:]):
        assert _identical_bytes(baseline, results, tmp_path), cell
        records = results.manifest["dispatch"]["records_detail"]
        assert {r["mode"] for r in records} == {"pool"}, cell
    # The observability merge is lossless: every cell lands exactly the
    # same replay counters in the parent registry.
    assert len(set(deltas)) == 1 and deltas[0] > 0


def test_patched_get_benchmark_drives_both_paths(monkeypatch, tmp_path):
    # Jobs fetch their benchmark through the worker module's global at
    # call time, inline and in forked workers alike: patching it must
    # move the results identically on both paths.
    from repro.harness.pool import worker

    fetch = worker.get_benchmark

    def reseeded(name):
        benchmark = fetch(name)
        return dataclasses.replace(benchmark,
                                   seed_ref=benchmark.seed_ref + 7919,
                                   seed_train=benchmark.seed_train + 7919)

    names = ["gzip", "art"]
    stock = run_full_study(names=names, cache_dir=None, jobs=1, **KWARGS)
    monkeypatch.setattr(worker, "get_benchmark", reseeded)
    serial = run_full_study(names=names, cache_dir=None, jobs=1, **KWARGS)
    parallel = run_full_study(names=names, cache_dir=None, jobs=2,
                              **KWARGS)
    assert _identical_bytes(serial, parallel, tmp_path)
    assert not _identical_bytes(stock, serial, tmp_path)


# -- failure containment ------------------------------------------------------


def test_error_in_one_job_spares_its_pool_mates():
    rebuilds = counter_value("faults.pool_rebuild")
    errors = counter_value("retry.error")
    dispatch = _dispatch(["art", "gzip", "mcf", "swim"],
                         plan=FaultPlan.from_spec("gzip:error:1"),
                         retries=2, jobs=2)
    assert set(dispatch.outputs) == {"art", "gzip", "mcf", "swim"}
    assert dispatch.failures == {}
    # A raising job is contained: the pool survives and only the failing
    # job is charged — every pool-mate's single attempt succeeded.
    assert counter_value("faults.pool_rebuild") == rebuilds
    assert counter_value("retry.error") == errors + 1
    per_bench = {}
    for record in dispatch.records:
        per_bench.setdefault(record.bench, []).append(record.outcome)
    assert per_bench["gzip"] == ["error", "ok"]
    for name in ("art", "mcf", "swim"):
        assert per_bench[name] == ["ok"]


def test_failure_envelope_survives_pickling():
    # Pool failures reach the parent only as a pickled WorkerJobError;
    # every field the dispatcher books from must make the trip.
    error = WorkerJobError("RuntimeError: boom", flight=[{"name": "x"}],
                           traceback_text="tb", fault_fired="error",
                           pid=4242, started_at=1.5, finished_at=2.5)
    copy = pickle.loads(pickle.dumps(error))
    assert str(copy) == "RuntimeError: boom"
    assert (copy.message, copy.flight, copy.traceback_text,
            copy.fault_fired, copy.pid, copy.started_at,
            copy.finished_at) == ("RuntimeError: boom", [{"name": "x"}],
                                  "tb", "error", 4242, 1.5, 2.5)


def test_aborted_parallel_study_leaves_no_worker_behind(monkeypatch,
                                                        tmp_path):
    # An exception out of the parent's completion handler unwinds the
    # dispatch: the pool must be killed and joined, not left with a
    # pending job for a later dispatch to trip over.
    def _full_disk(*args, **kwargs):
        raise OSError("no space left on device")

    names = ["gzip", "mcf", "art"]
    with monkeypatch.context() as patch:
        patch.setattr("repro.harness.runner.save_shard", _full_disk)
        with pytest.raises(OSError, match="no space left"):
            run_full_study(names=names, cache_dir=str(tmp_path / "a"),
                           jobs=2, **KWARGS)
    assert multiprocessing.active_children() == []
    results = run_full_study(names=names, cache_dir=str(tmp_path / "b"),
                             jobs=2, **KWARGS)
    assert set(results.benchmarks) == set(names)
    assert multiprocessing.active_children() == []


# -- pickling failures (satellite: swallowed into an empty payload) -----------


def test_unpicklable_job_fails_fast_with_original_error():
    class LocalConfig(DBTConfig):
        """Local classes cannot pickle by reference."""

    rebuilds = counter_value("faults.pool_rebuild")
    errors = counter_value("retry.error")
    fallback = counter_value("faults.fallback.success")
    dispatch = _dispatch(["gzip", "art"], retries=0, jobs=2,
                         config=LocalConfig())
    # The pickling failure is charged to each job immediately — no opaque
    # pool break — and the inline fallback (which never pickles) saves it.
    assert set(dispatch.outputs) == {"gzip", "art"}
    assert dispatch.failures == {}
    assert counter_value("faults.pool_rebuild") == rebuilds
    assert counter_value("retry.error") == errors + 2
    assert counter_value("faults.fallback.success") == fallback + 2
    failed = [r for r in dispatch.records if r.outcome == "error"]
    assert len(failed) == 2
    # Never serialised, never shipped.
    assert all(r.payload_bytes == 0 for r in failed)


def test_unpicklable_job_quarantine_names_pickling(monkeypatch):
    class LocalConfig(DBTConfig):
        pass

    # Break the fallback too (profiling reset runs before the study), so
    # the quarantine surfaces and its error names the real culprit.
    def _boom():
        raise RuntimeError("sampler exploded")

    monkeypatch.setattr("repro.obs.profile.reset_sampling", _boom)
    dispatch = _dispatch(["gzip", "art"], retries=0, jobs=2,
                         config=LocalConfig())
    assert dispatch.outputs == {}
    for failure in dispatch.failures.values():
        assert "failed to pickle" in failure.error
        assert "inline fallback also failed" in failure.error
    assert set(dispatch.failures) == {"gzip", "art"}


# -- fault-token refunds (satellite: tokens lost to unrelated deaths) ---------


def test_unfired_token_refunded_when_attempt_dies_early(monkeypatch):
    # The attempt dies in job setup, *before* the drawn fault fires: the
    # token must go back to the plan, or the injection schedule would
    # silently lose a scheduled fault to an unrelated failure.
    def _boom():
        raise RuntimeError("sampler exploded")

    monkeypatch.setattr("repro.obs.profile.reset_sampling", _boom)
    plan = FaultPlan.from_spec("gzip:error:1")
    refunded = counter_value("faults.refunded")
    dispatch = _dispatch(["gzip"], plan=plan, retries=0, jobs=1)
    assert dispatch.failures["gzip"].reason == "error"
    assert "sampler exploded" in dispatch.failures["gzip"].error
    assert counter_value("faults.refunded") == refunded + 1
    # The schedule survives: the token is drawable again.
    assert plan.draw("gzip") == "error"


def test_fired_token_consumed_on_failure():
    # The injected fault itself caused the death: consumed, not refunded.
    plan = FaultPlan.from_spec("gzip:error:1")
    refunded = counter_value("faults.refunded")
    dispatch = _dispatch(["gzip"], plan=plan, retries=1, jobs=1)
    assert set(dispatch.outputs) == {"gzip"}  # retry succeeded
    assert counter_value("faults.refunded") == refunded
    assert plan.draw("gzip") is None  # budget spent


def _blas_threads():
    """numpy's bundled OpenBLAS thread count in this process, or None."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def test_pool_workers_run_blas_on_one_thread():
    """Each pool worker caps numpy's OpenBLAS at one thread, so workers
    do not oversubscribe the cores; the parent process keeps its own."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.harness.pool.worker import pool_worker_init

    before = _blas_threads()
    if before is None:
        pytest.skip("numpy has no bundled OpenBLAS to cap")
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx,
                             initializer=pool_worker_init) as pool:
        assert pool.submit(_blas_threads).result(timeout=60) == 1
    assert _blas_threads() == before
