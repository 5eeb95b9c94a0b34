"""Dispatch telemetry: per-job timelines, manifest sections, trace lanes."""

import json
import os

import pytest

from repro.dbt import DBTConfig
from repro.harness import run_full_study
from repro.harness.faults import FaultPlan
from repro.harness.pool import RetryPolicy, dispatch_study_jobs
from repro.obs.dispatch import SEGMENTS, JobTimeline, summarize
from repro.obs.spans import (clear_trace, extend_trace, trace_events,
                             write_trace)
from repro.perfmodel import DEFAULT_COSTS

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)

DISPATCH_ARGS = dict(thresholds=[5, 50], config=DBTConfig(),
                     costs=DEFAULT_COSTS, steps_scale=0.02,
                     include_perf=False)


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


def _dispatch(names, jobs):
    policy = RetryPolicy(retries=0, backoff=0.0)
    return dispatch_study_jobs(names, jobs=jobs, policy=policy,
                               plan=FaultPlan(), **DISPATCH_ARGS)


# -- JobTimeline arithmetic ---------------------------------------------------


def test_timeline_totals_and_segments():
    record = JobTimeline(bench="gzip", serialize_seconds=0.1,
                         queue_seconds=0.2, spawn_seconds=0.15,
                         execute_seconds=1.0, transfer_seconds=0.05,
                         merge_seconds=0.05, payload_bytes=420)
    # spawn is a *slice of* queue, not an additional segment.
    assert record.total_seconds == pytest.approx(1.4)
    assert record.overhead_seconds == pytest.approx(0.4)
    assert record.segment("spawn") == 0.15
    data = record.to_dict()
    assert data["total_seconds"] == pytest.approx(1.4)
    assert "extra" not in data


def test_summarize_decomposes_wall_time():
    records = [
        JobTimeline(bench="a", execute_seconds=2.0, queue_seconds=0.5),
        JobTimeline(bench="b", execute_seconds=2.0, outcome="error"),
    ]
    summary = summarize(records, jobs=2, wall_seconds=2.5)
    assert summary["outcomes"] == {"ok": 1, "error": 1}
    assert summary["execute_seconds"] == 4.0
    assert summary["overhead_seconds"] == 0.5
    assert summary["effective_parallelism"] == 1.6
    assert set(summary["segments_seconds"]) == set(SEGMENTS)
    assert len(summary["records_detail"]) == 2


# -- dispatcher records -------------------------------------------------------


def test_inline_dispatch_records_timelines():
    result = _dispatch(["gzip"], jobs=1)
    (record,) = result.records
    assert record.mode == "inline"
    assert record.outcome == "ok"
    assert record.bench == "gzip"
    assert record.worker_pid == os.getpid()
    assert record.execute_seconds > 0
    assert record.queue_seconds == 0  # nothing queues in-process


def test_pool_dispatch_records_full_segments():
    result = _dispatch(["gzip", "mcf"], jobs=2)
    assert {r.bench for r in result.records} == {"gzip", "mcf"}
    for record in result.records:
        assert record.mode == "pool"
        assert record.outcome == "ok"
        assert record.worker_pid not in (None, os.getpid())
        assert record.payload_bytes > 0
        assert record.serialize_seconds > 0
        assert record.execute_seconds > 0
        assert record.queue_seconds >= 0
        assert 0 <= record.spawn_seconds <= record.queue_seconds + 1e-9
        assert record.transfer_seconds >= 0


# -- the manifest -------------------------------------------------------------


def test_manifest_carries_dispatch_and_profile_sections():
    results = run_full_study(names=["gzip", "mcf"], cache_dir=None,
                             jobs=2, **KWARGS)
    manifest = results.manifest
    dispatch = manifest["dispatch"]
    assert dispatch["jobs"] == 2
    assert dispatch["outcomes"] == {"ok": 2}
    assert dispatch["segments_seconds"]["execute"] > 0
    assert dispatch["segments_seconds"]["merge"] > 0  # runner attached it
    benches = {r["bench"] for r in dispatch["records_detail"]}
    assert benches == {"gzip", "mcf"}

    profile = manifest["profile"]
    assert profile["total_seconds"] > 0
    assert profile["coverage"] > 0.85
    assert "replay-walk" in profile["phases"]
    assert manifest["profile_enabled"] is False


def test_serial_manifest_attributes_without_double_counting():
    results = run_full_study(names=["gzip"], cache_dir=None, jobs=1,
                             **KWARGS)
    profile = results.manifest["profile"]
    # Inline job spans re-nest under full_study: one lane, and the
    # total is the run's wall time once, not twice.
    assert profile["lanes"] == 1
    assert profile["total_seconds"] <= \
        results.manifest["total_seconds"] * 1.5
    assert profile["coverage"] > 0.85


def test_inline_isolation_does_not_scale_with_parent_history():
    # A long-lived parent (a pytest run, a notebook) carries a large
    # trace buffer.  Isolating an inline job must set that history
    # aside, not copy it, or the copy lands in harness time and drags
    # phase coverage down with the buffer's size.
    history = [{"name": "history", "cat": "repro", "ph": "X",
                "ts": -1.0 - i, "dur": 1.0, "pid": os.getpid(), "tid": 0,
                "args": {}} for i in range(100_000)]
    # Warm the per-process caches first: mid-suite the study is short,
    # which is when a per-job copy of the history dominates.
    run_full_study(names=["gzip"], cache_dir=None, jobs=1, **KWARGS)
    clear_trace()
    extend_trace(history)
    try:
        results = run_full_study(names=["gzip"], cache_dir=None, jobs=1,
                                 **KWARGS)
        assert results.manifest["profile"]["coverage"] > 0.85
        assert trace_events()[:len(history)] == history
    finally:
        clear_trace()


def test_cached_run_skips_dispatch_section(tmp_path):
    cache = str(tmp_path / "cache")
    run_full_study(names=["gzip"], cache_dir=cache, jobs=1, **KWARGS)
    again = run_full_study(names=["gzip"], cache_dir=cache, jobs=1,
                           **KWARGS)
    # A pure cache hit dispatches nothing; the persisted manifest is the
    # original run's (which does carry its own dispatch summary).
    assert again.manifest["dispatch"] is not None
    assert again.manifest["cached_benchmarks"] == []


# -- figures are identical with profiling on or off ---------------------------


def test_profile_flag_does_not_change_figures(tmp_path):
    base = run_full_study(names=["gzip", "art"], cache_dir=None, jobs=1,
                          profile=False, **KWARGS)
    profiled = run_full_study(names=["gzip", "art"], cache_dir=None,
                              jobs=1, profile=True, **KWARGS)
    assert _identical_bytes(base, profiled, tmp_path)
    assert profiled.manifest["profile_enabled"] is True


def test_profile_mode_sharpens_attribution():
    run_full_study(names=["gzip"], cache_dir=None, jobs=1, profile=True,
                   **KWARGS)
    # The profile-gated region.form spans only exist in profile mode.
    names = {e["name"] for e in trace_events()}
    assert "region.form" in names


# -- Chrome trace lanes -------------------------------------------------------


def test_workers_render_as_distinct_trace_lanes(tmp_path):
    clear_trace()
    run_full_study(names=["gzip", "mcf"], cache_dir=None, jobs=2,
                   **KWARGS)
    own = os.getpid()
    pids = {e["pid"] for e in trace_events()}
    assert own in pids
    assert len(pids) >= 2  # at least one separate worker lane

    path = str(tmp_path / "trace.json")
    write_trace(path)
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    meta = [e for e in events if e.get("ph") == "M"]
    names = {e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    assert any(label.startswith("worker-") for label in names)
    # Metadata lanes only name *other* processes, never the parent row.
    assert all(e["pid"] != own for e in meta)
    # Duration events still come first (consumers index traceEvents[0]).
    assert events[0]["ph"] == "X"
