"""Self-tests for the benchmark's own helpers.

    python3 -m pytest studybench/tests -q
"""

import json
import os
import re

import pytest

import run
import stats
from tracer import Recorder, layer_self_times, self_times
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_summary_reports_sample_count():
    samples = [float(i) for i in range(1, 101)]
    pct, value, count = stats.tail_summary(samples)
    assert (pct, count) == (90.0, 100)
    assert value == pytest.approx(90.1)
    assert sum(s > value for s in samples) >= stats.MIN_TAIL


def test_percentile_interpolates_and_handles_empty():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert stats.percentile([1.0, 3.0], 50) == 2.0
    assert stats.percentile([], 90) == 0.0


# -- self time ------------------------------------------------------------------

def _span(name, start, end, parent=None, job=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "job": job}


def test_self_time_subtracts_children():
    spans = [_span("study", 0.0, 10.0),
             _span("walker", 1.0, 4.0, 0),
             _span("replay", 5.0, 6.0, 0),
             _span("navep", 5.5, 6.0, 2)]
    assert self_times(spans) == pytest.approx([6.0, 3.0, 0.5, 0.5])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [_span("job", 0.0, 10.0),
             _span("a", 2.0, 6.0, 0),
             _span("b", 4.0, 8.0, 0),       # overlaps a by 2 s
             _span("c", 9.0, 12.0, 0)]      # runs past the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_times_cover_the_root_exactly():
    spans = [_span("study", 0.0, 10.0),
             _span("job", 0.5, 9.5, 0, "gzip"),
             _span("walker", 1.0, 4.0, 1, "gzip"),
             _span("walker", 4.0, 5.0, 1, "gzip"),
             _span("other-root", 11.0, 12.0)]
    layers = layer_self_times(spans, 0)
    assert layers == pytest.approx({"study": 1.0, "job": 5.0,
                                    "walker": 4.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_shares_job_ids():
    recorder = Recorder()

    class Bench:
        name = "mcf"

    def inner():
        return [0] * 7

    walker = recorder.wrap("walker", inner)
    job = recorder.wrap("job", lambda bench: walker())
    with recorder.span("study"):
        job(Bench())
    study, job_span, walker_span = recorder.spans
    assert (study["parent"], job_span["parent"],
            walker_span["parent"]) == (None, 0, 1)
    assert (study["job"], job_span["job"], walker_span["job"]) == \
        (None, "mcf", "mcf")
    assert recorder.counts["walker.steps"] == 7


# -- metric names ----------------------------------------------------------------

def test_benchmark_json_names_are_well_formed():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def _study_run():
    spans = [_span("study", 0.0, 10.0),
             _span("job", 0.0, 10.0, 0, "gzip"),
             _span("walker", 0.0, 6.0, 1, "gzip"),
             _span("navep", 6.0, 7.0, 1, "gzip"),
             _span("perfmodel.price", 7.0, 9.0, 1, "gzip"),
             _span("figures.render", 10.0, 10.1),
             _span("reload", 10.1, 10.3),
             _span("cache.read", 10.1, 10.2, 6)]
    report = {
        "study_s": 10.0, "jobs": 1, "attempted": 1, "failed": [],
        "timings": {"gzip": 10.0}, "overhead_ratio": 0.001,
        "effective_parallelism": 1.0,
        "counters": {"kernel.vector.decisions": 4,
                     "kernel.vector.decisions.slow": 1},
        "trace": {"spans": spans, "counts": {"walker.steps": 60}},
    }
    return run.StudyRun(wall_s=11.0, cpu_s=10.5, peak_rss_mb=100.0,
                        report=report)


def test_command_prints_every_declared_metric():
    spec = _spec()
    checks = run.Checks(attempted=26, figures_compared=11,
                        figures_matched=11)
    untraced = run.end_to_end_metrics([0.4, 0.5], [_study_run()], checks)
    assert set(untraced) == {m["name"] for m in spec["end_to_end"]}
    probe = {"import_s": 0.3, "build_s": 0.02}
    traced = run.per_layer_metrics([probe], _study_run(), [_study_run()],
                                   _study_run())
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
    assert traced["obs.attributed_frac"] == pytest.approx(0.9)
    assert traced["walker.slow_decision_frac"] == 0.25
    assert all(v != 0 for v in untraced.values())
