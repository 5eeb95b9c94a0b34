"""Micro-benchmark: profiling & attribution gates.

Runs the reduced study under the observability substrate and enforces
the attribution contract PR-over-PR::

    PYTHONPATH=src python benchmarks/bench_profile.py --out BENCH_profile.json

Four gates, any failure exits non-zero:

* **attribution** — the phase profiler must attribute at least
  ``MIN_COVERAGE`` (95%) of a serial run's wall time to named phases;
* **dispatch** — a parallel run's manifest must carry a per-job
  dispatch breakdown whose segments account for the jobs dispatched;
* **overhead** — the study with observability enabled must stay within
  ``MAX_OVERHEAD`` (2%) of the same study with :func:`repro.obs.disable`
  in force, judged on medians over at least ``MIN_PAIRS`` interleaved
  enabled/disabled pairs (see :func:`bench_overhead`);
* **figures** — figure data must be byte-identical with ``--profile``
  on and off (profiling observes, never steers).

Run as a script (pytest collects this file but finds no tests in it).
"""

import argparse
import json
import os
import time

import numpy as np

from bench_study import BENCH_NAMES, BENCH_THRESHOLDS, _strip_manifest_bytes

BENCH_SCALE = 0.5

#: Minimum fraction of wall time the profiler must attribute to phases.
MIN_COVERAGE = 0.95

#: Maximum tolerated wall-time cost of the observability substrate,
#: judged on the median pair difference of its span cost.
MAX_OVERHEAD = 0.02

#: Fewest interleaved enabled/disabled pairs the overhead gate judges.
MIN_PAIRS = 5

#: Times each pair re-enters the study's recorded spans per side.
SPAN_REPLAYS = 20


def _run_study(jobs, scale, profile=False):
    from repro.harness import run_full_study

    started = time.perf_counter()
    results = run_full_study(names=BENCH_NAMES,
                             thresholds=BENCH_THRESHOLDS,
                             steps_scale=scale, include_perf=True,
                             cache_dir=None, jobs=jobs, profile=profile)
    return time.perf_counter() - started, results


def bench_attribution(scale):
    """Serial run: the manifest's phase profile and its coverage."""
    seconds, results = _run_study(jobs=1, scale=scale)
    profile = results.manifest["profile"]
    return seconds, profile


def bench_dispatch(jobs, scale):
    """Parallel run: the manifest's dispatch breakdown."""
    seconds, results = _run_study(jobs=jobs, scale=scale)
    return seconds, results.manifest["dispatch"]


def bench_overhead(scale, pairs):
    """Observability cost: medians of interleaved pair differences.

    Each pair runs the study once with observability enabled and once
    with :func:`repro.obs.disable` in force, alternating which side runs
    first, and yields two differences, both relative to the pair's
    disabled wall time:

    * **spans** — every span the enabled run recorded, re-entered with
      its name and attributes ``SPAN_REPLAYS`` times with observability
      enabled, minus the same with it disabled, back to back.  That is
      the spans' own cost (timing, trace buffer, histograms, flight
      recorder) at microsecond resolution; the gate judges its median.
    * **wall** — enabled minus disabled wall time, end to end, reported
      but not gated: a shared host's own run-to-run swing (about 10%
      between back-to-back runs on a 2-core VM) swamps a 2% budget, so
      its median cannot be resolved against the limit in a few pairs.
    """
    from repro import obs
    from repro.obs import spans

    def timed(enabled):
        (obs.enable if enabled else obs.disable)()
        try:
            with spans.isolated():
                seconds, _ = _run_study(jobs=1, scale=scale)
                events = spans.trace_events()
        finally:
            obs.enable()
        return seconds, events

    def replay(calls, enabled):
        (obs.enable if enabled else obs.disable)()
        try:
            with spans.isolated():
                started = time.perf_counter()
                for _ in range(SPAN_REPLAYS):
                    for name, attrs in calls:
                        with obs.span(name, **attrs):
                            pass
                return (time.perf_counter() - started) / SPAN_REPLAYS
        finally:
            obs.enable()

    wall, span_cost = [], []
    for index in range(max(pairs, MIN_PAIRS)):
        sides = [True, False] if index % 2 == 0 else [False, True]
        runs = {enabled: timed(enabled) for enabled in sides}
        disabled = runs[False][0]
        wall.append((runs[True][0] - disabled) / disabled)
        calls = [(event["name"],
                  {key: value for key, value in event["args"].items()
                   if key not in ("depth", "parent", "error")})
                 for event in runs[True][1]]
        costs = {enabled: replay(calls, enabled) for enabled in sides}
        span_cost.append((costs[True] - costs[False]) / disabled)
    return overhead_summary(wall), overhead_summary(span_cost)


def overhead_summary(diffs):
    """Median and quartile spread of pair differences; the median is
    *resolved* when it is further from the limit than the spread."""
    q1, median, q3 = (float(q) for q in np.percentile(diffs, [25, 50, 75]))
    return {"pairs": [round(d, 5) for d in diffs], "median": median,
            "spread": q3 - q1,
            "resolved": abs(median - MAX_OVERHEAD) > q3 - q1}


def bench_profile_identity(scale):
    """Figure bytes with ``--profile`` off vs on."""
    _, base = _run_study(jobs=1, scale=scale, profile=False)
    _, profiled = _run_study(jobs=1, scale=scale, profile=True)
    return _strip_manifest_bytes(base) == _strip_manifest_bytes(profiled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_profile.json",
                        help="output JSON path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all CPUs)")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE,
                        help="steps_scale of the reduced study")
    parser.add_argument("--repeat", type=int, default=MIN_PAIRS,
                        help="interleaved enabled/disabled pairs of the "
                             f"overhead gate (at least {MIN_PAIRS})")
    args = parser.parse_args(argv)
    jobs = args.jobs or os.cpu_count() or 1

    print(f"profile gates: {len(BENCH_NAMES)} benchmarks x "
          f"{len(BENCH_THRESHOLDS)} thresholds at scale {args.scale}")

    serial_seconds, profile = bench_attribution(args.scale)
    coverage = profile["coverage"]
    top = sorted(profile["phases"].items(),
                 key=lambda kv: kv[1]["seconds"], reverse=True)[:3]
    hot = ", ".join(f"{name} {data['seconds']:.2f}s" for name, data in top)
    print(f"attribution: {coverage:.1%} of {serial_seconds:.2f}s "
          f"({hot})")

    dispatch_seconds, dispatch = bench_dispatch(jobs, args.scale)
    print(f"dispatch (jobs={jobs}): {dispatch['records']} records, "
          f"overhead {dispatch['overhead_ratio']:.1%}, "
          f"effective parallelism "
          f"{dispatch['effective_parallelism']:.2f}")

    wall, span_cost = bench_overhead(args.scale, args.repeat)
    for label, summary in (("wall", wall), ("spans", span_cost)):
        print(f"overhead ({label}): median {summary['median']:+.2%} over "
              f"{len(summary['pairs'])} interleaved pairs, quartile "
              f"spread {summary['spread']:.2%} "
              f"({'' if summary['resolved'] else 'un'}resolved)")

    identical = bench_profile_identity(args.scale)
    print(f"--profile figure data identical: {identical}")

    gates = {
        "attribution": coverage >= MIN_COVERAGE,
        "dispatch": (dispatch["records"] >= len(BENCH_NAMES)
                     and dispatch["segments_seconds"]["execute"] > 0),
        "overhead": span_cost["median"] <= MAX_OVERHEAD,
        "figures": identical,
    }
    payload = {
        "benchmarks": BENCH_NAMES,
        "thresholds": BENCH_THRESHOLDS,
        "steps_scale": args.scale,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "profile": {
            "coverage": round(coverage, 4),
            "total_seconds": round(profile["total_seconds"], 3),
            "phases": {name: round(data["seconds"], 3)
                       for name, data in profile["phases"].items()},
        },
        "dispatch": {
            "seconds": round(dispatch_seconds, 3),
            "records": dispatch["records"],
            "overhead_ratio": round(dispatch["overhead_ratio"], 4),
            "effective_parallelism":
                round(dispatch["effective_parallelism"], 3),
            "segments_seconds": {k: round(v, 3) for k, v in
                                 dispatch["segments_seconds"].items()},
        },
        "overhead": {"wall": wall, "spans": span_cost},
        "figure_data_identical": identical,
        "gates": gates,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print(f"GATE FAILURE: {', '.join(failed)}")
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
