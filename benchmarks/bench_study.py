"""Micro-benchmark: reduced full-study wall time, serial vs parallel.

Times the same reduced study at ``jobs=1`` (inline) and ``jobs=N`` (the
process pool) under an interleaved best-of-2 protocol (the contenders
alternate inside each rep so machine drift hits both equally; the
per-contender minimum is reported).  Verifies the figure data is
byte-identical across the two, measures the single-pass multi-threshold
replay against per-threshold replays, and writes everything to
``BENCH_study.json`` so CI can track the perf trajectory PR-over-PR::

    PYTHONPATH=src python benchmarks/bench_study.py --out BENCH_study.json

On a single-core box the serial-vs-parallel speedup is meaningless, so
it is reported as ``null`` with an ``insufficient_cores`` flag instead
of a misleading ~1.0; CI gates on ``speedup > 1`` only when the flag is
absent.  Run as a script (pytest collects this file but finds no tests
in it).
"""

import argparse
import json
import os
import time

BENCH_NAMES = ["gzip", "mcf", "perlbmk", "twolf",       # INT
               "art", "swim", "ammp", "equake"]         # FP
BENCH_THRESHOLDS = [5, 50, 500, 5000]
BENCH_SCALE = 0.5
BENCH_REPS = 2  # best-of-2, interleaved


def _strip_manifest_bytes(results) -> bytes:
    """Serialised figure data with the (timing-bearing) manifest removed."""
    manifest, results.manifest = results.manifest, None
    try:
        from repro.harness.results import _result_to_dict
        payload = {name: _result_to_dict(r)
                   for name, r in results.benchmarks.items()}
        return json.dumps(payload, sort_keys=True).encode()
    finally:
        results.manifest = manifest


def _run_study(scale: float, **kwargs):
    from repro.harness import run_full_study

    started = time.perf_counter()
    results = run_full_study(names=BENCH_NAMES,
                             thresholds=BENCH_THRESHOLDS,
                             steps_scale=scale, include_perf=True,
                             cache_dir=None, **kwargs)
    return time.perf_counter() - started, results


def _dispatch_stats(manifest) -> dict:
    """The manifest's dispatch summary boiled down to three numbers."""
    summary = (manifest or {}).get("dispatch") or {}
    serialize = (summary.get("segments_seconds") or {}).get("serialize", 0.0)
    records = summary.get("records") or 0
    return {
        "overhead_ratio": summary.get("overhead_ratio", 0.0),
        "effective_parallelism": summary.get("effective_parallelism", 0.0),
        "amortized_serialize_seconds":
            round(serialize / records, 6) if records else 0.0,
    }


def bench_dispatch(jobs: int, scale: float):
    """Interleaved best-of-``BENCH_REPS``: serial vs ``jobs`` workers.

    Returns ``(best_seconds, kept_results)`` dicts keyed by the dispatch
    path (``inprocess``/``process``); the results kept are from each
    contender's *fastest* rep, so the dispatch stats describe the run
    whose time is reported.
    """
    contenders = [("inprocess", 1), ("process", jobs)]
    best: dict = {}
    kept: dict = {}
    for rep in range(BENCH_REPS):
        for label, workers in contenders:
            seconds, results = _run_study(scale, jobs=workers)
            print(f"  rep {rep + 1}/{BENCH_REPS} {label:9s} "
                  f"{seconds:8.2f}s")
            if label not in best or seconds < best[label]:
                best[label] = seconds
                kept[label] = results
    return best, kept


def bench_replay_single_vs_multi(scale: float):
    """One benchmark: per-threshold ReplayDBT loop vs the single pass."""
    from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
    from repro.workloads import get_benchmark

    benchmark = get_benchmark("gzip").scaled(scale)
    trace = benchmark.trace("ref")
    loops = benchmark.loop_forest()
    config = DBTConfig()
    trace.events()  # shared index built up front for both contenders

    started = time.perf_counter()
    for t in BENCH_THRESHOLDS:
        ReplayDBT(trace, benchmark.cfg, config.with_threshold(t),
                  loops=loops).run()
    single_sum = time.perf_counter() - started

    started = time.perf_counter()
    MultiThresholdReplay(trace, benchmark.cfg, BENCH_THRESHOLDS,
                         base_config=config, loops=loops).run()
    multi = time.perf_counter() - started
    return single_sum, multi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_study.json",
                        help="output JSON path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all CPUs; "
                             "at least 2, so the pool is exercised)")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE,
                        help="steps_scale of the reduced study")
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    jobs = max(2, args.jobs or cpu_count)
    flags = []
    print(f"reduced study: {len(BENCH_NAMES)} benchmarks x "
          f"{len(BENCH_THRESHOLDS)} thresholds at scale {args.scale}, "
          f"interleaved best-of-{BENCH_REPS}")

    best, kept = bench_dispatch(jobs, args.scale)
    serial_seconds = best["inprocess"]
    parallel_seconds = best["process"]

    identical = (_strip_manifest_bytes(kept["inprocess"]) ==
                 _strip_manifest_bytes(kept["process"]))
    if cpu_count >= 2:
        speedup = (round(serial_seconds / parallel_seconds, 3)
                   if parallel_seconds else 0.0)
    else:
        # One core: "parallel" time measures dispatch overhead, not
        # parallelism.  A ~1.0 number here would be noise that CI then
        # gates on — report null and flag it instead.
        speedup = None
        flags.append("insufficient_cores")
    print(f"serial {serial_seconds:.2f}s vs process "
          f"{parallel_seconds:.2f}s (speedup: {speedup}), "
          f"figure data identical: {identical}")

    backends = {}
    for label in ("inprocess", "process"):
        manifest = kept[label].manifest or {}
        backends[label] = dict(jobs=manifest.get("jobs"),
                               seconds=round(best[label], 3),
                               **_dispatch_stats(manifest))
    print("overhead/execute: " +
          ", ".join(f"{name} {stats['overhead_ratio']}"
                    for name, stats in sorted(backends.items())))

    single_sum, multi = bench_replay_single_vs_multi(args.scale)
    replay_speedup = single_sum / multi if multi else 0.0
    print(f"replay sweep: per-threshold {single_sum:.3f}s vs "
          f"single-pass {multi:.3f}s ({replay_speedup:.2f}x)")

    process_manifest = kept["process"].manifest or {}
    payload = {
        "benchmarks": BENCH_NAMES,
        "thresholds": BENCH_THRESHOLDS,
        "steps_scale": args.scale,
        "protocol": f"interleaved best-of-{BENCH_REPS}",
        "cpu_count": cpu_count,
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": speedup,
        "figure_data_identical": identical,
        "dispatch": {
            "schema": 3,
            **_dispatch_stats(process_manifest),
        },
        "backends": backends,
        "replay_sweep": {
            "per_threshold_seconds": round(single_sum, 3),
            "single_pass_seconds": round(multi, 3),
            "speedup": round(replay_speedup, 3),
        },
        "flags": flags,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    if not identical:
        return 1
    if speedup is not None and speedup <= 1.0:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
