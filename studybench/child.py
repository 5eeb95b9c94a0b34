"""One measurement in a fresh interpreter, started by ``run.py``.

    child.py probe --workload W
        Import the harness and build the workload's registry, then print
        ``{"ready": <perf_counter>, "import_s": .., "build_s": ..}``.
        ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared across
        processes, so the parent subtracts its spawn time from ``ready``.

    child.py study --workload W --seed N --cache-dir DIR --out FILE
                   [--jobs J] [--trace]
        Run one uncached study into the empty ``DIR``, render the
        workload's figures and write digests, manifest extracts and (with
        ``--trace``) spans to ``FILE``.  Pool workers are shut down and
        joined before exit, so the parent's ``wait4`` rusage covers them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import resource
import time
from contextlib import nullcontext

from tracer import Recorder
from workloads import SEED_STRIDE, WORKLOADS, Workload


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _build_registry(workload: Workload) -> list:
    from repro.workloads.spec import all_benchmarks, int_benchmarks
    return int_benchmarks() if workload.suite == "int" else all_benchmarks()


def _offset_seeds(seed: int) -> None:
    """Move every benchmark's walker seeds by ``seed * SEED_STRIDE``.

    Jobs fetch their benchmark through the pool worker module, in this
    process at ``jobs=1`` and in forked pool workers (which inherit the
    patch) otherwise.
    """
    if not seed:
        return
    from repro.harness.pool import worker

    fetch = worker.get_benchmark

    def get_benchmark(name):
        benchmark = fetch(name)
        return dataclasses.replace(
            benchmark,
            seed_ref=benchmark.seed_ref + SEED_STRIDE * seed,
            seed_train=benchmark.seed_train + SEED_STRIDE * seed)

    worker.get_benchmark = get_benchmark


def _result_digests(results) -> dict:
    return {name: _sha(json.dumps(dataclasses.asdict(result),
                                  sort_keys=True).encode())
            for name, result in sorted(results.benchmarks.items())}


def probe(workload: Workload) -> None:
    started = time.perf_counter()
    import repro.harness  # noqa: F401
    imported = time.perf_counter()
    _build_registry(workload)
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "import_s": imported - started,
                      "build_s": ready - imported}), flush=True)


def study(workload: Workload, seed: int, cache_dir: str, out: str,
          jobs: int, trace: bool) -> None:
    from repro.harness import FIGURES, render, run_full_study
    from repro.harness.pool.process import shutdown_warm_pools

    names = [b.name for b in _build_registry(workload)]
    _offset_seeds(seed)
    kwargs = dict(names=names, include_perf=workload.include_perf,
                  jobs=jobs, pool="process" if jobs > 1 else None,
                  cache_dir=cache_dir)
    recorder = Recorder()
    with recorder.installed() if trace else nullcontext():
        with recorder.span("study"):
            started = time.perf_counter()
            results = run_full_study(**kwargs)
            study_s = time.perf_counter() - started
        with recorder.span("figures.render"):
            figures = {str(n): _sha((render(FIGURES[n](results)) + "\n")
                                    .encode())
                       for n in workload.figures}
        digests = _result_digests(results)
        reload_match = None
        if trace:
            # A repeat run over the now-warm cache: the read path.
            with recorder.span("reload"):
                reloaded = run_full_study(**kwargs)
            reload_match = _result_digests(reloaded) == digests

    # The executor's manager thread joins the workers too, so poll
    # (which reaps) rather than join, until none is left.
    shutdown_warm_pools()
    give_up = time.perf_counter() + 60
    while multiprocessing.active_children() and \
            time.perf_counter() < give_up:
        time.sleep(0.05)

    own = resource.getrusage(resource.RUSAGE_SELF)
    manifest = results.manifest or {}
    dispatch = manifest.get("dispatch") or {}
    payload = {
        "study_s": study_s,
        "jobs": jobs,
        "attempted": len(names),
        "failed": sorted(manifest.get("failed_benchmarks") or {}),
        "figures": figures,
        "results": digests,
        "timings": manifest.get("timings") or {},
        "overhead_ratio": dispatch.get("overhead_ratio", 0.0),
        "effective_parallelism": dispatch.get("effective_parallelism",
                                              0.0),
        "counters": (manifest.get("metrics") or {}).get("counters") or {},
        "workers_left": len(multiprocessing.active_children()),
        "own_cpu_s": own.ru_utime + own.ru_stime,
        "reload_match": reload_match,
        "trace": recorder.export() if trace else None,
    }
    with open(out, "w") as f:
        json.dump(payload, f)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["probe", "study"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir")
    parser.add_argument("--out")
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "probe":
        probe(workload)
    else:
        study(workload, args.seed, args.cache_dir, args.out,
              args.jobs or workload.jobs, args.trace)


if __name__ == "__main__":
    main()
