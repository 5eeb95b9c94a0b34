"""Micro-benchmark: scalar oracles vs the production walker and replay.

Times trace recording for every (benchmark, input) cell of the suite
with the scalar ``CFGWalker`` oracle and the vectorized kernel, asserts
the event streams are byte-identical, and writes ``BENCH_kernel.json``::

    PYTHONPATH=src python benchmarks/bench_kernel.py --out BENCH_kernel.json

Measurement protocol: the machine this runs on is noisy, so cells are
timed **interleaved** (scalar then vector inside the same repetition,
repeated ``--reps`` times) and each cell reports its **best-of-N
minimum** for both kernels.  Solo back-to-back sweeps systematically
flatter whichever side runs second; interleaved minima are the honest
comparison.

The headline ``walker`` section times the raw event kernels with no
per-block index on either side (``CFGWalker.run`` vs
``VecWalker.run_batches`` + assembly).  The secondary ``replay_ready``
section times the full hand-off to the replay — trace plus per-block
event index (built incrementally by the production
:func:`~repro.stochastic.record_trace`, by one full argsort on the
scalar path) — the denominator that matters for end-to-end study runs.

The ``replay_path`` section races the *consumers* of that hand-off:
the per-event scalar replay oracle
(:func:`~repro.dbt.batchreplay.run_scalar_replay`, one threshold at a
time) against the production ``MultiThresholdReplay``, each replaying
every threshold over an identical pre-recorded trace and then pricing
every threshold's translation map (the production side sharing one
``CostTables`` across the sweep, exactly as the harness does).  Both
sides must produce bit-identical cost breakdowns.

Run as a script (pytest collects this file but finds no tests in it).
"""

import argparse
import json
import sys
import time


def _cells(scale):
    from repro.workloads.spec import all_benchmarks
    for benchmark in all_benchmarks():
        if scale != 1.0:
            benchmark = benchmark.scaled(scale)
        yield f"{benchmark.name}:ref", benchmark, "ref"
        yield f"{benchmark.name}:train", benchmark, "train"


def _cell_params(benchmark, input_name):
    ref, train = benchmark.behaviors()
    if input_name == "ref":
        return ref, benchmark.run_steps, benchmark.seed_ref
    return train, benchmark.train_steps, benchmark.seed_train


def bench_kernels(reps, scale, with_index=False):
    """Interleaved best-of-N cell times; asserts stream identity once.

    ``with_index=False`` races the raw kernels (no per-block event index
    on either side); ``with_index=True`` races the replay-ready hand-off
    (trace *plus* index; the vector side via the public
    :func:`record_trace` path).
    """
    import numpy as np

    from repro.stochastic import (CFGWalker, VecWalker, assemble_trace,
                                  record_trace)

    cells = list(_cells(scale))
    best = {label: [float("inf"), float("inf")] for label, _, _ in cells}
    mismatches = []
    for rep in range(reps):
        for label, benchmark, input_name in cells:
            behavior, steps, seed = _cell_params(benchmark, input_name)
            cfg = benchmark.cfg
            if with_index:
                t0 = time.perf_counter()
                scalar = CFGWalker(cfg, behavior, seed=seed).run(steps)
                scalar.events()
                t1 = time.perf_counter()
                vector = record_trace(cfg, behavior, steps, seed=seed)
                vector.events()
                t2 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                scalar = CFGWalker(cfg, behavior, seed=seed).run(steps)
                t1 = time.perf_counter()
                vector = assemble_trace(
                    VecWalker(cfg, behavior, seed=seed).run_batches(steps),
                    cfg.num_nodes, build_index=False)
                t2 = time.perf_counter()
            cell = best[label]
            cell[0] = min(cell[0], t1 - t0)
            cell[1] = min(cell[1], t2 - t1)
            if rep == 0 and not (
                    np.array_equal(scalar.blocks, vector.blocks)
                    and np.array_equal(scalar.taken, vector.taken)):
                mismatches.append(label)
    return best, mismatches


def bench_replay(reps, scale):
    """Interleaved best-of-N replay-path times; asserts bit identity.

    Each cell pre-records one reference trace (vector kernel — both
    contenders consume identical bytes), then races, per repetition,
    the scalar oracle (per-event heap walk per threshold + per-call
    cost estimates) against the production path (batched windowed
    sweeps + one shared ``CostTables``) over the full
    ``SIM_THRESHOLDS`` ladder.  The cost breakdowns must agree field
    for field with ``==`` on the raw floats — the same identity the
    golden corpus pins.
    """
    from repro.cfg.loops import find_loops
    from repro.dbt import (DBTConfig, MultiThresholdReplay,
                           ThresholdReplayState)
    from repro.dbt.batchreplay import run_scalar_replay
    from repro.dbt.multireplay import registration_positions
    from repro.perfmodel import CostTables, estimate_cost
    from repro.stochastic import record_trace
    from repro.workloads.spec import SIM_THRESHOLDS

    thresholds = list(SIM_THRESHOLDS)
    best = {}
    mismatches = []
    for label, benchmark, input_name in _cells(scale):
        if input_name != "ref":
            continue  # replay only ever runs over the reference trace
        behavior, steps, seed = _cell_params(benchmark, input_name)
        cfg = benchmark.cfg
        sizes = benchmark.workload.sizes
        trace = record_trace(cfg, behavior, steps, seed=seed)

        def oracle_side():
            loops = find_loops(cfg)
            events = trace.events()
            priced = []
            for t in thresholds:
                config = DBTConfig(threshold=t)
                state = ThresholdReplayState(trace, cfg, config, loops)
                run_scalar_replay(registration_positions(events, t),
                                  config, state.optimize_blocks)
                priced.append(estimate_cost(trace, state.translation_map(),
                                            sizes))
            return priced

        def production_side():
            sweep = MultiThresholdReplay(trace, cfg, thresholds).run()
            tables = CostTables(trace, sizes)
            return [estimate_cost(trace,
                                  sweep.state(t).translation_map(),
                                  sizes, tables=tables)
                    for t in thresholds]

        cell = [float("inf"), float("inf")]
        for rep in range(reps):
            t0 = time.perf_counter()
            scalar = oracle_side()
            t1 = time.perf_counter()
            batched = production_side()
            t2 = time.perf_counter()
            cell[0] = min(cell[0], t1 - t0)
            cell[1] = min(cell[1], t2 - t1)
            if rep == 0 and any(
                    (a.unoptimized, a.optimized, a.side_exits,
                     a.translation, a.num_side_exits,
                     a.optimized_fraction) !=
                    (b.unoptimized, b.optimized, b.side_exits,
                     b.translation, b.num_side_exits,
                     b.optimized_fraction)
                    for a, b in zip(scalar, batched)):
                mismatches.append(label)
        best[label] = cell
    return best, mismatches


def _section(best, a="scalar_s", b="vector_s"):
    total_scalar = sum(cell[0] for cell in best.values())
    total_vector = sum(cell[1] for cell in best.values())
    return {
        "cells": {label: {a: round(cell[0], 4),
                          b: round(cell[1], 4),
                          "speedup": round(cell[0] / cell[1], 2)}
                  for label, cell in sorted(best.items())},
        f"total_{a}": round(total_scalar, 3),
        f"total_{b}": round(total_vector, 3),
        "speedup": round(total_scalar / total_vector, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path")
    parser.add_argument("--reps", type=int, default=5,
                        help="interleaved repetitions per cell "
                             "(best-of-N minima are reported)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="steps_scale applied to every benchmark")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail (exit 1) if the aggregate walker "
                             "speedup lands below this")
    parser.add_argument("--min-replay-speedup", type=float, default=0.0,
                        help="fail (exit 1) if the aggregate replay-"
                             "path speedup lands below this")
    args = parser.parse_args(argv)

    print(f"kernel bench: full suite, reps={args.reps}, "
          f"scale={args.scale} (interleaved best-of-N minima)")
    walker_best, mismatches = bench_kernels(args.reps, args.scale)
    replay_best, _ = bench_kernels(1, args.scale, with_index=True)
    replay_path_best, replay_mismatches = bench_replay(args.reps,
                                                       args.scale)

    walker = _section(walker_best)
    replay_ready = _section(replay_best)
    replay_path = _section(replay_path_best, a="scalar_s", b="batched_s")
    payload = {
        "bench": "kernel",
        "protocol": f"interleaved best-of-{args.reps} minima per cell",
        "scale": args.scale,
        "walker": walker,
        "replay_ready": replay_ready,
        "replay_path": replay_path,
        "identical_streams": not mismatches,
        "mismatched_cells": mismatches,
        "identical_replay_outcomes": not replay_mismatches,
        "mismatched_replay_cells": replay_mismatches,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)

    for label, cell in sorted(walker["cells"].items()):
        print(f"  {label:24s} scalar {cell['scalar_s']*1e3:8.1f}ms "
              f"vector {cell['vector_s']*1e3:8.1f}ms "
              f"{cell['speedup']:5.2f}x")
    print(f"walker path: scalar {walker['total_scalar_s']:.2f}s "
          f"vector {walker['total_vector_s']:.2f}s "
          f"-> {walker['speedup']:.2f}x")
    print(f"replay-ready (trace+index): {replay_ready['speedup']:.2f}x")
    print(f"replay path (sweep+pricing): scalar "
          f"{replay_path['total_scalar_s']:.2f}s batched "
          f"{replay_path['total_batched_s']:.2f}s "
          f"-> {replay_path['speedup']:.2f}x")
    print(f"wrote {args.out}")

    if mismatches:
        print(f"FAIL: event streams differ for {mismatches}",
              file=sys.stderr)
        return 1
    if replay_mismatches:
        print(f"FAIL: replay outcomes differ for {replay_mismatches}",
              file=sys.stderr)
        return 1
    if walker["speedup"] < args.min_speedup:
        print(f"FAIL: walker speedup {walker['speedup']:.2f}x below "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if replay_path["speedup"] < args.min_replay_speedup:
        print(f"FAIL: replay-path speedup {replay_path['speedup']:.2f}x "
              f"below required {args.min_replay_speedup:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
