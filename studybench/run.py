"""The study benchmark of record: one closed-loop study per measurement.

Run from the repository root::

    python3 studybench/run.py --workload full-serial --seed 0 --seconds 20 --trace 0

Each study runs in a fresh interpreter (``child.py``) against an empty
cache directory, as a first ``repro-study`` run does; studies repeat
back to back until ``--seconds`` have passed (the one in progress
finishes, so at least one runs).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced run.  Every output is checked:
the rendered figures byte for byte against the reference (the committed
``results/fig*.txt`` at seed 0, the first run's digests at any other
seed), quarantined benchmarks, and — traced — that the traced results
serialise to the same bytes as the untraced ones.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import stats
from tracer import HARNESS_SPANS, call_seconds, layer_self_times
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
#: Scratch space inside the checkout (gitignored).
STATE_DIR = os.path.join(".bench_build", "studybench")
#: Wall-clock budget of one invocation, under the 180 s limit.
DEADLINE_S = 170.0
#: Timed set-up probes per run (after one untimed warm-up probe).
SETUP_PROBES = 5


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong result)."""


@dataclass
class StudyRun:
    """One study child: its own report plus the parent's rusage."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report: Dict

    @property
    def job_seconds(self) -> float:
        return sum(self.report["timings"].values())


@dataclass
class Checks:
    """Correctness bookkeeping across every study of one run."""

    attempted: int = 0
    failed: int = 0
    figures_compared: int = 0
    figures_matched: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)


# -- host facts ---------------------------------------------------------------

def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count in effect, read from numpy's own copy."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def host_facts() -> Dict:
    """What the machine and libraries were; nothing here is set."""
    import numpy
    blas = (numpy.show_config(mode="dicts").get("Build Dependencies")
            or {}).get("blas") or {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k, "unset") for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


# -- children -----------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    """The caller's environment minus the program's own ``REPRO_*``
    options, so every study runs the default production path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def _kill(proc: subprocess.Popen) -> None:
    """Kill the child's whole session (it and any pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts children against one deadline and reaps every one."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = _child_env()
        self.serial = 0

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left

    def probe(self) -> Dict:
        """Fresh interpreter to first study call, timed from here."""
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, "probe", "--workload",
             self.workload.name],
            stdout=subprocess.PIPE, env=self.env, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            _kill(proc)
            proc.wait()
            raise BenchError("set-up probe timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}")
        report = json.loads(out.decode().strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        return report

    def study(self, jobs: int, trace: bool) -> StudyRun:
        """One uncached study child; rusage read by ``wait4``."""
        self.serial += 1
        run_dir = os.path.join(STATE_DIR,
                               f"run-{os.getpid()}-{self.serial}")
        shutil.rmtree(run_dir, ignore_errors=True)
        cache_dir = os.path.join(run_dir, "cache")
        out = os.path.join(run_dir, "report.json")
        os.makedirs(cache_dir)
        command = [sys.executable, CHILD, "study",
                   "--workload", self.workload.name,
                   "--seed", str(self.seed), "--jobs", str(jobs),
                   "--cache-dir", cache_dir, "--out", out]
        if trace:
            command.append("--trace")
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=sys.stderr, env=self.env,
                                start_new_session=True)
        try:
            status, usage = self._wait4(proc)
            wall = time.perf_counter() - started
            if status != 0:
                raise BenchError(f"study child exited {status}")
            with open(out) as f:
                report = json.load(f)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        run = StudyRun(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss / 1024.0, report=report)
        print(f"study {self.serial} (jobs={jobs}, trace={int(trace)}): "
              f"study_s={report['study_s']:.3f} cpu_s={run.cpu_s:.3f} "
              f"(study process alone {report['own_cpu_s']:.3f}) "
              f"job_s_sum={run.job_seconds:.3f} "
              f"peak_rss_mb={run.peak_rss_mb:.1f}")
        return run

    def _wait4(self, proc: subprocess.Popen):
        """Reap ``proc`` with its rusage (which includes every pool
        worker it reaped itself); kill it at the deadline."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage
                self.remaining()
                time.sleep(0.05)
        except BaseException:
            _kill(proc)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise


# -- correctness ----------------------------------------------------------------

def _committed_digests() -> Dict[str, str]:
    digests = {}
    for path in glob.glob(os.path.join("results", "fig[0-9][0-9]_*.txt")):
        number = int(os.path.basename(path)[3:5])
        with open(path, "rb") as f:
            digests[str(number)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def check_study(run: StudyRun, seed: int, checks: Checks,
                reference: Dict[str, str], committed: Dict[str, str]
                ) -> None:
    """Check one study's outputs, recording new seed references."""
    report = run.report
    checks.attempted += report["attempted"]
    checks.failed += len(report["failed"])
    if report["failed"]:
        checks.fail(f"quarantined: {report['failed']}")
    if report["workers_left"]:
        checks.fail(f"{report['workers_left']} pool workers not reaped")
    for number, digest in sorted(report["figures"].items(),
                                 key=lambda kv: int(kv[0])):
        checks.figures_compared += 1
        expected = reference.setdefault(number, digest)
        if digest == expected:
            checks.figures_matched += 1
        else:
            checks.fail(f"figure {number} differs from the reference")
        if seed and digest == committed.get(number):
            checks.fail(f"figure {number} equals the seed-0 corpus: "
                        f"the seed offset did not reach the study")


def load_reference(seed: int) -> Dict[str, str]:
    if seed == 0:
        return _committed_digests()
    path = os.path.join(STATE_DIR, f"reference-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {}


def save_reference(seed: int, reference: Dict[str, str]) -> None:
    if seed == 0:
        return
    path = os.path.join(STATE_DIR, f"reference-seed{seed}.json")
    with open(path + ".tmp", "w") as f:
        json.dump(reference, f, sort_keys=True)
    os.replace(path + ".tmp", path)


# -- the two kinds of run -----------------------------------------------------------

def run_studies(runner: Runner, jobs: int, seconds: float, checks: Checks,
                reference: Dict[str, str], committed: Dict[str, str]
                ) -> List[StudyRun]:
    """Untraced studies back to back until ``seconds`` have passed (the
    study in progress finishes, so at least one runs)."""
    studies: List[StudyRun] = []
    began = time.perf_counter()
    while True:
        run = runner.study(jobs, trace=False)
        check_study(run, runner.seed, checks, reference, committed)
        studies.append(run)
        if time.perf_counter() - began >= seconds or \
                runner.remaining() < 2 * run.wall_s + 5:
            return studies


def measure(runner: Runner, seconds: float, checks: Checks,
            reference: Dict[str, str], committed: Dict[str, str]) -> Dict:
    """Untraced run: set-up probes, then the workload's studies."""
    runner.probe()  # warm-up: bytecode caches, page cache
    setup = [runner.probe()["setup_s"] for _ in range(SETUP_PROBES)]
    studies = run_studies(runner, runner.workload.jobs, seconds, checks,
                          reference, committed)
    return end_to_end_metrics(setup, studies, checks)


def end_to_end_metrics(setup: List[float], studies: List[StudyRun],
                       checks: Checks) -> Dict[str, float]:
    """Medians over the run's studies (and set-up probes)."""
    return {
        "study_s": stats.median([s.report["study_s"] for s in studies]),
        "cpu_s": stats.median([s.cpu_s for s in studies]),
        "setup_s": stats.median(setup),
        "peak_rss_mb": stats.median([s.peak_rss_mb for s in studies]),
        "benchmarks_ok_frac": 1.0 - checks.failed / checks.attempted,
        "figures_matched_frac":
            checks.figures_matched / checks.figures_compared,
    }


def trace_run(runner: Runner, seconds: float, checks: Checks,
              reference: Dict[str, str], committed: Dict[str, str]
              ) -> Dict:
    """Traced study at ``jobs=1`` beside untraced ones: a ``jobs=1``
    baseline (studies for ``seconds``) and, for a pooled workload, one
    study at its own width whose manifest gives the harness numbers."""
    runner.probe()
    probes = [runner.probe() for _ in range(3)]
    pooled = None
    if runner.workload.jobs != 1:
        pooled = runner.study(runner.workload.jobs, trace=False)
        check_study(pooled, runner.seed, checks, reference, committed)
    baseline = run_studies(runner, 1, seconds, checks, reference,
                           committed)
    traced = runner.study(1, trace=True)
    check_study(traced, runner.seed, checks, reference, committed)
    if any(traced.report["results"] != run.report["results"]
           for run in baseline):
        checks.fail("traced results differ from the untraced run's")
    if not traced.report["reload_match"]:
        checks.fail("warm-cache reload differs from the cold results")
    path = os.path.join(STATE_DIR, f"trace-{runner.workload.name}.json")
    with open(path, "w") as f:
        json.dump(traced.report["trace"], f)
    for name in ("navep", "perfmodel.price"):
        pct, value, count = stats.tail_summary(
            call_seconds(traced.report["trace"]["spans"], name))
        if count:
            print(f"{name} calls: n={count}, highest percentile with "
                  f"{stats.MIN_TAIL}+ samples beyond: p{pct} = "
                  f"{1e3 * value:.3f} ms")
    return per_layer_metrics(probes, pooled or baseline[0], baseline,
                             traced)


def per_layer_metrics(probes: List[Dict], untraced: StudyRun,
                      baseline: List[StudyRun], traced: StudyRun
                      ) -> Dict[str, float]:
    """Per-layer numbers: self times and counts from the traced study,
    harness numbers from the untraced study's manifest, trace overhead
    against the median untraced ``jobs=1`` study."""
    spans = traced.report["trace"]["spans"]
    counts = traced.report["trace"]["counts"]
    counters = traced.report["counters"]
    roots = {s["name"]: i for i, s in enumerate(spans)
             if s["parent"] is None}
    study_root = roots["study"]
    layers = layer_self_times(spans, study_root)
    reload_layers = layer_self_times(spans, roots["reload"])
    render = layer_self_times(spans, roots["figures.render"])
    wall = spans[study_root]["end"] - spans[study_root]["start"]
    harness_self = sum(layers.get(name, 0.0) for name in HARNESS_SPANS)
    navep_ms = [1e3 * s for s in call_seconds(spans, "navep")]
    price_ms = [1e3 * s for s in call_seconds(spans, "perfmodel.price")]
    decisions = counters.get("kernel.vector.decisions", 0)
    walker_s = layers.get("walker", 0.0)

    jobs = untraced.report["jobs"]
    job_s = list(untraced.report["timings"].values())
    return {
        "walker.s": walker_s,
        "walker.steps": counts.get("walker.steps", 0),
        "walker.steps_per_s":
            counts.get("walker.steps", 0) / walker_s if walker_s else 0.0,
        "walker.slow_decision_frac":
            counters.get("kernel.vector.decisions.slow", 0) / decisions
            if decisions else 0.0,
        "replay.s": layers.get("replay", 0.0),
        "replay.registrations":
            counters.get("replay.kernel.batched.events", 0),
        "replay.regions_formed": counters.get("replay.regions_formed", 0),
        "profiles.s": layers.get("profiles", 0.0),
        "snapshot.s": layers.get("snapshot", 0.0),
        "train_compare.s": layers.get("train_compare", 0.0),
        "navep.s": layers.get("navep", 0.0),
        "navep.calls": len(navep_ms),
        "navep.call_ms.p50": stats.percentile(navep_ms, 50),
        "navep.call_ms.p90": stats.percentile(navep_ms, 90),
        "navep.graph_nodes": counts.get("navep.graph_nodes", 0),
        "perfmodel.tables_s": layers.get("perfmodel.tables", 0.0),
        "perfmodel.price_s": layers.get("perfmodel.price", 0.0),
        "perfmodel.price_calls": len(price_ms),
        "perfmodel.price_call_ms.p50": stats.percentile(price_ms, 50),
        "perfmodel.price_call_ms.p90": stats.percentile(price_ms, 90),
        "perfmodel.steps_priced": counts.get("perfmodel.steps_priced", 0),
        "perfmodel.tables_mb": counts.get("perfmodel.tables_mb", 0.0),
        "harness.self_s": harness_self,
        "harness.job_s.p50": stats.percentile(job_s, 50),
        "harness.job_s.max": max(job_s),
        "harness.idle_worker_s":
            jobs * untraced.report["study_s"] - sum(job_s),
        "harness.effective_parallelism":
            untraced.report["effective_parallelism"],
        "harness.dispatch_overhead_ratio": untraced.report["overhead_ratio"],
        "harness.retries": sum(
            v for k, v in untraced.report["counters"].items()
            if k.startswith("retry.") and k != "retry.resubmitted"),
        "cache.write_s": layers.get("cache.write", 0.0),
        "cache.read_s": reload_layers.get("cache.read", 0.0),
        "figures.render_s": render.get("figures.render", 0.0),
        "workloads.build_s": stats.median([p["build_s"] for p in probes]),
        "import_s": stats.median([p["import_s"] for p in probes]),
        "obs.trace_overhead_frac":
            traced.report["study_s"] /
            stats.median([b.report["study_s"] for b in baseline]) - 1.0,
        "obs.attributed_frac": 1.0 - harness_self / wall,
    }


def print_layers(metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g}")


# -- entry point ------------------------------------------------------------------

def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="The study benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "harness",
                                       "__init__.py")):
        print("studybench: run from a repository checkout (src/repro "
              "not found)", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    print("host: " + json.dumps(host_facts()))
    os.makedirs(STATE_DIR, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed)
    checks = Checks()
    reference = load_reference(args.seed)
    committed = _committed_digests()
    if len(committed) != len(WORKLOADS["full-serial"].figures):
        print("studybench: committed results/fig*.txt corpus incomplete",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics = trace_run(runner, args.seconds, checks, reference,
                                committed)
            print_layers(metrics)
        else:
            metrics = measure(runner, args.seconds, checks, reference,
                              committed)
    except BenchError as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        return 1
    save_reference(args.seed, reference)
    if set(metrics) != set(declared):
        print(f"studybench: metrics {sorted(set(metrics) ^ set(declared))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for problem in checks.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
