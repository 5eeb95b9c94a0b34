"""Determinism audit: no code path draws from ambient global RNG state.

Every stochastic draw in the pipeline must flow through an explicitly
seeded generator (``random.Random(seed)`` or a transplanted
``numpy.random.RandomState``).  A single draw from the module-level
``random`` functions or the global numpy generator would make runs
irreproducible and break the byte-identity guarantees the golden corpus
pins — so these tests boobytrap every global entry point and then drive
the public API under both walkers: the production vector kernel and the
scalar ``CFGWalker`` oracle swapped in where the workloads record traces.
"""

import random

import numpy as np
import pytest

from repro.harness import run_full_study
from repro.stochastic import CFGWalker
from repro.workloads import get_benchmark, spec

#: Module-level functions of :mod:`random` that draw from the hidden
#: shared ``Random`` instance.
_PY_GLOBALS = ("random", "uniform", "randint", "randrange", "choice",
               "choices", "shuffle", "sample", "gauss", "normalvariate",
               "expovariate", "betavariate", "seed", "getrandbits")

#: Module-level numpy draws backed by the global ``mtrand`` state.
_NP_GLOBALS = ("random", "random_sample", "rand", "randn", "randint",
               "uniform", "choice", "shuffle", "permutation", "normal",
               "standard_normal", "seed", "default_rng")


@pytest.fixture
def trapped_global_rng(monkeypatch):
    """Make every global RNG entry point raise on use."""
    def trap(label):
        def _boom(*args, **kwargs):
            raise AssertionError(f"pipeline drew from global RNG: {label}")
        return _boom

    for name in _PY_GLOBALS:
        monkeypatch.setattr(random, name, trap(f"random.{name}"))
    for name in _NP_GLOBALS:
        if hasattr(np.random, name):
            monkeypatch.setattr(np.random, name,
                                trap(f"numpy.random.{name}"))

    # random.Random() with no seed is just as ambient as random.random()
    # — allow only explicitly seeded construction.  (VecWalker's
    # RandomState() is exempt: it is state-transplanted before any draw.)
    real_random = random.Random

    def seeded_only(*args, **kwargs):
        if not args and not kwargs:
            raise AssertionError("unseeded random.Random() constructed")
        return real_random(*args, **kwargs)

    monkeypatch.setattr(random, "Random", seeded_only)


@pytest.fixture(params=["scalar", "vector"])
def walker(request, monkeypatch):
    """Record every workload trace with the named walker."""
    if request.param == "scalar":
        def scalar_record_trace(cfg, behavior, max_steps, seed=0):
            return CFGWalker(cfg, behavior, seed=seed).run(max_steps)
        monkeypatch.setattr(spec, "record_trace", scalar_record_trace)
    return request.param


def test_trap_actually_fires(trapped_global_rng):
    with pytest.raises(AssertionError, match="global RNG"):
        random.random()
    with pytest.raises(AssertionError, match="global RNG"):
        np.random.random_sample(3)
    with pytest.raises(AssertionError, match="unseeded"):
        random.Random()


def test_trace_recording_is_rng_hermetic(trapped_global_rng, walker):
    benchmark = get_benchmark("gzip").scaled(0.05)
    trace = benchmark.trace("ref")
    trace.events()  # index construction must be draw-free too
    assert trace.num_steps > 0


def test_full_pipeline_is_rng_hermetic(trapped_global_rng, walker):
    """Trace + replay sweep + figures prep, all under the trap."""
    results = run_full_study(names=["gzip"], thresholds=[5, 50],
                             steps_scale=0.02, include_perf=True,
                             cache_dir=None, jobs=1)
    assert "gzip" in results.benchmarks


def test_repeat_runs_are_bit_identical(walker):
    """Same seed, same walker, fresh processes of state: identical bytes."""
    benchmark = get_benchmark("mcf").scaled(0.05)
    first = benchmark.trace("ref")
    second = benchmark.trace("ref")
    np.testing.assert_array_equal(first.blocks, second.blocks)
    np.testing.assert_array_equal(first.taken, second.taken)


def test_behavior_realization_is_deterministic():
    """Workload character realisation (the other stochastic input) is
    seed-stable: two realisations describe identical behaviours."""
    a = get_benchmark("twolf").behaviors()
    b = get_benchmark("twolf").behaviors()
    assert a == b
