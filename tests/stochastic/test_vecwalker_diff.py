"""Differential wall: the vector kernel must equal the scalar oracle.

Every test here asserts the same contract from a different angle: for
the same (CFG, behaviour, seed), :class:`VecWalker` produces an event
stream byte-identical to :class:`CFGWalker` — same blocks, same branch
outcomes, same counter tables, same per-block event index, same replay
regions — regardless of where the kernel flushes its decided segments or
which vectorized fast path the input happens to exercise.

The hypothesis tests fuzz arbitrary CFG shapes and behaviour mixes; the
named tests pin the structural edge cases (flush boundaries at 1 /
prime / beyond the run length, warm-up expiry mid-chunk, phase changes
mid-window, single-successor cycles, immediate exits, start overrides).
The per-block event index is checked against a brute-force rebuild.
"""

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.obs.registry import counter_value
from repro.stochastic import (CFGWalker, ExecutionTrace, ProgramBehavior,
                              VecWalker, drifting, numpy_uniform_stream,
                              phased, record_trace, steady, vecwalker, warmup)
from tests.oracles import oracle_replay

# Flush granularities straddling every interesting boundary: degenerate
# (1), prime (so flush edges never align with loop periods), and larger
# than any run these tests record.
CHUNKS = (1, 13, 4096, 10**6)


@contextmanager
def flush_every(chunk):
    """Run the vector kernel with its flush granularity set to ``chunk``."""
    with mock.patch.object(vecwalker, "_FLUSH_STEPS", chunk):
        yield


def scalar_trace(cfg, behavior, steps, seed, start=None):
    return CFGWalker(cfg, behavior, seed=seed).run(steps, start=start)


def vector_trace(cfg, behavior, steps, seed, chunk, start=None):
    with flush_every(chunk):
        return VecWalker(cfg, behavior, seed=seed).run(steps, start=start)


def assert_traces_equal(scalar, vector, label=""):
    """Events, counter tables and the per-block index must all agree."""
    assert scalar.num_steps == vector.num_steps, label
    np.testing.assert_array_equal(scalar.blocks, vector.blocks, label)
    np.testing.assert_array_equal(scalar.taken, vector.taken, label)
    np.testing.assert_array_equal(scalar.use_counts(), vector.use_counts())
    np.testing.assert_array_equal(scalar.taken_counts(),
                                  vector.taken_counts())
    se, ve = scalar.events(), vector.events()
    assert se.keys() == ve.keys()
    for block in se:
        np.testing.assert_array_equal(se[block].steps, ve[block].steps)
        np.testing.assert_array_equal(se[block].taken_prefix,
                                      ve[block].taken_prefix)


# ---------------------------------------------------------------------------
# RNG transplant: the foundation everything else rests on.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 - 1])
def test_numpy_stream_matches_python_random(seed):
    """Bulk numpy draws must equal random.Random(seed).random() exactly."""
    rng = random.Random(seed)
    expected = np.array([rng.random() for _ in range(1000)])
    stream = numpy_uniform_stream(seed)
    got = np.concatenate([stream.random_sample(n)
                          for n in (237, 1, 500, 262)])
    np.testing.assert_array_equal(expected, got)


def test_numpy_stream_chunking_is_invisible():
    """Any split of the stream yields the same doubles."""
    one_shot = numpy_uniform_stream(99).random_sample(512)
    stream = numpy_uniform_stream(99)
    dribbled = np.concatenate([stream.random_sample(1)
                               for _ in range(512)])
    np.testing.assert_array_equal(one_shot, dribbled)


# ---------------------------------------------------------------------------
# Hypothesis fuzz: arbitrary CFGs x behaviour mixes x chunkings.
# ---------------------------------------------------------------------------

@st.composite
def cfg_strategy(draw):
    """Arbitrary small CFGs: 0/1/2 successors per node, cycles allowed."""
    n = draw(st.integers(min_value=1, max_value=9))
    node = st.integers(min_value=0, max_value=n - 1)
    succs = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            succs.append(())
        elif kind <= 2:  # bias toward straight-line chains
            succs.append((draw(node),))
        else:
            succs.append((draw(node), draw(node)))
    return ControlFlowGraph(succs)


@st.composite
def behavior_strategy(draw, cfg, steps):
    """A behaviour for every 2-successor node, mixing all four kinds."""
    prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    behavior = ProgramBehavior()
    nominal = max(steps, 1)
    for block in range(cfg.num_nodes):
        if len(cfg.successors(block)) != 2:
            continue
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            behavior.set(block, steady(draw(prob)))
        elif kind == 1:
            split = draw(st.floats(min_value=0.1, max_value=0.9))
            behavior.set(block, phased([(split, draw(prob)),
                                        (1.0 - split, draw(prob))],
                                       nominal))
        elif kind == 2:
            behavior.set(block, warmup(draw(st.integers(0, 40)),
                                       draw(prob), draw(prob)))
        else:
            behavior.set(block, drifting(draw(prob), draw(prob), nominal,
                                         segments=draw(st.integers(1, 5))))
    return behavior


@st.composite
def walk_case(draw):
    steps = draw(st.integers(min_value=0, max_value=500))
    cfg = draw(cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    chunk = draw(st.sampled_from(CHUNKS))
    return cfg, behavior, steps, seed, chunk


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_fuzz_vector_equals_scalar(case):
    cfg, behavior, steps, seed, chunk = case
    scalar = scalar_trace(cfg, behavior, steps, seed)
    vector = vector_trace(cfg, behavior, steps, seed, chunk)
    assert_traces_equal(scalar, vector,
                        f"steps={steps} seed={seed} chunk={chunk}")


@settings(max_examples=40, deadline=None)
@given(walk_case(), st.integers(min_value=0, max_value=8))
def test_fuzz_start_override(case, start):
    cfg, behavior, steps, seed, _ = case
    if start >= cfg.num_nodes:
        start %= cfg.num_nodes
    scalar = scalar_trace(cfg, behavior, steps, seed, start=start)
    vector = vector_trace(cfg, behavior, steps, seed, 13, start=start)
    assert_traces_equal(scalar, vector, f"start={start}")


# ---------------------------------------------------------------------------
# Named edge cases the fuzz might only graze.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", CHUNKS)
def test_nested_cfg_every_chunking(nested_cfg, nested_behavior, chunk):
    """The workhorse shape: nested loops + diamond, 50k steps."""
    scalar = scalar_trace(nested_cfg, nested_behavior, 50_000, seed=11)
    vector = vector_trace(nested_cfg, nested_behavior, 50_000, 11, chunk)
    assert_traces_equal(scalar, vector, f"chunk={chunk}")


@pytest.mark.parametrize("make", [
    lambda: steady(0.9),
    lambda: steady(0.0),
    lambda: steady(1.0),
    lambda: phased([(0.25, 0.95), (0.5, 0.1), (0.25, 0.7)], 2_000),
    lambda: warmup(uses=17, p_init=1.0, p_steady=0.3),
    lambda: warmup(uses=0, p_init=0.0, p_steady=0.8),
    lambda: drifting(0.99, 0.01, 2_000, segments=7),
])
def test_each_behavior_kind_on_hot_self_loop(make):
    """A hot self-loop hits the simple-window fast path for every kind."""
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    behavior.set(1, make())
    for chunk in CHUNKS:
        scalar = scalar_trace(cfg, behavior, 2_000, seed=3)
        vector = vector_trace(cfg, behavior, 2_000, 3, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_multi_block_loop_body_general_window():
    """A loop whose body spans several blocks exercises the general
    (plen > 1) window path with a mid-body conditional."""
    cfg = ControlFlowGraph([
        (1,),        # 0 entry
        (2, 4),      # 1 header: fall -> body, taken -> out
        (3, 1),      # 2 body branch: taken -> back to header early
        (1,),        # 3 tail -> header
        (),          # 4 exit
    ])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.002))
    behavior.set(2, steady(0.3))
    for chunk in (1, 13, 4096):
        scalar = scalar_trace(cfg, behavior, 30_000, seed=5)
        vector = vector_trace(cfg, behavior, 30_000, 5, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_phase_change_inside_window():
    """A phase boundary landing mid-window must split the window."""
    cfg = ControlFlowGraph([(0, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(0, phased([(0.5, 0.01), (0.5, 0.99)], 1_000))
    for chunk in CHUNKS:
        scalar = scalar_trace(cfg, behavior, 1_000, seed=21)
        vector = vector_trace(cfg, behavior, 1_000, 21, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_degenerate_shapes():
    """max_steps 0 and 1, immediate exits, and pure cycles."""
    exit_only = ControlFlowGraph([()])
    chain_to_exit = ControlFlowGraph([(1,), (2,), ()])
    pure_cycle = ControlFlowGraph([(1,), (2,), (0,)])
    empty = ProgramBehavior()
    for cfg in (exit_only, chain_to_exit, pure_cycle):
        for steps in (0, 1, 2, 7, 1_000):
            scalar = scalar_trace(cfg, empty, steps, seed=0)
            for chunk in CHUNKS:
                vector = vector_trace(cfg, empty, steps, 0, chunk)
                assert_traces_equal(scalar, vector,
                                    f"steps={steps} chunk={chunk}")


def test_flush_granularity_is_live(nested_cfg, nested_behavior):
    """Patching the flush constant really changes how often the kernel
    flushes, so the boundary cases above exercise what they claim."""
    flushes = []
    for chunk in (1, 10**6):
        before = counter_value("kernel.vector.chunks")
        vector_trace(nested_cfg, nested_behavior, 5_000, 1, chunk)
        flushes.append(counter_value("kernel.vector.chunks") - before)
    assert flushes[0] > 100 and flushes[1] == 1


# ---------------------------------------------------------------------------
# The per-block event index against a brute-force rebuild.
# ---------------------------------------------------------------------------

def assert_index_is_brute_force(trace):
    """``trace.events()`` equals per-block ``flatnonzero`` + ``cumsum``:
    same keys, same values, ``int64`` steps and prefix."""
    blocks, taken = trace.blocks, trace.taken
    index = trace.events()
    assert sorted(index) == np.unique(blocks).tolist()
    for block, ev in index.items():
        steps = np.flatnonzero(blocks == block)
        prefix = np.concatenate(([0], np.cumsum(taken[steps] == 1)))
        assert ev.steps.dtype == np.int64
        assert ev.taken_prefix.dtype == np.int64
        np.testing.assert_array_equal(ev.steps, steps)
        np.testing.assert_array_equal(ev.taken_prefix, prefix)


# Block-id spaces on both sides of each narrow sort-key width: uint8
# (<= 256 ids), uint16 (<= 65536) and uint32 beyond.
KEY_WIDTHS = (1, 256, 257, 65536, 65537)


@st.composite
def raw_trace(draw):
    num_blocks = draw(st.one_of(st.integers(1, 300),
                                st.sampled_from(KEY_WIDTHS)))
    # Bias ids toward both ends of the range, where a wrong key width
    # would merge or reorder blocks.
    block = st.one_of(st.integers(0, num_blocks - 1),
                      st.sampled_from([0, num_blocks - 1]))
    blocks = draw(st.lists(block, max_size=300))
    taken = draw(st.lists(st.sampled_from([-1, 0, 1]),
                          min_size=len(blocks), max_size=len(blocks)))
    return ExecutionTrace(np.array(blocks, dtype=np.int64),
                          np.array(taken, dtype=np.int64), num_blocks)


@settings(max_examples=200, deadline=None)
@given(raw_trace())
@example(ExecutionTrace(np.zeros(0, np.int32), np.zeros(0, np.int8), 4))
@example(ExecutionTrace(np.array([0]), np.array([1]), 1))
def test_event_index_equals_brute_force(trace):
    assert_index_is_brute_force(trace)


@pytest.mark.parametrize("num_blocks", KEY_WIDTHS)
def test_event_index_at_key_width_boundaries(num_blocks):
    rng = np.random.default_rng(num_blocks)
    blocks = rng.integers(0, num_blocks, size=2_000)
    blocks[::97] = num_blocks - 1  # the widest id the key must hold
    blocks[1::89] = 0
    taken = rng.integers(-1, 2, size=2_000)
    assert_index_is_brute_force(ExecutionTrace(blocks, taken, num_blocks))


@pytest.mark.parametrize("steps", [0, 1])
def test_event_index_of_empty_and_one_step_walks(nested_cfg,
                                                 nested_behavior, steps):
    trace = VecWalker(nested_cfg, nested_behavior, seed=3).run(steps)
    assert trace.num_steps == steps
    assert_index_is_brute_force(trace)


def test_recorded_trace_index_is_lazy(nested_cfg, nested_behavior):
    """The walker leaves the index unbuilt; the first reader pays."""
    trace = record_trace(nested_cfg, nested_behavior, 20_000, seed=2)
    assert trace._events is None
    assert_index_is_brute_force(trace)


# ---------------------------------------------------------------------------
# Replay over the recorded trace.
# ---------------------------------------------------------------------------

def _replay_fingerprint(dbt):
    return (sorted(dbt.freeze_step.items()),
            sorted(dbt.optimized),
            [(r.region_id, tuple(r.members)) for r in dbt.regions])


def _recorded_trace(cfg, behavior, steps, seed):
    """The production hand-off, with flush edges off every loop period."""
    with flush_every(509):
        return record_trace(cfg, behavior, steps, seed=seed)


def test_replay_from_batches_equals_scalar_replay(nested_cfg,
                                                  nested_behavior):
    """A replay over the recorded trace must reach the same
    regions/freezes as the scalar oracles: the scalar walker's trace fed
    to the scalar replay."""
    config = DBTConfig(threshold=50)
    scalar = scalar_trace(nested_cfg, nested_behavior, 60_000, seed=8)
    expected = oracle_replay(scalar, nested_cfg, config)

    recorded = _recorded_trace(nested_cfg, nested_behavior, 60_000, seed=8)
    got = ReplayDBT(recorded, nested_cfg, config).run()
    assert _replay_fingerprint(expected) == _replay_fingerprint(got)


def test_multireplay_from_batches(nested_cfg, nested_behavior):
    thresholds = [5, 50, 500]
    scalar = scalar_trace(nested_cfg, nested_behavior, 60_000, seed=8)
    recorded = _recorded_trace(nested_cfg, nested_behavior, 60_000, seed=8)
    got = MultiThresholdReplay(recorded, nested_cfg, thresholds).run()
    for t in thresholds:
        expected = oracle_replay(scalar, nested_cfg, DBTConfig(threshold=t))
        assert _replay_fingerprint(expected) == \
            _replay_fingerprint(got.state(t))


@pytest.mark.parametrize("name", ["gzip", "mcf", "art"])
def test_benchmark_traces_equal_scalar_oracle(name):
    """The study's recording path (``SyntheticBenchmark.trace`` ->
    ``record_trace``) against the scalar walker, on both inputs of the
    benchmarks the golden reduced study runs."""
    from repro.workloads import get_benchmark

    benchmark = get_benchmark(name).scaled(0.05)
    ref, train = benchmark.behaviors()
    for input_name, behavior, steps, seed in (
            ("ref", ref, benchmark.run_steps, benchmark.seed_ref),
            ("train", train, benchmark.train_steps, benchmark.seed_train)):
        expected = scalar_trace(benchmark.cfg, behavior, steps, seed)
        assert_traces_equal(expected, benchmark.trace(input_name),
                            f"{name}:{input_name}")

