"""Differential wall: the compiled walk kernel must equal the scalar oracle.

Every test here asserts the same contract from a different angle: for
the same (CFG, behaviour, seed), the compiled kernel behind
:func:`record_trace` produces an event stream byte-identical to
:class:`CFGWalker` — same blocks, same branch outcomes, same counter
tables, same per-block event index, same replay regions — regardless of
where the kernel hands control back to Python to refill its uniform
block or to empty its output block.

The hypothesis tests fuzz arbitrary CFG shapes and behaviour mixes; the
named tests pin the structural edge cases (block sizes of 1 / prime /
beyond the run length, resumes landing on a phase change, on the last
warm-up use and on an exit node, single-successor cycles, immediate
exits, start overrides, huge step budgets).  The per-block event index
is checked against a brute-force rebuild.
"""

import ctypes
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.stochastic import (CFGWalker, ExecutionTrace, ProgramBehavior,
                              drifting, kernel, numpy_uniform_stream, phased,
                              record_trace, steady, warmup)
from tests.oracles import oracle_replay

# Block sizes straddling every interesting boundary: degenerate (1),
# prime (so resume points never align with loop periods), and larger
# than any run these tests record.  Each applies to both the uniform
# block and the output block.
CHUNKS = (1, 13, 4096, 10**6)


@contextmanager
def blocks_of(uniforms, out=None):
    """Run the kernel with ``uniforms`` per uniform block and ``out``
    (default: the same) steps per output block."""
    with mock.patch.object(kernel, "_UNIFORM_BLOCK", uniforms), \
            mock.patch.object(kernel, "_OUT_BLOCK",
                              uniforms if out is None else out):
        yield


@contextmanager
def kernel_calls():
    """Collect the step at which each kernel call starts (or resumes)."""
    real = kernel._load(kernel._CACHE_DIR)
    starts = []

    def spy(state, *args):
        starts.append(ctypes.c_int64.from_address(state + 8).value)
        return real(state, *args)

    with mock.patch.object(kernel, "_load", lambda cache_dir: spy):
        yield starts


def scalar_trace(cfg, behavior, steps, seed, start=None):
    return CFGWalker(cfg, behavior, seed=seed).run(steps, start=start)


def vector_trace(cfg, behavior, steps, seed, uniforms, out=None, start=None):
    with blocks_of(uniforms, out):
        return kernel._walk(cfg, behavior, steps, seed, start=start)


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
    uniforms = draw(st.sampled_from(CHUNKS))
    out = draw(st.sampled_from(CHUNKS))
    return cfg, behavior, steps, seed, (uniforms, out)


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_fuzz_vector_equals_scalar(case):
    cfg, behavior, steps, seed, sizes = case
    scalar = scalar_trace(cfg, behavior, steps, seed)
    vector = vector_trace(cfg, behavior, steps, seed, *sizes)
    assert_traces_equal(scalar, vector,
                        f"steps={steps} seed={seed} blocks={sizes}")


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
    """The workhorse shape: nested loops + diamond, 50k steps, with
    ``chunk`` steps per output block against every uniform block size."""
    scalar = scalar_trace(nested_cfg, nested_behavior, 50_000, seed=11)
    for uniforms in CHUNKS:
        vector = vector_trace(nested_cfg, nested_behavior, 50_000, 11,
                              uniforms, chunk)
        assert_traces_equal(scalar, vector, f"blocks={uniforms},{chunk}")


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
    """Every behaviour kind on a hot self-loop, where each step is a
    decision, so every uniform block boundary is a resume point."""
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    behavior.set(1, make())
    scalar = scalar_trace(cfg, behavior, 2_000, seed=3)
    for chunk in CHUNKS:
        vector = vector_trace(cfg, behavior, 2_000, 3, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_multi_block_loop_body_general_window():
    """A loop whose body spans several blocks with a mid-body
    conditional: decisions and straight-line steps interleave, so the
    uniform and output blocks run out at unrelated steps."""
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
    scalar = scalar_trace(cfg, behavior, 30_000, seed=5)
    for uniforms in (1, 13, 4096):
        for out in (1, 13, 4096):
            vector = vector_trace(cfg, behavior, 30_000, 5, uniforms, out)
            assert_traces_equal(scalar, vector, f"blocks={uniforms},{out}")


def test_phase_change_inside_window():
    """A phase boundary landing inside a uniform or output block."""
    cfg = ControlFlowGraph([(0, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(0, phased([(0.5, 0.01), (0.5, 0.99)], 1_000))
    scalar = scalar_trace(cfg, behavior, 1_000, seed=21)
    for chunk in CHUNKS:
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
    """Patching either block size really changes how often the kernel
    hands back to Python, so the cases above exercise what they claim."""
    calls = {}
    for sizes in ((10**6, 10**6), (1, 10**6), (10**6, 1)):
        with kernel_calls() as starts:
            vector_trace(nested_cfg, nested_behavior, 5_000, 1, *sizes)
        calls[sizes] = len(starts)
    # One call to reach the first branch, one after the single refill.
    assert calls[10**6, 10**6] == 2
    assert calls[1, 10**6] > 1_000  # one call per decision
    assert calls[10**6, 1] >= 5_000  # one call per step


# A self-loop that stays hot, then cools at step 500 (until == 500.0).
RESUME_CFG = ControlFlowGraph([(0, 1), ()])


@pytest.mark.parametrize("uniforms,out", [(500, 10**6), (10**6, 500)])
def test_resume_on_phase_change_step(uniforms, out):
    """A call that resumes exactly at a phase boundary applies the new
    probability to that step's decision, once."""
    behavior = ProgramBehavior()
    behavior.set(0, phased([(0.5, 1.0), (0.5, 0.0)], 1_000))
    scalar = scalar_trace(RESUME_CFG, behavior, 1_000, seed=4)
    assert scalar.num_steps == 502  # 500 taken, one fall, the exit
    with kernel_calls() as starts:
        vector = vector_trace(RESUME_CFG, behavior, 1_000, 4, uniforms, out)
    assert 500 in starts
    assert_traces_equal(scalar, vector, f"blocks={uniforms},{out}")


@pytest.mark.parametrize("uniforms,out",
                         [(16, 10**6), (10**6, 16), (17, 10**6),
                          (10**6, 17)])
def test_resume_on_last_warmup_use(uniforms, out):
    """Warm-up counts down across calls: resuming just before or just
    after the 17th (last) warm-up use leaves the 18th use steady."""
    behavior = ProgramBehavior()
    behavior.set(0, warmup(uses=17, p_init=1.0, p_steady=0.0))
    scalar = scalar_trace(RESUME_CFG, behavior, 100, seed=9)
    assert scalar.taken.tolist() == [1] * 17 + [0, -1]
    with kernel_calls() as starts:
        vector = vector_trace(RESUME_CFG, behavior, 100, 9, uniforms, out)
    assert min(uniforms, out) in starts
    assert_traces_equal(scalar, vector, f"blocks={uniforms},{out}")


@pytest.mark.parametrize("cfg,p,exit_step", [
    (ControlFlowGraph([(1,), (2,), ()]), None, 2),
    (RESUME_CFG, 0.0, 1),
])
def test_resume_on_exit_node(cfg, p, exit_step):
    """A call resuming on an exit node records it and ends the walk,
    whether it follows a straight-line block or a branch."""
    behavior = ProgramBehavior()
    if p is not None:
        behavior.set(0, steady(p))
    scalar = scalar_trace(cfg, behavior, 10, seed=0)
    assert scalar.num_steps == exit_step + 1
    with kernel_calls() as starts:
        vector = vector_trace(cfg, behavior, 10, 0, 10**6, exit_step)
    assert starts[-1] == exit_step
    assert_traces_equal(scalar, vector)


@pytest.mark.parametrize("start", [-1, 3])
def test_start_outside_cfg_is_rejected(start):
    """The kernel indexes its node tables unchecked, so a start node
    outside the CFG is refused before any native call."""
    cfg = ControlFlowGraph([(1,), (2,), ()])
    with kernel_calls() as starts, pytest.raises(IndexError):
        kernel._walk(cfg, ProgramBehavior(), 10, start=start)
    assert starts == []


def test_huge_budget_is_never_allocated():
    """A walk that exits after 3 steps under a 10**12-step budget
    returns a 3-step trace that owns exactly its own bytes."""
    cfg = ControlFlowGraph([(1,), (2,), ()])
    trace = record_trace(cfg, ProgramBehavior(), 10**12)
    assert trace.blocks.tolist() == [0, 1, 2]
    assert trace.taken.tolist() == [-1, -1, -1]
    for array in (trace.blocks, trace.taken):
        assert array.base is None and array.nbytes == 3 * array.itemsize


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
    trace = record_trace(nested_cfg, nested_behavior, steps, seed=3)
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
    """The production hand-off, with resume points off every loop period."""
    with blocks_of(509, 251):
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

