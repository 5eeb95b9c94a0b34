"""Differential wall: the batched replay sweep must equal the scalar
oracle.

Every test asserts the same contract from a different angle: for the
same (trace, CFG, DBT config), the batched windowed sweep — driven
directly at any window size, or through ``ReplayDBT``/
``MultiThresholdReplay`` — produces *identical* pipeline outcomes to
the scalar heap walk (:func:`repro.dbt.batchreplay.run_scalar_replay`)
— same freeze steps, same regions, same optimization events, same
translation maps — regardless of window chunking, trigger sizing or
the register-twice rule.

The hypothesis tests fuzz arbitrary CFG shapes x behaviour mixes x
thresholds x chunkings; the named tests pin the structural edge cases
(threshold 1, single-block traces, all-frozen blocks, trigger size 1,
empty traces).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.cfg.loops import find_loops
from repro.dbt import (DBTConfig, MultiThresholdReplay, ReplayDBT,
                       ThresholdReplayState)
from repro.dbt.batchreplay import run_batched_replay, run_scalar_replay
from repro.dbt.multireplay import registration_positions
from repro.stochastic import (ProgramBehavior, drifting, phased, steady,
                              walk, warmup)
from tests.oracles import batched_replay, oracle_replay

# Window sizes straddling every interesting boundary: degenerate (1,
# every window holds one registration per live block), small primes (so
# window edges never align with registration periods), the default, and
# effectively unbounded.
CHUNKS = (1, 7, 251, 2048, 10**6)


def _replay_fingerprint(dbt):
    """Everything a consumer can observe about a finished replay."""
    tmap = dbt.translation_map()
    return (
        sorted(dbt.freeze_step.items()),
        sorted(dbt.optimized),
        [(r.region_id, tuple(r.members), r.formed_at) for r in dbt.regions],
        [(now, tuple(blocks)) for now, blocks in dbt.optimization_events],
        tmap.optimized_at.tolist(),
        sorted(tmap.internal_pairs),
        sorted(tmap.tail_blocks),
        list(tmap.translated_blocks),
        tmap.blocks_translated,
        tmap.regions_formed,
    )


def _pair(trace, cfg, config, chunk):
    """(scalar oracle, batched) replays of the same inputs, both ran."""
    return (oracle_replay(trace, cfg, config),
            batched_replay(trace, cfg, config, chunk))


# ---------------------------------------------------------------------------
# Hypothesis fuzz: arbitrary CFGs x behaviours x thresholds x chunkings.
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
def replay_case(draw):
    steps = draw(st.integers(min_value=0, max_value=600))
    cfg = draw(cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    trace = walk(cfg, behavior, max_steps=steps, seed=seed)
    config = DBTConfig(
        threshold=draw(st.integers(min_value=1, max_value=40)),
        pool_trigger_size=draw(st.integers(min_value=1, max_value=8)),
        register_twice_triggers=draw(st.booleans()))
    chunk = draw(st.sampled_from(CHUNKS))
    return trace, cfg, config, chunk


@settings(max_examples=120, deadline=None)
@given(replay_case())
def test_fuzz_batched_equals_scalar(case):
    trace, cfg, config, chunk = case
    oracle, batched = _pair(trace, cfg, config, chunk)
    assert _replay_fingerprint(oracle) == _replay_fingerprint(batched), \
        f"threshold={config.threshold} chunk={chunk}"


@settings(max_examples=60, deadline=None)
@given(replay_case())
def test_fuzz_engines_drive_identical_callbacks(case):
    """Beyond equal outcomes: both engines hand the host the same
    drained pools at the same live steps, in the same order."""
    trace, cfg, config, chunk = case
    positions = registration_positions(trace.events(), config.threshold)
    engines = (
        lambda optimize: run_scalar_replay(positions, config, optimize),
        lambda optimize: run_batched_replay(positions, config, optimize,
                                            trace.num_blocks, chunk=chunk))
    logs = []
    for engine in engines:
        state = ThresholdReplayState(trace, cfg, config, find_loops(cfg))
        calls = []

        def optimize(drained, now, state=state, calls=calls):
            calls.append((list(drained), now))
            return state.optimize_blocks(drained, now)

        engine(optimize)
        logs.append(calls)
    assert logs[0] == logs[1], f"threshold={config.threshold} chunk={chunk}"


@settings(max_examples=40, deadline=None)
@given(replay_case(), st.lists(st.integers(min_value=1, max_value=60),
                               min_size=1, max_size=5))
def test_fuzz_multireplay_batched_equals_scalar(case, thresholds):
    trace, cfg, config, _ = case
    multi = MultiThresholdReplay(trace, cfg, thresholds,
                                 base_config=config).run()
    for t in multi.thresholds:
        oracle = oracle_replay(trace, cfg, config.with_threshold(t))
        assert _replay_fingerprint(oracle) == \
            _replay_fingerprint(multi.state(t)), f"t={t}"


@settings(max_examples=30, deadline=None)
@given(replay_case())
def test_fuzz_multireplay_state_equals_single_replay(case):
    """Multireplay states == independent ReplayDBT runs == the oracle."""
    trace, cfg, config, _ = case
    thresholds = sorted({1, config.threshold, 3 * config.threshold})
    multi = MultiThresholdReplay(trace, cfg, thresholds,
                                 base_config=config).run()
    for t in thresholds:
        single = ReplayDBT(trace, cfg, config.with_threshold(t)).run()
        oracle = oracle_replay(trace, cfg, config.with_threshold(t))
        assert _replay_fingerprint(single) == \
            _replay_fingerprint(multi.state(t)) == \
            _replay_fingerprint(oracle), f"t={t}"


# ---------------------------------------------------------------------------
# Named edge cases the fuzz might only graze.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", CHUNKS)
def test_nested_cfg_every_chunking(nested_cfg, nested_trace, chunk):
    """The workhorse shape at a paper-scale threshold sweep."""
    for threshold in (1, 5, 50, 500):
        config = DBTConfig(threshold=threshold)
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched), \
            f"threshold={threshold} chunk={chunk}"


def test_threshold_one_registers_every_execution(nested_cfg, nested_trace):
    """T=1 makes every step a registration — the densest stream."""
    config = DBTConfig(threshold=1)
    for chunk in CHUNKS:
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)


def test_single_block_trace():
    """One self-looping block: the pool can never fill beyond one."""
    cfg = ControlFlowGraph([(0,)])
    trace = walk(cfg, ProgramBehavior(), max_steps=500, seed=3)
    for trigger_size in (1, 2, 12):
        for twice in (True, False):
            config = DBTConfig(threshold=5,
                               pool_trigger_size=trigger_size,
                               register_twice_triggers=twice)
            for chunk in (1, 2048):
                oracle, batched = _pair(trace, cfg, config, chunk)
                assert _replay_fingerprint(oracle) == \
                    _replay_fingerprint(batched), \
                    f"trigger={trigger_size} twice={twice} chunk={chunk}"


def test_all_blocks_freeze(nested_cfg, nested_behavior):
    """A hot trace at a tiny threshold freezes every block; the sweep
    must terminate early instead of materializing dead registrations."""
    trace = walk(nested_cfg, nested_behavior, max_steps=60_000, seed=13)
    config = DBTConfig(threshold=2, pool_trigger_size=2)
    oracle, batched = _pair(trace, nested_cfg, config, 64)
    assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)
    assert set(batched.freeze_step) == set(batched.optimized)
    assert len(batched.optimized) > 0


def test_trigger_size_one_fires_immediately(nested_cfg, nested_trace):
    """pool_trigger_size=1: every fresh registration triggers."""
    config = DBTConfig(threshold=10, pool_trigger_size=1)
    for chunk in CHUNKS:
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)


def test_register_twice_disabled(nested_cfg, nested_trace):
    """With the dup rule off, only a full pool triggers."""
    config = DBTConfig(threshold=10, pool_trigger_size=4,
                       register_twice_triggers=False)
    for chunk in CHUNKS:
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)


def test_empty_and_tiny_traces():
    """Zero and near-zero steps: no registrations at all."""
    cfg = ControlFlowGraph([(1,), (2,), ()])
    for steps in (0, 1, 2):
        trace = walk(cfg, ProgramBehavior(), max_steps=steps, seed=0)
        for threshold in (1, 2, 100):
            config = DBTConfig(threshold=threshold)
            oracle, batched = _pair(trace, cfg, config, 1)
            assert _replay_fingerprint(oracle) == \
                _replay_fingerprint(batched), \
                f"steps={steps} threshold={threshold}"


def test_snapshots_identical_across_kernels(nested_cfg, nested_trace):
    """The INIP(T) snapshot — the paper-facing artefact — is engine-blind."""
    config = DBTConfig(threshold=50)
    oracle, batched = _pair(nested_trace, nested_cfg, config, 2048)
    a, b = oracle.snapshot(), batched.snapshot()
    assert a.blocks.keys() == b.blocks.keys()
    for block in a.blocks:
        pa, pb = a.blocks[block], b.blocks[block]
        assert (pa.use, pa.taken, pa.frozen_at) == \
            (pb.use, pb.taken, pb.frozen_at)
    assert a.profiling_ops == b.profiling_ops
