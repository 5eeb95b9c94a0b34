"""CostTables: per-block pricing must equal the per-step oracle, bit for bit.

The production estimator prices a translation map from per-block and
per-edge counts; :func:`tests.oracles.oracle_cost` prices it one trace
step at a time.  The golden corpus is pinned by SHA-256, so even a
one-ulp drift would show: these tests compare breakdowns field for
field with ``==`` on the raw floats — no ``approx`` anywhere, except for
the measured-cost model, whose costs are off the exact grid by design.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.dbt.codecache import TranslationMap
from repro.perfmodel import CostModel, CostTables, estimate_cost
from repro.perfmodel.costs import COST_GRID
from repro.perfmodel.tables import EXACT_LIMIT
from repro.stochastic import ExecutionTrace, walk
from tests.dbt.test_replay_diff import behavior_strategy, cfg_strategy
from tests.oracles import oracle_cost, oracle_replay

FIELDS = ("unoptimized", "optimized", "side_exits", "translation",
          "num_side_exits", "optimized_fraction")


def _exact_equal(a, b, label=""):
    assert tuple(getattr(a, f) for f in FIELDS) == \
           tuple(getattr(b, f) for f in FIELDS), label
    # Plain Python numbers, as the results cache serialises them.
    for breakdown in (a, b):
        assert type(breakdown.num_side_exits) is int, label
        for field in ("unoptimized", "optimized", "optimized_fraction"):
            assert type(getattr(breakdown, field)) is float, label


def _sizes(cfg, seed=0):
    rng = np.random.RandomState(seed)
    return rng.randint(1, 12, size=cfg.num_nodes)


def _trace(blocks, num_blocks):
    return ExecutionTrace.from_sequences(blocks, [-1] * len(blocks),
                                         num_blocks)


def _map(num_blocks, optimized_at, internal=(), tails=(), translated=()):
    """A hand-built map: any freeze steps, internal edges and tails."""
    tmap = TranslationMap(num_blocks, [], optimized_at)
    tmap.internal_pairs = set(internal)
    tmap.tail_blocks = set(tails)
    tmap.translated_blocks = list(translated)
    return tmap


def _check(trace, tmap, sizes, costs=CostModel()):
    tables = CostTables(trace, sizes, costs)
    shared = estimate_cost(trace, tmap, sizes, costs, tables=tables)
    _exact_equal(shared, oracle_cost(trace, tmap, sizes, costs))
    return shared


# ---------------------------------------------------------------------------
# Hypothesis: random walks x thresholds x dyadic cost models, and arbitrary
# block sequences x arbitrary maps.
# ---------------------------------------------------------------------------

@st.composite
def dyadic_costs(draw):
    """Any valid cost model on the 2⁻⁸ grid."""
    grid = st.integers(min_value=0, max_value=4096)
    interp = draw(grid)
    return CostModel(
        interp_cost=interp * COST_GRID,
        opt_cost=draw(st.integers(0, interp)) * COST_GRID,
        profile_overhead=draw(grid) * COST_GRID,
        side_exit_penalty=draw(grid) * COST_GRID,
        translation_cost=draw(grid) * COST_GRID)


@st.composite
def walk_case(draw):
    steps = draw(st.integers(min_value=0, max_value=600))
    cfg = draw(cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    trace = walk(cfg, behavior, max_steps=steps,
                 seed=draw(st.integers(0, 2**31 - 1)))
    thresholds = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4,
                               unique=True))
    sizes = draw(st.lists(st.integers(0, 40), min_size=cfg.num_nodes,
                          max_size=cfg.num_nodes))
    return trace, cfg, thresholds, sizes, draw(dyadic_costs())


@settings(max_examples=120, deadline=None)
@given(walk_case())
def test_fuzz_replay_maps_price_like_oracle(case):
    trace, cfg, thresholds, sizes, costs = case
    tables = CostTables(trace, sizes, costs)
    sweep = MultiThresholdReplay(trace, cfg, thresholds).run()
    for t in thresholds:
        tmap = sweep.state(t).translation_map()
        _exact_equal(estimate_cost(trace, tmap, sizes, costs, tables=tables),
                     oracle_cost(trace, tmap, sizes, costs), f"t={t}")


@st.composite
def arbitrary_case(draw):
    """Any block sequence (edges need not follow a CFG) and any map."""
    num_blocks = draw(st.integers(min_value=1, max_value=6))
    block = st.integers(0, num_blocks - 1)
    blocks = draw(st.lists(block, max_size=300))
    n = len(blocks)
    at = st.one_of(st.integers(0, n + 2), st.sampled_from([0, n, n + 9]))
    freeze = draw(st.dictionaries(block, at))
    internal = draw(st.sets(st.tuples(block, block)))
    tails = draw(st.sets(block))
    sizes = draw(st.lists(st.integers(0, 40), min_size=num_blocks,
                          max_size=num_blocks))
    tmap = _map(num_blocks, freeze, internal, tails,
                draw(st.lists(block, max_size=5)))
    return _trace(blocks, num_blocks), tmap, sizes, draw(dyadic_costs())


@settings(max_examples=300, deadline=None)
@given(arbitrary_case())
def test_fuzz_arbitrary_maps_price_like_oracle(case):
    trace, tmap, sizes, costs = case
    _check(trace, tmap, sizes, costs)


# ---------------------------------------------------------------------------
# Pinned edge cases.
# ---------------------------------------------------------------------------

def test_empty_trace():
    breakdown = _check(_trace([], 3), _map(3, {0: 0}, {(0, 1)}), [1, 2, 3])
    assert breakdown.total == 0.0
    assert breakdown.optimized_fraction == 0.0


def test_one_step_trace():
    breakdown = _check(_trace([1], 3), _map(3, {1: 0}, {(0, 1)}), [1, 2, 3])
    assert breakdown.num_side_exits == 0
    assert breakdown.optimized_fraction == 1.0


def test_last_step_at_optimised_non_tail_block_is_no_exit():
    """The trace's last step has no successor: never a side exit."""
    blocks = [0, 1, 2, 1, 0, 1]
    tmap = _map(3, {1: 0}, internal={(1, 2)})
    breakdown = _check(_trace(blocks, 3), tmap, [1, 2, 3])
    assert breakdown.num_side_exits == 1  # only the 1 -> 0 at step 3


def test_exit_block_as_last_step(nested_cfg, nested_trace):
    assert nested_trace.blocks[-1] == 8  # the fixture ends at its exit
    tmap = _map(9, {8: 0, 7: 0}, internal={(7, 1)})
    breakdown = _check(nested_trace, tmap, _sizes(nested_cfg))
    assert breakdown.num_side_exits == 1  # 7 -> 8, once


@pytest.mark.parametrize("at", [0, 3, 7, 8, 50, np.inf])
def test_optimized_at_bounds(at):
    blocks = [0, 1, 0, 1, 0, 1, 2, 1]
    tmap = _map(3, {}, internal={(0, 1)})
    tmap.optimized_at[:] = at
    breakdown = _check(_trace(blocks, 3), tmap, [3, 5, 7])
    if at >= len(blocks):
        assert breakdown.optimized == 0.0 and breakdown.num_side_exits == 0


def test_empty_internal_pairs_give_no_side_exits():
    blocks = [0, 1, 2, 0, 1, 2, 0]
    breakdown = _check(_trace(blocks, 3), _map(3, {0: 0, 1: 0, 2: 0}),
                       [1, 1, 1])
    assert breakdown.optimized_fraction == 1.0
    assert breakdown.num_side_exits == 0


def test_block_with_three_dynamic_successors():
    """Block 0 leaves to 1, 2 and 3; only 0 -> 2 is internal, 3 a tail."""
    blocks = [0, 1, 0, 2, 0, 3, 0, 1, 0, 1, 0, 2, 0, 3, 0]
    tmap = _map(4, {0: 4, 3: 0}, internal={(0, 2)}, tails={3})
    tables = CostTables(_trace(blocks, 4), [1, 2, 3, 4])
    assert tables.major_succ[0] == 1
    assert sorted(tables.edge_dst[tables.edge_bounds[0]:
                                  tables.edge_bounds[1]]) == [2, 3]
    breakdown = _check(_trace(blocks, 4), tmap, [1, 2, 3, 4])
    # from step 4: 0->3, 0->1, 0->1, 0->2, 0->3 leave block 0; the
    # last 0 is the final step; 0->2 is internal.
    assert breakdown.num_side_exits == 4


def _branchy_prng_run(iterations=2000):
    from repro.cfg import cfg_from_program
    from repro.dbt import TwoPhaseDBT, translation_map_from_replay
    from repro.interp import Interpreter, TeeListener
    from repro.ir import branchy_prng
    from repro.stochastic import TraceRecorder

    program = branchy_prng(iterations=iterations)
    cfg, _ = cfg_from_program(program)
    recorder = TraceRecorder(program.num_blocks())
    dbt = TwoPhaseDBT(cfg, DBTConfig(threshold=100, pool_trigger_size=2))
    Interpreter(program, listener=TeeListener(recorder, dbt),
                step_limit=10**8).run()
    sizes = np.array([len(block) for _, block in program.block_table()],
                     dtype=float)
    return (program, cfg, recorder.trace(), dbt.snapshot(),
            translation_map_from_replay(dbt), sizes)


def test_interpreter_trace_leaving_the_cfg_through_call():
    """Interpreter traces take dynamic edges (calls, returns) the CFG
    does not have; the tables read successors off the trace alone."""
    _, cfg, trace, _, tmap, sizes = _branchy_prng_run()
    foreign = {edge for edge in trace.edge_counts()
               if edge[1] not in cfg.successors(edge[0])}
    assert foreign
    breakdown = _check(trace, tmap, sizes)
    assert breakdown.num_side_exits > 0


# ---------------------------------------------------------------------------
# The shapes the harness and the derived model run.
# ---------------------------------------------------------------------------

def test_tables_path_bitwise_equals_direct_path(nested_cfg, nested_trace):
    sizes = _sizes(nested_cfg)
    tables = CostTables(nested_trace, sizes)
    for threshold in (1, 5, 50, 500):
        tmap = ReplayDBT(nested_trace, nested_cfg,
                         DBTConfig(threshold=threshold)).translation_map()
        direct = estimate_cost(nested_trace, tmap, sizes)
        shared = estimate_cost(nested_trace, tmap, sizes, tables=tables)
        _exact_equal(direct, shared, f"threshold={threshold}")
        _exact_equal(shared, oracle_cost(nested_trace, tmap, sizes),
                     f"threshold={threshold}")


def test_tables_bitwise_across_custom_costs(nested_cfg, nested_trace):
    sizes = _sizes(nested_cfg, seed=3)
    costs = CostModel(interp_cost=4.5, profile_overhead=1.25,
                      opt_cost=0.75)
    tmap = ReplayDBT(nested_trace, nested_cfg,
                     DBTConfig(threshold=20)).translation_map()
    _check(nested_trace, tmap, sizes, costs)


def test_tables_reject_foreign_trace(nested_cfg, nested_trace,
                                     nested_behavior):
    sizes = _sizes(nested_cfg)
    other = walk(nested_cfg, nested_behavior, max_steps=1_000, seed=1)
    tables = CostTables(other, sizes)
    tmap = ReplayDBT(nested_trace, nested_cfg,
                     DBTConfig(threshold=5)).translation_map()
    with pytest.raises(ValueError):
        estimate_cost(nested_trace, tmap, sizes, tables=tables)


def test_tables_reject_wrong_sizes(nested_cfg, nested_trace):
    with pytest.raises(ValueError):
        CostTables(nested_trace, [1, 2, 3])


def test_tables_reject_non_integral_sizes():
    with pytest.raises(ValueError, match="integral"):
        CostTables(_trace([0, 1], 2), [1.0, 2.5])


def test_tables_reject_totals_past_the_exact_range():
    trace = _trace([0, 1, 0, 1], 2)
    huge = EXACT_LIMIT / 4  # four steps of interp_cost 3 reach the limit
    with pytest.raises(ValueError, match="exact"):
        CostTables(trace, [huge, huge])
    CostTables(trace, [huge / 8, huge / 8])


def test_measured_estimator_accepts_tables():
    """The derived-cost estimator is tables-blind (bit-identical), and
    equals the per-step oracle to within rounding."""
    from repro.perfmodel import estimate_cost_measured, measured_block_costs

    program, cfg, trace, snapshot, tmap, sizes = _branchy_prng_run()
    direct = estimate_cost_measured(trace, tmap, program, cfg, snapshot)
    shared = estimate_cost_measured(trace, tmap, program, cfg, snapshot,
                                    tables=CostTables(trace, sizes,
                                                      CostModel()))
    _exact_equal(direct, shared)

    measured = measured_block_costs(program, cfg, snapshot)
    oracle = oracle_cost(trace, tmap, sizes, opt_cost=measured)
    assert shared.optimized == pytest.approx(oracle.optimized, rel=1e-12)
    assert shared.optimized != oracle_cost(trace, tmap, sizes).optimized
    for field in FIELDS:
        if field != "optimized":
            assert getattr(shared, field) == getattr(oracle, field), field


def test_multireplay_maps_price_identically_under_tables(nested_cfg,
                                                         nested_trace):
    """The full sweep shape the harness runs: one tables object, many
    maps from a multi-threshold replay, priced against the per-step
    oracle over the scalar replay oracle's maps."""
    sizes = _sizes(nested_cfg)
    thresholds = [5, 50, 500]
    tables = CostTables(nested_trace, sizes)
    sweep = MultiThresholdReplay(nested_trace, nested_cfg, thresholds).run()
    for t in thresholds:
        oracle = oracle_replay(nested_trace, nested_cfg,
                               DBTConfig(threshold=t))
        expected = oracle_cost(nested_trace, oracle.translation_map(),
                               sizes)
        shared = estimate_cost(nested_trace,
                               sweep.state(t).translation_map(), sizes,
                               tables=tables)
        _exact_equal(expected, shared, f"t={t}")
