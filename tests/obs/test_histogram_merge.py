"""Histogram percentile audit across export/merge, property-tested.

Workers ship raw histogram observations (``export_state``) and the
parent folds them in (``merge_state``); the figures-of-merit pipeline
then reads p50/p99 off the merged registry.  These tests pin the
algebra: merging is lossless and associative, and the percentile
estimator agrees with numpy's linear interpolation exactly — so a
parallel run's histograms are indistinguishable from a serial run's.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.registry import Histogram, MetricsRegistry

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False,
                          width=64)
value_lists = st.lists(finite_floats, min_size=1, max_size=60)


def _registry_with(values):
    registry = MetricsRegistry()
    histogram = registry.histogram("test.values")
    for value in values:
        histogram.observe(value)
    registry.counter("test.count").inc(len(values))
    return registry


# -- exactness against numpy --------------------------------------------------


@given(values=value_lists, p=st.floats(min_value=0, max_value=100))
@example(values=[0.0, -33554433.0], p=99.99999999999999)
@settings(max_examples=200, deadline=None)
def test_percentile_matches_numpy_linear_interpolation(values, p):
    histogram = Histogram("test")
    for value in values:
        histogram.observe(value)
    expected = float(np.percentile(np.array(values), p))
    assert histogram.percentile(p) == pytest.approx(expected,
                                                    rel=1e-9, abs=1e-9)


def test_percentile_between_equal_neighbours_is_exact():
    histogram = Histogram("test")
    for value in (0.0, 1e-05, 1e-05, 1.0):
        histogram.observe(value)
    # Every interpolation point between the two equal 1e-05s lands on
    # 1e-05 exactly, not within an ulp of it.
    for p in range(34, 67):
        assert histogram.percentile(p) == 1e-05, p


@given(values=value_lists)
@example(values=[0.0, 0.0, 0.0, 1e-05, 1e-05])  # p99 once overshot max
@settings(max_examples=100, deadline=None)
def test_summary_percentiles_are_order_statistics(values):
    histogram = Histogram("test")
    for value in values:
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["min"] <= summary["p50"] <= summary["p99"] \
        <= summary["max"]
    assert summary["count"] == len(values)
    assert summary["sum"] == pytest.approx(sum(values))


# -- export/merge round-trips -------------------------------------------------


@given(values=value_lists)
@settings(max_examples=100, deadline=None)
def test_export_merge_round_trip_is_lossless(values):
    source = _registry_with(values)
    target = MetricsRegistry()
    target.merge_state(source.export_state())
    assert target.histogram("test.values").values() == \
        source.histogram("test.values").values()
    assert target.export_state() == source.export_state()


@given(a=value_lists, b=value_lists)
@settings(max_examples=100, deadline=None)
def test_merged_percentiles_equal_percentiles_of_the_union(a, b):
    parent = _registry_with(a)
    parent.merge_state(_registry_with(b).export_state())
    merged = parent.histogram("test.values")
    union = np.array(a + b)
    for p in (50, 90, 99):
        assert merged.percentile(p) == pytest.approx(
            float(np.percentile(union, p)), rel=1e-9, abs=1e-9)
    assert parent.counter("test.count").value == len(a) + len(b)


@given(a=value_lists, b=value_lists, c=value_lists)
@settings(max_examples=60, deadline=None)
def test_merge_is_associative_up_to_summary(a, b, c):
    # (A + B) + C merged left-to-right...
    left = MetricsRegistry()
    ab = MetricsRegistry()
    ab.merge_state(_registry_with(a).export_state())
    ab.merge_state(_registry_with(b).export_state())
    left.merge_state(ab.export_state())
    left.merge_state(_registry_with(c).export_state())
    # ...vs A + (B + C): summaries (order-independent views) must agree.
    right = MetricsRegistry()
    bc = MetricsRegistry()
    bc.merge_state(_registry_with(b).export_state())
    bc.merge_state(_registry_with(c).export_state())
    right.merge_state(_registry_with(a).export_state())
    right.merge_state(bc.export_state())

    ls = left.histogram("test.values").summary()
    rs = right.histogram("test.values").summary()
    assert ls["count"] == rs["count"]
    for key in ("sum", "min", "max", "mean", "p50", "p90", "p99"):
        assert ls[key] == pytest.approx(rs[key], rel=1e-9, abs=1e-9)
    assert left.counter("test.count").value == \
        right.counter("test.count").value


def test_merge_gauges_last_write_wins_and_none_skipped():
    target = MetricsRegistry()
    target.gauge("g").set(1)
    target.merge_state({"gauges": {"g": 2, "h": None}})
    assert target.gauge("g").value == 2
    assert target.gauge("h").value is None
