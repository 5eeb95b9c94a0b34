"""Flight recorder: ring bounds, hooks, dump files, directory resolution."""

import json
import os

import pytest

from repro.obs import flightrec
from repro.obs.log import get_logger
from repro.obs.registry import (counter_value, disable, enable,
                                reset_metrics)
from repro.obs.spans import clear_trace, span


@pytest.fixture(autouse=True)
def _clean_ring():
    flightrec.clear()
    yield
    flightrec.clear()


def test_ring_is_bounded_and_oldest_falls_off():
    recorder = flightrec.FlightRecorder(capacity=3)
    for i in range(5):
        recorder.record("log", f"event-{i}")
    events = recorder.export()
    assert len(events) == 3
    assert [e["name"] for e in events] == ["event-2", "event-3", "event-4"]
    assert [e["seq"] for e in events] == [3, 4, 5]


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv(flightrec.CAPACITY_ENV, "7")
    assert flightrec.FlightRecorder().capacity == 7
    monkeypatch.setenv(flightrec.CAPACITY_ENV, "0")
    with pytest.raises(ValueError):
        flightrec.FlightRecorder()
    monkeypatch.setenv(flightrec.CAPACITY_ENV, "nope")
    with pytest.raises(ValueError):
        flightrec.FlightRecorder()


def test_colliding_payload_fields_are_prefixed_not_dropped():
    recorder = flightrec.FlightRecorder(capacity=4)
    recorder.record("log", "fault", kind="crash", detail="x")
    (event,) = recorder.export()
    assert event["kind"] == "log"          # the ring's own key wins
    assert event["field_kind"] == "crash"  # the payload survives
    assert event["detail"] == "x"


def test_spans_and_logs_feed_the_global_ring():
    with span("test.flight"):
        pass
    get_logger("test.flight").debug("breadcrumb", step=3)
    kinds = {(e["kind"], e["name"]) for e in flightrec.export()}
    assert ("span", "test.flight") in kinds
    assert ("log", "breadcrumb") in kinds


def test_ring_is_gated_on_registry_enabled():
    disable()
    try:
        flightrec.record("log", "invisible")
    finally:
        enable()
    assert flightrec.export() == []


def test_resolve_flight_dir_precedence(monkeypatch):
    monkeypatch.delenv(flightrec.FLIGHT_DIR_ENV, raising=False)
    assert flightrec.resolve_flight_dir("explicit", "cache") == "explicit"
    monkeypatch.setenv(flightrec.FLIGHT_DIR_ENV, "from-env")
    assert flightrec.resolve_flight_dir(None, "cache") == "from-env"
    monkeypatch.delenv(flightrec.FLIGHT_DIR_ENV)
    assert flightrec.resolve_flight_dir(None, "cache") == \
        os.path.join("cache", "flight")
    assert flightrec.resolve_flight_dir(None, None) is None


def test_write_dump_is_self_contained(tmp_path):
    clear_trace()
    reset_metrics()
    flightrec.record("log", "parent-side")
    worker_ring = [{"seq": 1, "kind": "span", "name": "replay.run"}]
    path = flightrec.write_dump(
        str(tmp_path), "gzip", "timeout",
        context={"reason": "timeout", "attempts": 3,
                 "error": "exceeded job timeout 2.0s"},
        worker_events=worker_ring)
    assert os.path.basename(path) == "flight-gzip-timeout.json"
    with open(path) as handle:
        dump = json.load(handle)
    assert dump["dump_version"] == flightrec.DUMP_VERSION
    assert dump["benchmark"] == "gzip"
    assert dump["context"]["attempts"] == 3
    assert dump["worker_flight"] == worker_ring
    assert any(e["name"] == "parent-side" for e in dump["parent_flight"])
    assert "counters" in dump["metrics"]
    assert counter_value("flight.dumps") == 1


def test_write_dump_without_worker_ring(tmp_path):
    path = flightrec.write_dump(str(tmp_path), "mcf", "crash",
                                context={"reason": "crash"})
    with open(path) as handle:
        assert json.load(handle)["worker_flight"] is None
