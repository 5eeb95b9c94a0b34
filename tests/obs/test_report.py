"""The report CLI: discovery, diffing, Prometheus export, exit codes."""

import json
import os

import pytest

from repro.obs.__main__ import EXIT_REGRESSION, main
from repro.obs import report


def _manifest(total=10.0, coverage=0.97, phases=None, created="2026-01-01"):
    phases = phases or {"walker": 4.0, "perfmodel": 5.0}
    return {
        "manifest_version": 1,
        "fingerprint": "abc123",
        "created_at": created,
        "benchmarks": ["gzip", "mcf"],
        "total_seconds": total,
        "timings": {"gzip": total * 0.6, "mcf": total * 0.4},
        "metrics": {
            "counters": {"replay.runs": 4},
            "gauges": {"profile.coverage": coverage, "unset": None},
            "histograms": {
                "dispatch.execute_seconds":
                    {"count": 2, "sum": 1.0, "min": 0.4, "max": 0.6,
                     "mean": 0.5, "p50": 0.5, "p90": 0.58, "p99": 0.6},
                "empty": {"count": 0},
            },
        },
        "profile": {
            "total_seconds": total, "attributed_seconds": total * coverage,
            "coverage": coverage, "lanes": 1,
            "phases": {name: {"seconds": seconds,
                              "share": seconds / total, "spans": 3}
                       for name, seconds in phases.items()},
            "hotspots": [],
        },
        "dispatch": {
            "jobs": 2, "records": 2, "overhead_ratio": 0.02,
            "effective_parallelism": 1.9,
            "segments_seconds": {"execute": 9.0, "queue": 0.1},
        },
    }


def _write_aggregate(path, manifest):
    with open(path, "w") as handle:
        json.dump({"version": 6, "manifest": manifest, "shards": {}},
                  handle)


@pytest.fixture
def cache(tmp_path):
    _write_aggregate(str(tmp_path / "study-abc123.json"), _manifest())
    return str(tmp_path)


# -- discovery and schema sniffing --------------------------------------------


def test_discover_runs_newest_first(tmp_path):
    old = tmp_path / "study-old.json"
    new = tmp_path / "study-new.json"
    _write_aggregate(str(old), _manifest())
    _write_aggregate(str(new), _manifest())
    os.utime(old, (1, 1))
    assert [os.path.basename(p)
            for p in report.discover_runs(str(tmp_path))] == \
        ["study-new.json", "study-old.json"]


def test_manifest_of_sniffs_all_shapes():
    manifest = _manifest()
    assert report.manifest_of({"manifest": manifest}) is manifest
    assert report.manifest_of(manifest) is manifest
    assert report.manifest_of({"serial_seconds": 3.0}) is None


def test_render_report_includes_profile_and_dispatch(cache):
    path = report.resolve_run(None, cache)
    text = report.render_report(path)
    assert "phase profile" in text
    assert "dispatch breakdown" in text
    assert "abc123" in text


# -- flattening and diffing ---------------------------------------------------


def test_comparable_metrics_picks_timings_profile_dispatch():
    flat = report.comparable_metrics({"manifest": _manifest()})
    assert flat["total_seconds"] == 10.0
    assert flat["timings.gzip"] == 6.0
    assert flat["profile.coverage"] == 0.97
    assert flat["profile.phases.walker"] == 4.0
    assert flat["dispatch.segments_seconds.execute"] == 9.0
    # counters do not leak into the diff
    assert not any(k.startswith("metrics") for k in flat)


def test_comparable_metrics_bench_baseline_flattens_all_numbers():
    flat = report.comparable_metrics(
        {"serial_seconds": 3.0, "speedup": 1.9,
         "kernel": {"vector_seconds": 1.0},
         "figure_data_identical": True, "benchmarks": ["gzip"]})
    assert flat == {"serial_seconds": 3.0, "speedup": 1.9,
                    "kernel.vector_seconds": 1.0}


def test_direction_of_classifies_keys():
    assert report.direction_of("total_seconds") == -1
    assert report.direction_of("dispatch.overhead_ratio") == -1
    assert report.direction_of("profile.coverage") == 1
    assert report.direction_of("speedup") == 1
    assert report.direction_of("replay.runs") == 0


def test_diff_flags_directional_regressions_only():
    rows = report.diff_metrics(
        {"total_seconds": 10.0, "coverage": 0.9, "runs": 5.0},
        {"total_seconds": 12.0, "coverage": 0.5, "runs": 50.0},
        threshold=0.10)
    by_key = {r["key"]: r for r in rows}
    assert by_key["total_seconds"]["regression"]     # +20% slower
    assert by_key["coverage"]["regression"]          # attribution lost
    assert not by_key["runs"]["regression"]          # informational


def test_diff_improvements_and_noise_are_not_regressions():
    rows = report.diff_metrics(
        {"total_seconds": 10.0, "tiny_seconds": 0.001},
        {"total_seconds": 8.0, "tiny_seconds": 0.005},
        threshold=0.10)
    assert not any(r["regression"] for r in rows)


def test_render_diff_lists_regressions():
    rows = report.diff_metrics({"total_seconds": 10.0},
                               {"total_seconds": 20.0}, threshold=0.10)
    text = report.render_diff(rows)
    assert "1 regression(s)" in text
    assert "total_seconds" in text


# -- boolean flags, nulls and dropped keys (diff blind spots) -----------------


def test_bool_direction_classifies_keys():
    assert report.bool_direction("figure_data_identical") == 1
    assert report.bool_direction("kernel.figure_data_identical") == 1
    assert report.bool_direction("checks_passed") == 1
    assert report.bool_direction("verify") == 0  # config, not health


def test_comparable_flags_flattens_bool_leaves():
    flags = report.comparable_flags(
        {"figure_data_identical": True, "serial_seconds": 3.0,
         "kernel": {"figure_data_identical": False}, "verify": True})
    assert flags == {"figure_data_identical": True,
                     "kernel.figure_data_identical": False,
                     "verify": True}


def test_diff_flags_true_to_false_is_a_regression():
    rows = report.diff_flags(
        {"figure_data_identical": True, "verify": True, "same": True},
        {"figure_data_identical": False, "verify": False, "same": True})
    by_key = {r["key"]: r for r in rows}
    assert set(by_key) == {"figure_data_identical", "verify"}  # flips only
    # The healthy-bool flip is a regression; the config flip is not.
    assert by_key["figure_data_identical"]["regression"]
    assert not by_key["verify"]["regression"]
    # ...and the healing flip (false -> true) is never a regression.
    healed = report.diff_flags({"figure_data_identical": False},
                               {"figure_data_identical": True})
    assert not healed[0]["regression"]


def test_comparable_nulls_reports_directional_keys_only():
    nulls = report.comparable_nulls(
        {"speedup": None, "note": None, "serial_seconds": 3.0,
         "dispatch": {"overhead_ratio": None}})
    # A null speedup means the gate silently vanished — worth a line; a
    # null informational key is not.
    assert sorted(nulls) == ["dispatch.overhead_ratio", "speedup"]


def test_dropped_keys_names_one_sided_metrics():
    rows = report.dropped_keys({"a_seconds": 1.0, "shared_seconds": 2.0},
                               {"b_seconds": 3.0, "shared_seconds": 2.5})
    assert {(r["key"], r["side"]) for r in rows} == \
        {("a_seconds", "baseline"), ("b_seconds", "candidate")}


def test_run_flags_reads_top_level_list():
    assert report.run_flags({"flags": ["insufficient_cores"]}) == \
        ["insufficient_cores"]
    assert report.run_flags({"flags": "nope"}) == []
    assert report.run_flags({}) == []


# -- the CLI ------------------------------------------------------------------


def test_cli_report_and_json(cache, capsys):
    assert main(["report", "--cache-dir", cache]) == 0
    assert "phase profile" in capsys.readouterr().out
    assert main(["report", "--cache-dir", cache, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fingerprint"] == "abc123"


def test_cli_report_list(cache, capsys):
    assert main(["report", "--cache-dir", cache, "--list"]) == 0
    out = capsys.readouterr().out
    assert "abc123" in out and "97.0%" in out


def test_cli_report_missing_cache(tmp_path, capsys):
    assert main(["report", "--cache-dir", str(tmp_path)]) == 2
    assert "no run aggregates" in capsys.readouterr().err


def test_cli_diff_exit_codes(cache, tmp_path, capsys):
    run = report.resolve_run(None, cache)
    assert main(["diff", run, run]) == 0
    slow = str(tmp_path / "slow.json")
    _write_aggregate(slow, _manifest(total=20.0, coverage=0.5))
    assert main(["diff", run, slow, "--threshold", "10"]) == \
        EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "regression" in out


def test_cli_diff_against_bench_baseline(cache, tmp_path):
    # Disjoint schemas degrade to the (empty) common subset, not a crash.
    bench = str(tmp_path / "BENCH_study.json")
    with open(bench, "w") as handle:
        json.dump({"serial_seconds": 3.0, "speedup": 2.0}, handle)
    assert main(["diff", bench, report.resolve_run(None, cache)]) == 0


def test_cli_diff_flag_flip_regresses_and_prints(tmp_path, capsys):
    before = str(tmp_path / "before.json")
    after = str(tmp_path / "after.json")
    with open(before, "w") as handle:
        json.dump({"serial_seconds": 3.0,
                   "figure_data_identical": True}, handle)
    with open(after, "w") as handle:
        json.dump({"serial_seconds": 3.0,
                   "figure_data_identical": False}, handle)
    # No numeric regression at all — the boolean flip alone must gate.
    assert main(["diff", before, after]) == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "flag figure_data_identical: True -> False" in out
    assert "<-- regression" in out


def test_cli_diff_prints_nulls_flags_and_dropped_keys(tmp_path, capsys):
    before = str(tmp_path / "before.json")
    after = str(tmp_path / "after.json")
    with open(before, "w") as handle:
        json.dump({"serial_seconds": 3.0, "speedup": None,
                   "old_only_seconds": 1.0,
                   "flags": ["insufficient_cores"]}, handle)
    with open(after, "w") as handle:
        json.dump({"serial_seconds": 3.0, "speedup": 1.5,
                   "flags": []}, handle)
    # None of the blind spots is a regression, but all are said out loud.
    assert main(["diff", before, after]) == 0
    out = capsys.readouterr().out
    assert "null speedup (baseline)" in out
    assert "baseline flags: insufficient_cores" in out
    assert "baseline-only key(s) not compared: old_only_seconds" in out
    assert "candidate-only key(s) not compared: speedup" in out


def test_cli_catalog_markdown(capsys):
    assert main(["catalog", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Instrument | Kind | Meaning |")
