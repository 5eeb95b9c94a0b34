"""Run reporting: aggregate manifests and diff runs.

The study cache accumulates one ``study-<fingerprint>.json`` aggregate
per run configuration, each carrying the run manifest (timings, metric
snapshot, phase profile, dispatch breakdown).  This module is the
read-side: ``python -m repro.obs report`` finds those aggregates,
renders the hotspot and dispatch tables for one of them, ``diff``
compares two runs (or a run against a ``BENCH_*.json`` baseline) with
regression thresholds.

Everything here reads plain JSON files — no harness import, so the
report CLI works on artifacts copied off a CI runner with nothing else
installed.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .manifest import render_manifest

# -- run discovery ------------------------------------------------------------


def discover_runs(cache_dir: str) -> List[str]:
    """Every run aggregate under ``cache_dir``, newest first."""
    paths = glob.glob(os.path.join(cache_dir, "study-*.json"))
    return sorted(paths, key=lambda p: -os.path.getmtime(p))


def load_payload(path: str) -> Dict[str, Any]:
    """One JSON artifact (aggregate, bare manifest, or BENCH baseline)."""
    with open(path) as handle:
        return json.load(handle)


def manifest_of(payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Schema-sniff the manifest out of a loaded artifact.

    Accepts a cache aggregate or monolithic results file (manifest under
    the ``"manifest"`` key), a bare manifest (has ``manifest_version``),
    or a flight-recorder dump (no manifest — returns ``None``, as for
    ``BENCH_*.json`` baselines, which carry flat numbers instead).
    """
    if "manifest" in payload:
        return payload["manifest"]
    if "manifest_version" in payload:
        return payload
    return None


def describe_run(path: str) -> Dict[str, Any]:
    """One line's worth of facts about a run aggregate."""
    manifest = manifest_of(load_payload(path)) or {}
    profile = manifest.get("profile") or {}
    return {
        "path": path,
        "fingerprint": manifest.get("fingerprint", "?"),
        "created_at": manifest.get("created_at", "?"),
        "benchmarks": len(manifest.get("benchmarks") or []),
        "total_seconds": manifest.get("total_seconds"),
        "coverage": profile.get("coverage"),
    }


def render_run_list(cache_dir: str) -> str:
    """The ``report --list`` table: every cached run, newest first."""
    runs = discover_runs(cache_dir)
    if not runs:
        return f"no run aggregates under {cache_dir}"
    lines = [f"{'fingerprint':18s} {'created (UTC)':20s} {'bench':>5s} "
             f"{'seconds':>8s} {'cover':>6s}  file"]
    for path in runs:
        info = describe_run(path)
        seconds = info["total_seconds"]
        coverage = info["coverage"]
        lines.append(
            f"{info['fingerprint']:18s} {info['created_at']:20s} "
            f"{info['benchmarks']:5d} "
            f"{seconds if seconds is not None else float('nan'):8.2f} "
            f"{coverage * 100 if coverage is not None else float('nan'):5.1f}%"
            f"  {os.path.basename(path)}")
    return "\n".join(lines)


# -- metric flattening & diffing ----------------------------------------------

#: Leaf-key suffixes where a *larger* value is a regression.
_LOWER_IS_BETTER = ("seconds", "overhead_ratio", "payload_bytes",
                    "mean", "p50", "p90", "p99", "max", "sum")

#: Leaf-key suffixes where a *smaller* value is a regression.
_HIGHER_IS_BETTER = ("speedup", "coverage", "effective_parallelism")

#: Boolean leaf-key suffixes where ``True`` is the healthy value — a
#: true-to-false flip on one of these is a regression, not a config
#: change (``figure_data_identical`` is the canonical example).
_TRUE_IS_BETTER = ("identical", "ok", "passed")


def direction_of(key: str) -> int:
    """-1 if lower is better, +1 if higher is better, 0 if informational."""
    leaf = key.rsplit(".", 1)[-1]
    for suffix in _HIGHER_IS_BETTER:
        if leaf == suffix or leaf.endswith("_" + suffix):
            return 1
    for suffix in _LOWER_IS_BETTER:
        if leaf == suffix or leaf.endswith("_" + suffix):
            return -1
    return 0


def bool_direction(key: str) -> int:
    """+1 if ``True`` is the healthy value for this key, 0 otherwise."""
    leaf = key.rsplit(".", 1)[-1]
    for suffix in _TRUE_IS_BETTER:
        if leaf == suffix or leaf.endswith("_" + suffix):
            return 1
    return 0


def flatten_numbers(payload: Any, prefix: str = "",
                    out: Optional[Dict[str, float]] = None
                    ) -> Dict[str, float]:
    """Every numeric leaf of a nested dict as ``dotted.path -> value``.

    Booleans and lists are skipped — they are configuration, not
    performance.  This is the common denominator that lets a run
    manifest diff against a ``BENCH_*.json`` baseline: both reduce to a
    flat bag of named numbers, and the diff walks the intersection.
    """
    if out is None:
        out = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            flatten_numbers(value, f"{prefix}{key}.", out)
    elif isinstance(payload, bool):
        pass
    elif isinstance(payload, (int, float)):
        out[prefix[:-1]] = float(payload)
    return out


def flatten_flags(payload: Any, prefix: str = "",
                  out: Optional[Dict[str, bool]] = None) -> Dict[str, bool]:
    """Every boolean leaf of a nested dict as ``dotted.path -> value``.

    The complement of :func:`flatten_numbers`: bools are excluded from
    the numeric diff (a ``figure_data_identical`` flip is not a
    ``0.0 -> 1.0`` timing change), so they get their own bag here and
    their own direction rule (:func:`bool_direction`) in the diff.
    """
    if out is None:
        out = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            flatten_flags(value, f"{prefix}{key}.", out)
    elif isinstance(payload, bool):
        out[prefix[:-1]] = payload
    return out


def flatten_nulls(payload: Any, prefix: str = "",
                  out: Optional[List[str]] = None) -> List[str]:
    """Every ``null`` leaf of a nested dict as a ``dotted.path`` list."""
    if out is None:
        out = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            flatten_nulls(value, f"{prefix}{key}.", out)
    elif payload is None:
        out.append(prefix[:-1])
    return out


def comparable_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """The diffable numbers of one artifact.

    Run aggregates contribute their manifest's timings, phase profile
    and dispatch breakdown (the full metric snapshot would drown the
    diff in counters that legitimately scale with work done);
    ``BENCH_*.json`` baselines contribute every numeric leaf they have.
    """
    manifest = manifest_of(payload)
    if manifest is None:
        return flatten_numbers(payload)
    picked: Dict[str, Any] = {
        "total_seconds": manifest.get("total_seconds"),
        "timings": manifest.get("timings") or {},
    }
    profile = manifest.get("profile") or {}
    if profile:
        picked["profile"] = {
            "coverage": profile.get("coverage"),
            "total_seconds": profile.get("total_seconds"),
            "phases": {phase: row.get("seconds")
                       for phase, row in
                       (profile.get("phases") or {}).items()},
        }
    dispatch = manifest.get("dispatch") or {}
    if dispatch:
        picked["dispatch"] = {
            "overhead_ratio": dispatch.get("overhead_ratio"),
            "effective_parallelism": dispatch.get("effective_parallelism"),
            "segments_seconds": dispatch.get("segments_seconds") or {},
        }
    return flatten_numbers(
        {k: v for k, v in picked.items() if v is not None})


def comparable_flags(payload: Dict[str, Any]) -> Dict[str, bool]:
    """The diffable booleans of one artifact (see :func:`flatten_flags`)."""
    manifest = manifest_of(payload)
    return flatten_flags(payload if manifest is None else manifest)


def comparable_nulls(payload: Dict[str, Any]) -> List[str]:
    """Directional keys an artifact carries as ``null``.

    A ``"speedup": null`` written on a one-core box flattens to nothing
    and silently gates nothing; surfacing it lets the diff say so out
    loud.  Non-directional nulls (config fields, absent sections) are
    not interesting and are dropped.
    """
    manifest = manifest_of(payload)
    source = payload if manifest is None else manifest
    return [key for key in flatten_nulls(source) if direction_of(key) != 0]


def run_flags(payload: Dict[str, Any]) -> List[str]:
    """An artifact's top-level ``flags`` list (``insufficient_cores``…)."""
    flags = payload.get("flags")
    if isinstance(flags, list):
        return [str(flag) for flag in flags]
    return []


def diff_metrics(a: Dict[str, float], b: Dict[str, float],
                 threshold: float) -> List[Dict[str, Any]]:
    """Compare two flat metric bags; flag directional worsenings.

    A row is a *regression* when a lower-is-better key grows (or a
    higher-is-better key shrinks) by more than ``threshold`` (a
    fraction, e.g. 0.10 for 10%).  Keys present on only one side are
    not compared — a diff across schema versions degrades to the common
    subset instead of erroring — but they are not silently lost either:
    :func:`dropped_keys` names them and the diff CLI prints them.
    Sub-10ms timing keys never regress:
    at that scale the "change" is scheduler noise, not a signal.
    """
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(a) & set(b)):
        before, after = a[key], b[key]
        delta = after - before
        ratio = (delta / abs(before)) if before else None
        direction = direction_of(key)
        regressed = False
        if direction and ratio is not None:
            worse = ratio > threshold if direction < 0 \
                else ratio < -threshold
            noise = direction < 0 and abs(before) < 0.01 \
                and abs(after) < 0.01
            regressed = worse and not noise
        rows.append({"key": key, "before": before, "after": after,
                     "delta": delta, "ratio": ratio,
                     "regression": regressed})
    return rows


def diff_flags(a: Dict[str, bool], b: Dict[str, bool]
               ) -> List[Dict[str, Any]]:
    """Boolean flips between two flag bags.

    A true-to-false flip on a :func:`bool_direction` key (say
    ``figure_data_identical``) is a *regression*; every other flip is
    reported as informational — a config change worth seeing, not a
    gate.
    """
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(a) & set(b)):
        before, after = a[key], b[key]
        if before == after:
            continue
        regressed = bool_direction(key) > 0 and before and not after
        rows.append({"key": key, "before": before, "after": after,
                     "regression": regressed})
    return rows


def dropped_keys(a: Dict[str, float], b: Dict[str, float]
                 ) -> List[Dict[str, str]]:
    """Metric keys present on only one side of a diff, by side."""
    rows = [{"key": key, "side": "baseline"}
            for key in sorted(set(a) - set(b))]
    rows.extend({"key": key, "side": "candidate"}
                for key in sorted(set(b) - set(a)))
    return rows


def render_diff(rows: List[Dict[str, Any]], show_all: bool = False) -> str:
    """The diff table; regressions always shown, the rest behind a flag."""
    shown = [r for r in rows if show_all or r["regression"]]
    regressions = sum(1 for r in rows if r["regression"])
    lines = [f"{len(rows)} comparable metrics, "
             f"{regressions} regression(s)"]
    if shown:
        lines.append(f"  {'metric':44s} {'before':>12s} {'after':>12s} "
                     f"{'change':>8s}")
        for row in shown:
            ratio = row["ratio"]
            change = f"{ratio * 100:+7.1f}%" if ratio is not None else \
                "     new"
            flag = "  <-- regression" if row["regression"] else ""
            lines.append(f"  {row['key']:44s} {row['before']:12.4f} "
                         f"{row['after']:12.4f} {change}{flag}")
    return "\n".join(lines)


def render_diff_extras(flag_rows: List[Dict[str, Any]],
                       dropped: List[Dict[str, str]],
                       nulls: Tuple[List[str], List[str]],
                       flags: Tuple[List[str], List[str]]) -> str:
    """Everything the numeric diff table cannot say, one line each.

    Boolean flips (regressions marked), directional keys carried as
    ``null`` (present but gating nothing), each side's top-level run
    flags (``insufficient_cores``…), and one-sided keys the numeric
    diff skipped.  Empty string when there is nothing to add.
    """
    lines: List[str] = []
    for row in flag_rows:
        marker = "  <-- regression" if row["regression"] else ""
        lines.append(f"  flag {row['key']}: {row['before']} -> "
                     f"{row['after']}{marker}")
    null_before, null_after = nulls
    for key in sorted(set(null_before) | set(null_after)):
        side = ("both sides" if key in null_before and key in null_after
                else "baseline" if key in null_before else "candidate")
        lines.append(f"  null {key} ({side}): directional metric "
                     f"carries no value, nothing gated")
    flags_before, flags_after = flags
    if flags_before:
        lines.append(f"  baseline flags: {', '.join(flags_before)}")
    if flags_after:
        lines.append(f"  candidate flags: {', '.join(flags_after)}")
    for side in ("baseline", "candidate"):
        keys = [row["key"] for row in dropped if row["side"] == side]
        if keys:
            shown = ", ".join(keys[:6])
            more = f" (+{len(keys) - 6} more)" if len(keys) > 6 else ""
            lines.append(f"  {len(keys)} {side}-only key(s) not "
                         f"compared: {shown}{more}")
    return "\n".join(lines)


# -- the report itself --------------------------------------------------------


def resolve_run(run: Optional[str], cache_dir: str) -> str:
    """The run artifact to report on: explicit path, else newest cached."""
    if run:
        if not os.path.exists(run):
            raise FileNotFoundError(f"no such run artifact: {run}")
        return run
    runs = discover_runs(cache_dir)
    if not runs:
        raise FileNotFoundError(
            f"no run aggregates under {cache_dir}; run a study first or "
            f"pass --run")
    return runs[0]


def render_report(path: str) -> str:
    """The full report for one run artifact (manifest + tables)."""
    manifest = manifest_of(load_payload(path))
    header = f"run report: {path}"
    return header + "\n" + render_manifest(manifest)


def report_sections(path: str) -> Tuple[Optional[Dict[str, Any]],
                                        Dict[str, Any]]:
    """``(manifest, payload)`` of one artifact, for programmatic use."""
    payload = load_payload(path)
    return manifest_of(payload), payload
