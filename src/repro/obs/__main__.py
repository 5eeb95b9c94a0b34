"""``python -m repro.obs`` — the observability report CLI.

Subcommands::

    python -m repro.obs report            # newest cached run's report
    python -m repro.obs report --list     # every cached run, newest first
    python -m repro.obs report --run x.json --json
    python -m repro.obs diff old.json new.json --threshold 10
    python -m repro.obs catalog --markdown

``report`` renders a run's manifest with its phase-attribution and
dispatch-breakdown tables; ``diff`` compares two runs (or a run against
a ``BENCH_*.json`` baseline) and exits non-zero on regressions beyond
the threshold; ``catalog`` prints the documented instrument table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import catalog, report

#: Exit code of ``diff`` when regressions beyond the threshold exist.
EXIT_REGRESSION = 5


def _default_cache_dir() -> str:
    from ..harness.runner import DEFAULT_CACHE_DIR
    return DEFAULT_CACHE_DIR


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Report on and diff study-run observability "
                    "artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report", help="render one run's manifest, phase profile and "
                       "dispatch breakdown")
    rep.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="cache directory holding study-*.json "
                          "aggregates (default: the study cache)")
    rep.add_argument("--run", default=None, metavar="PATH",
                     help="a specific run artifact (default: the newest "
                          "aggregate in the cache)")
    rep.add_argument("--list", action="store_true",
                     help="list every cached run instead of reporting")
    rep.add_argument("--json", action="store_true",
                     help="print the manifest as JSON instead of tables")

    dif = sub.add_parser(
        "diff", help="compare two runs (or a run vs a BENCH_*.json "
                     "baseline); non-zero exit on regressions")
    dif.add_argument("before", help="baseline artifact (run aggregate "
                                    "or BENCH_*.json)")
    dif.add_argument("after", help="candidate artifact")
    dif.add_argument("--threshold", type=float, default=10.0,
                     metavar="PCT",
                     help="regression threshold in percent (default: 10)")
    dif.add_argument("--all", action="store_true",
                     help="show every comparable metric, not only "
                          "regressions")

    cat = sub.add_parser(
        "catalog", help="print the documented instrument catalog")
    cat.add_argument("--markdown", action="store_true",
                     help="emit the markdown table embedded in the docs")
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir or _default_cache_dir()
    if args.list:
        print(report.render_run_list(cache_dir))
        return 0
    path = report.resolve_run(args.run, cache_dir)
    manifest, _ = report.report_sections(path)
    if args.json:
        print(json.dumps(manifest, indent=2, default=str))
    else:
        print(report.render_report(path))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    payload_before = report.load_payload(args.before)
    payload_after = report.load_payload(args.after)
    before = report.comparable_metrics(payload_before)
    after = report.comparable_metrics(payload_after)
    rows = report.diff_metrics(before, after,
                               threshold=args.threshold / 100.0)
    flag_rows = report.diff_flags(report.comparable_flags(payload_before),
                                  report.comparable_flags(payload_after))
    print(f"diff: {os.path.basename(args.before)} -> "
          f"{os.path.basename(args.after)} "
          f"(threshold {args.threshold:g}%)")
    print(report.render_diff(rows, show_all=args.all))
    extras = report.render_diff_extras(
        flag_rows,
        report.dropped_keys(before, after),
        (report.comparable_nulls(payload_before),
         report.comparable_nulls(payload_after)),
        (report.run_flags(payload_before), report.run_flags(payload_after)))
    if extras:
        print(extras)
    regressed = (any(r["regression"] for r in rows)
                 or any(r["regression"] for r in flag_rows))
    return EXIT_REGRESSION if regressed else 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.markdown:
        print(catalog.markdown_table())
        return 0
    for entry in catalog.CATALOG:
        print(f"{entry.kind:9s} {entry.name:32s} {entry.doc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch one subcommand; the module's ``python -m`` entry point."""
    args = build_parser().parse_args(argv)
    try:
        handler = {"report": _cmd_report, "diff": _cmd_diff,
                   "catalog": _cmd_catalog}[args.command]
        return handler(args)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. piped into head; not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
