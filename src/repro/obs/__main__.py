"""CLI for the observability layer.

Replay alert rules over a recorded scrape stream::

    python -m repro.obs alerts chaos_metrics.prom
    python -m repro.obs alerts chaos_metrics.prom --format json --output alerts.json

Roll up per-cell resource profiles across the result cache::

    python -m repro.obs profile
    python -m repro.obs profile --cache-dir /tmp/cache --format json

Diff two result documents, attributing latency deltas to stages::

    python -m repro.obs diff baseline.json current.json
    python -m repro.obs diff A.json A.json --fail-on-findings   # exit 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs.diff import (
    DEFAULT_REL_THRESHOLD,
    diff_documents,
    format_diff_report,
    gate_failures,
    load_document,
)
from repro.obs.engine import AlertEngine, alerts_block, format_timeline
from repro.obs.profile import collect_profiles, format_profile_report


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
        print(f"wrote {output}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_alerts(args: argparse.Namespace) -> int:
    engine = AlertEngine()
    events = engine.evaluate_stream_text(Path(args.stream).read_text())
    block = alerts_block(events, engine.rules)
    if args.format == "json":
        _emit(json.dumps(block, indent=2) + "\n", args.output)
    else:
        _emit(format_timeline(events), args.output)
    if args.fail_on_firing and block["firing"]:
        print(f"{block['firing']} alert(s) fired", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    rows = collect_profiles(cache_dir)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        _emit(format_profile_report(rows, top=args.top) + "\n", args.output)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    report = diff_documents(
        load_document(Path(args.base)),
        load_document(Path(args.current)),
        rel_threshold=args.threshold,
    )
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        _emit(format_diff_report(report), args.output)
    failures = gate_failures(report)
    if args.fail_on_findings and failures:
        print(", ".join(failures), file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze recorded telemetry: alerts, profiles, diffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alerts = sub.add_parser(
        "alerts", help="evaluate the default rule pack over a scrape stream"
    )
    alerts.add_argument("stream", help="recorded --metrics-out stream file")
    alerts.add_argument("--format", choices=("text", "json"), default="text")
    alerts.add_argument("--output", help="write the timeline here instead of stdout")
    alerts.add_argument(
        "--fail-on-firing",
        action="store_true",
        help="exit 1 when any alert fires (for CI gates)",
    )
    alerts.set_defaults(func=_cmd_alerts)

    profile = sub.add_parser(
        "profile", help="rank cached cells by resource cost"
    )
    profile.add_argument("--cache-dir", help="cache root (default: .repro_cache)")
    profile.add_argument("--top", type=int, default=20, help="rows to show")
    profile.add_argument("--format", choices=("text", "json"), default="text")
    profile.add_argument("--output", help="write the report here instead of stdout")
    profile.set_defaults(func=_cmd_profile)

    diff = sub.add_parser(
        "diff", help="compare two result documents cell-by-cell"
    )
    diff.add_argument("base", help="baseline result document")
    diff.add_argument("current", help="candidate result document")
    diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REL_THRESHOLD,
        help="relative change below which a delta is not a finding",
    )
    diff.add_argument("--format", choices=("text", "json"), default="text")
    diff.add_argument("--output", help="write the report here instead of stdout")
    diff.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 1 on any finding, any cell only one document has, or any "
        "changed top-level field other than wall_s_total and the cache counts "
        "(for CI regeneration gates)",
    )
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
