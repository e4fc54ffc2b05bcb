"""Offline renderer for recorded metrics scrape streams.

``python -m repro.metrics.plot STREAM`` parses a file produced by
``--metrics-out`` (a sequence of Prometheus text-format scrapes separated
by ``# scrape <n> t=<sim_s>`` markers, as written by
:class:`~repro.metrics.monitor.MetricsMonitor`) back into per-series time
series and renders them three ways:

* ``--format ascii`` (default) — one sparkline row per series with
  first/last/min/max, a terminal-greppable run summary;
* ``--format svg`` — a standalone SVG with one polyline per series,
  viewable in any browser, no plotting dependency required;
* ``--format json`` — a machine-readable digest (per-series count and
  range) for dashboards and regression scripts.

The parser is intentionally forgiving: unknown comment lines are skipped
(Prometheus parsers must ignore them), and sample lines missing the
trailing timestamp fall back to the enclosing scrape's marker time.

Streams recorded from chaos cells can be overlaid with the fault windows
of the :class:`~repro.chaos.config.FaultSchedule` that shaped them:
``--faults PRESET`` materialises a chaos preset against the stream's time
range and shades each window in the SVG (``class="fault"`` rects), lists
it in the JSON digest (``fault_windows``), and appends a summary line per
window to the ASCII view.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.metrics.prometheus import Series

#: One shaded overlay window: ``{kind, target, t_start_s, t_end_s}``.
FaultWindow = Dict[str, object]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def parse_scrape_stream(text: str) -> Series:
    """Parse a recorded scrape stream into per-series time series.

    Series are keyed by the full sample name including its label set
    (e.g. ``repro_queue_depth{cluster="0"}``) — label sets render in
    sorted order upstream, so the key is stable across scrapes.  Sample
    timestamps (milliseconds) win over the scrape marker time when both
    are present.  Records end at ``\n`` only: the exposition escapes no
    other line separator, so a label value may hold ``\r`` or ``\x85``.
    """
    series: Series = {}
    scrape_t = 0.0
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            # "# scrape <n> t=<sim_s>" markers carry the scrape time; all
            # other comments (HELP/TYPE) are skipped.
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "scrape" and parts[3].startswith("t="):
                try:
                    scrape_t = float(parts[3][2:])
                except ValueError:
                    pass
            continue
        # "name{label="v w"} value [timestamp_ms]" — label values may
        # contain spaces, so split from the right.
        name, value, t = _parse_sample(line, scrape_t)
        if name is None:
            continue
        series.setdefault(name, []).append((t, value))
    return series


def _parse_sample(
    line: str, scrape_t: float
) -> Tuple[Optional[str], float, float]:
    tail = line.rsplit(" ", 2)
    if len(tail) == 3 and not tail[0].endswith("}") and "}" in tail[0]:
        # A label value containing a space would break the 3-way split;
        # re-split on the closing brace instead.
        brace = line.rindex("}")
        fields = [line[: brace + 1]] + line[brace + 1 :].split()
        tail = fields if len(fields) in (2, 3) else tail
    try:
        if len(tail) == 3:
            name, value_text, ts_text = tail
            try:
                return name, float(value_text), float(ts_text) / 1000.0
            except ValueError:
                # Two tokens after the name (no timestamp): "name v"
                # with a spaced label value already consumed above.
                pass
        if len(tail) >= 2:
            name = " ".join(tail[:-1])
            return name, float(tail[-1]), scrape_t
    except ValueError:
        pass
    return None, 0.0, 0.0


def read_scrape_stream(path) -> Series:
    """Parse a ``--metrics-out`` file from disk, its bytes untranslated
    (universal newlines would turn a ``\r`` in a label value into a record
    break)."""
    with open(path, newline="") as handle:
        return parse_scrape_stream(handle.read())


def fault_windows(schedule, *, t_end_s: float) -> List[FaultWindow]:
    """Convert a :class:`~repro.chaos.config.FaultSchedule` into overlay windows.

    Each window is ``{kind, target, t_start_s, t_end_s}``, sorted by
    start time (the schedule already sorts its events):

    * ``instance_kill`` — a zero-width window at the strike time (the
      renderer draws it as a thin marker); the shard recovers on its own.
    * ``cluster_outage`` — permanent, so the window runs to ``t_end_s``
      (the end of the recorded stream).
    * ``wan_degrade`` — ``duration_s`` wide; ``duration_s == 0`` means
      until the end of the run, i.e. ``t_end_s``.
    """
    windows: List[FaultWindow] = []
    for event in schedule.events:
        if event.kind == "instance_kill":
            target = f"cluster{event.cluster}/inst{event.instance}"
            end = event.at_s
        elif event.kind == "cluster_outage":
            target = f"cluster{event.cluster}"
            end = t_end_s
        else:  # wan_degrade hits every link
            target = "wan"
            end = event.at_s + event.duration_s if event.duration_s > 0 else t_end_s
        windows.append(
            {
                "kind": event.kind,
                "target": target,
                "t_start_s": event.at_s,
                "t_end_s": max(end, event.at_s),
            }
        )
    return windows


def digest(
    series: Series, fault_windows: Optional[List[FaultWindow]] = None
) -> Dict[str, object]:
    """Machine-readable summary of a parsed stream.

    ``fault_windows`` (when given) is embedded verbatim under the
    ``fault_windows`` key; streams rendered without an overlay keep the
    pre-overlay digest shape, so recorded digests stay bit-identical.
    """
    per_series = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for name in sorted(series):
        points = series[name]
        values = [v for _, v in points]
        times = [t for t, _ in points]
        t_min = min(times) if t_min is None else min(t_min, min(times))
        t_max = max(times) if t_max is None else max(t_max, max(times))
        per_series[name] = {
            "points": len(points),
            "first": values[0],
            "last": values[-1],
            "min": min(values),
            "max": max(values),
        }
    summary: Dict[str, object] = {
        "series": per_series,
        "num_series": len(per_series),
        "t_start_s": t_min if t_min is not None else 0.0,
        "t_end_s": t_max if t_max is not None else 0.0,
    }
    if fault_windows is not None:
        summary["fault_windows"] = fault_windows
    return summary


def sparkline(values: List[float], width: int = 40) -> str:
    """Resample ``values`` to ``width`` columns of block characters."""
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int((v - lo) / span * top + 0.5))] for v in values
    )


def render_ascii(
    series: Series,
    width: int = 40,
    fault_windows: Optional[List[FaultWindow]] = None,
) -> str:
    """One sparkline row per series, aligned, sorted by series name."""
    if not series:
        return "(empty scrape stream)\n"
    name_width = max(len(name) for name in series)
    lines = []
    for name in sorted(series):
        values = [v for _, v in series[name]]
        lines.append(
            f"{name:<{name_width}}  {sparkline(values, width):<{width}}  "
            f"first={values[0]:g} last={values[-1]:g} "
            f"min={min(values):g} max={max(values):g}"
        )
    for window in fault_windows or ():
        lines.append(
            f"fault {window['kind']} on {window['target']}: "
            f"t={window['t_start_s']:g}s..{window['t_end_s']:g}s"
        )
    return "\n".join(lines) + "\n"


def render_svg(
    series: Series,
    width: int = 900,
    row_height: int = 60,
    fault_windows: Optional[List[FaultWindow]] = None,
) -> str:
    """A standalone SVG: one normalised polyline strip per series.

    ``fault_windows`` shade as full-height ``class="fault"`` rects behind
    the polylines, positioned on the union time range of every series —
    the same axis the per-row strips normalise against when the stream
    comes from a single recording (zero-width windows render as thin
    markers).
    """
    names = sorted(series)
    margin, label_h = 10, 14
    strip = row_height - label_h - margin
    height = max(row_height * len(names) + margin, row_height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if fault_windows and series:
        all_times = [t for points in series.values() for t, _ in points]
        t_lo, t_hi = min(all_times), max(all_times)
        t_span = (t_hi - t_lo) or 1.0
        for window in fault_windows:
            x0 = margin + (float(window["t_start_s"]) - t_lo) / t_span * (
                width - 2 * margin
            )
            x1 = margin + (float(window["t_end_s"]) - t_lo) / t_span * (
                width - 2 * margin
            )
            parts.append(
                f'<rect class="fault" x="{x0:.1f}" y="0" '
                f'width="{max(x1 - x0, 2.0):.1f}" height="{height}" '
                f'fill="#d62728" fill-opacity="0.12">'
                f"<title>{_svg_escape(str(window['kind']))} "
                f"{_svg_escape(str(window['target']))}</title></rect>"
            )
    for row, name in enumerate(names):
        points = series[name]
        y0 = row * row_height + margin
        parts.append(
            f'<text x="{margin}" y="{y0 + label_h - 4}" fill="#333">'
            f"{_svg_escape(name)}</text>"
        )
        times = [t for t, _ in points]
        values = [v for _, v in points]
        t_lo, t_hi = min(times), max(times)
        v_lo, v_hi = min(values), max(values)
        t_span = (t_hi - t_lo) or 1.0
        v_span = (v_hi - v_lo) or 1.0
        coords = []
        for t, v in points:
            x = margin + (t - t_lo) / t_span * (width - 2 * margin)
            y = y0 + label_h + strip - (v - v_lo) / v_span * strip
            coords.append(f"{x:.1f},{y:.1f}")
        if len(coords) == 1:
            coords.append(coords[0])
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics.plot",
        description="Render a --metrics-out scrape stream as ASCII, SVG or JSON.",
    )
    parser.add_argument("stream", help="scrape stream file written by --metrics-out")
    parser.add_argument(
        "--format",
        choices=("ascii", "svg", "json"),
        default="ascii",
        help="output format (default: ascii sparklines)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="only render series whose name contains this substring",
    )
    parser.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )
    parser.add_argument(
        "--width", type=int, default=40, help="sparkline width / SVG scale hint"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PRESET",
        help="overlay the fault windows of this chaos preset (see "
        "python -m repro.chaos --list-faults), materialised against the "
        "stream's time range",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=42,
        metavar="SEED",
        help="seed the preset was materialised with (churn only; default: 42)",
    )
    parser.add_argument(
        "--fault-clusters",
        type=int,
        default=2,
        metavar="N",
        help="cluster count of the recorded topology (churn only; default: 2)",
    )
    parser.add_argument(
        "--fault-instances",
        type=int,
        default=2,
        metavar="N",
        help="instances per cluster of the recorded topology (churn only; "
        "default: 2)",
    )
    args = parser.parse_args(argv)

    series = read_scrape_stream(args.stream)
    if args.select:
        series = {k: v for k, v in series.items() if args.select in k}
    windows = None
    if args.faults is not None:
        from repro.chaos.config import fault_schedule_preset

        t_end_s = float(digest(series)["t_end_s"])
        try:
            schedule = fault_schedule_preset(
                args.faults,
                duration_s=max(t_end_s, 1e-9),
                num_clusters=args.fault_clusters,
                instances_per_cluster=args.fault_instances,
                seed=args.fault_seed,
            )
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        windows = fault_windows(schedule, t_end_s=t_end_s)
    if args.format == "ascii":
        text = render_ascii(series, width=args.width, fault_windows=windows)
    elif args.format == "svg":
        text = render_svg(
            series, width=max(300, args.width * 20), fault_windows=windows
        )
    else:
        text = json.dumps(digest(series, windows), indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.format} summary of {len(series)} series to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
