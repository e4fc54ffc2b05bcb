"""Alert engine: evaluate declarative rules over metric time series.

The engine replays per-series time series through a list of
:mod:`repro.obs.rules` and emits a deterministic **alerts timeline**: one
event per state transition, with simulation-time stamps::

    {"rule": "recovery_transient", "severity": "warning",
     "series": "repro_displaced_pending", "state": "firing",
     "t_s": 12.0, "value": 133.0, "since_s": 8.0}

Events are sorted by ``(t_s, rule, series, state)`` and values come
straight from the deterministic simulation, so the timeline is
bit-identical across reruns and worker counts — the property
``tests/test_obs.py`` pins.  :func:`alerts_block` wraps a timeline in
the stable-schema block the ``--alerts`` sweep axis attaches to result
entries (see :mod:`repro.obs.schema`).

The series come in one typed shape from two places: a sweep cell
evaluates its :class:`~repro.metrics.monitor.MetricsMonitor`'s
``series`` in memory, and ``python -m repro.obs alerts`` parses a
recorded ``--metrics-out`` stream with
:func:`repro.metrics.plot.parse_scrape_stream`.  The monitor keeps its
samples as that parser reads them back, so both timelines are equal.
:func:`scrape_stream_text` and :func:`evaluate_monitor_chunks` still
serve callers that hold a list of rendered text chunks.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.plot import Series, parse_scrape_stream
from repro.obs.rules import (
    AlertRule,
    BurnRateRule,
    RateOfChangeRule,
    ThresholdRule,
    default_rule_pack,
)

#: One firing/resolved transition in a timeline.
AlertEvent = Dict[str, object]

#: Schema version of the ``alerts`` block (see :mod:`repro.obs.schema`).
ALERTS_SCHEMA_VERSION = 1


def scrape_stream_text(chunks: Sequence[Tuple[str, float]]) -> str:
    """Rebuild the ``--metrics-out`` file stream from text-sink chunks.

    The :class:`~repro.metrics.monitor.MetricsMonitor` file sink writes a
    ``# scrape <n> t=<sim_s>`` marker before each exposition; a text sink
    hands over ``(text, now)`` without it.  Reconstructing the marker here
    makes the chunks byte-identical to the recorded file.
    """
    parts: List[str] = []
    for index, (text, now) in enumerate(chunks, start=1):
        parts.append(f"# scrape {index} t={now:.3f}\n")
        parts.append(text)
    return "".join(parts)


def _prepare(points: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sample points in time order (stable on ties, last write wins later)."""
    return sorted(points, key=lambda p: p[0])


def _select(series: Series, metric: str) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """All series of one metric (bare name or any label set), name-sorted."""
    prefix = metric + "{"
    return [
        (name, _prepare(series[name]))
        for name in sorted(series)
        if name == metric or name.startswith(prefix)
    ]


def _sum_series(
    selected: Sequence[Tuple[str, List[Tuple[float, float]]]]
) -> List[Tuple[float, float]]:
    """Label sets summed into one series over the union of sample times.

    Each component holds its last-seen value between samples (step
    interpolation); before its first sample it contributes its first
    value, so a counter that existed from the start does not fake a jump
    when another label set appears later.
    """
    if not selected:
        return []
    if len(selected) == 1:
        return list(selected[0][1])
    times = sorted({t for _, points in selected for t, _ in points})
    summed: List[Tuple[float, float]] = []
    for t in times:
        total = 0.0
        for _, points in selected:
            total += _value_at(points, t)
        summed.append((t, total))
    return summed


def _value_at(points: Sequence[Tuple[float, float]], t: float) -> float:
    """Step-interpolated value at time ``t`` (first value before the start)."""
    if not points:
        return 0.0
    index = bisect.bisect_right(points, t, key=itemgetter(0)) - 1
    return points[max(index, 0)][1]


def _span(series: Series) -> Tuple[float, float]:
    """(t_start, t_end) over every sample in the stream (0, 0 when empty)."""
    t_lo: Optional[float] = None
    t_hi: Optional[float] = None
    for points in series.values():
        for t, _ in points:
            t_lo = t if t_lo is None else min(t_lo, t)
            t_hi = t if t_hi is None else max(t_hi, t)
    if t_lo is None:
        return 0.0, 0.0
    return t_lo, t_hi


class AlertEngine:
    """Evaluate a rule pack over a parsed scrape stream."""

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None) -> None:
        self.rules = list(rules) if rules is not None else default_rule_pack()
        names = [rule.name for rule in self.rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule names: {sorted(duplicates)}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, series: Series) -> List[AlertEvent]:
        """The full timeline, sorted by ``(t_s, rule, series, state)``."""
        events: List[AlertEvent] = []
        t_lo, t_hi = _span(series)
        span = max(t_hi - t_lo, 0.0)
        for rule in self.rules:
            if isinstance(rule, ThresholdRule):
                events.extend(self._evaluate_threshold(rule, series, span))
            elif isinstance(rule, BurnRateRule):
                events.extend(self._evaluate_burn_rate(rule, series))
            elif isinstance(rule, RateOfChangeRule):
                events.extend(self._evaluate_rate(rule, series))
            else:  # pragma: no cover - the AlertRule union is closed
                raise TypeError(f"unknown rule type {type(rule).__name__}")
        events.sort(
            key=lambda e: (e["t_s"], e["rule"], e["series"], e["state"])
        )
        return events

    def evaluate_stream_text(self, text: str) -> List[AlertEvent]:
        """Evaluate a raw ``--metrics-out`` stream (file contents)."""
        return self.evaluate(parse_scrape_stream(text))

    # ------------------------------------------------------------------
    # Rule evaluators
    # ------------------------------------------------------------------
    def _evaluate_threshold(
        self, rule: ThresholdRule, series: Series, span: float
    ) -> List[AlertEvent]:
        hold = max(rule.for_s, rule.for_fraction * span)
        events: List[AlertEvent] = []
        for name, points in _select(series, rule.metric):
            breach_start: Optional[float] = None
            firing = False
            for t, value in points:
                if rule.breaches(value):
                    if breach_start is None:
                        breach_start = t
                    if not firing and t - breach_start >= hold:
                        firing = True
                        events.append(
                            self._event(rule, name, "firing", t, value, breach_start)
                        )
                else:
                    if firing:
                        events.append(self._event(rule, name, "resolved", t, value))
                    firing = False
                    breach_start = None
        return events

    def _evaluate_burn_rate(
        self, rule: BurnRateRule, series: Series
    ) -> List[AlertEvent]:
        numerator = _sum_series(_select(series, rule.numerator))
        denominator = _sum_series(_select(series, rule.denominator))
        if not numerator or not denominator:
            return []
        budget = 1.0 - rule.objective

        def burn(t: float, window_s: float, t_start: float) -> float:
            window_start = max(t - window_s, t_start)
            bad = _value_at(numerator, t) - _value_at(numerator, window_start)
            total = _value_at(denominator, t) - _value_at(denominator, window_start)
            if total <= 0:
                return 0.0
            return (bad / total) / budget

        t_start = numerator[0][0]
        events: List[AlertEvent] = []
        firing = False
        breach_start: Optional[float] = None
        for t, _ in numerator:
            short = burn(t, rule.short_window_s, t_start)
            long = burn(t, rule.long_window_s, t_start)
            breaching = short > rule.burn_threshold and long > rule.burn_threshold
            if breaching and not firing:
                firing = True
                breach_start = t
                events.append(
                    self._event(rule, rule.numerator, "firing", t, short, breach_start)
                )
            elif not breaching and firing:
                firing = False
                events.append(self._event(rule, rule.numerator, "resolved", t, short))
        return events

    def _evaluate_rate(
        self, rule: RateOfChangeRule, series: Series
    ) -> List[AlertEvent]:
        summed = _sum_series(_select(series, rule.metric))
        if not summed:
            return []
        t_start = summed[0][0]
        events: List[AlertEvent] = []
        firing = False
        for t, value in summed:
            window_start = max(t - rule.window_s, t_start)
            elapsed = t - window_start
            if elapsed <= 0:
                continue
            rate = (value - _value_at(summed, window_start)) / elapsed
            if rate > rule.threshold_per_s and not firing:
                firing = True
                events.append(self._event(rule, rule.metric, "firing", t, rate, t))
            elif rate <= rule.threshold_per_s and firing:
                firing = False
                events.append(self._event(rule, rule.metric, "resolved", t, rate))
        return events

    @staticmethod
    def _event(
        rule: AlertRule,
        series_name: str,
        state: str,
        t_s: float,
        value: float,
        since_s: Optional[float] = None,
    ) -> AlertEvent:
        event: AlertEvent = {
            "rule": rule.name,
            "severity": rule.severity,
            "series": series_name,
            "state": state,
            "t_s": round(float(t_s), 6),
            "value": round(float(value), 6),
        }
        if since_s is not None:
            event["since_s"] = round(float(since_s), 6)
        return event


def alerts_block(
    events: Sequence[AlertEvent], rules: Optional[Sequence[AlertRule]] = None
) -> Dict[str, object]:
    """The stable-schema ``alerts`` block sweep entries carry.

    ``active_at_end`` lists ``"rule|series"`` pairs still firing after
    the last event — alerts that never resolved within the run.
    """
    rule_names = sorted(
        rule.name for rule in (rules if rules is not None else default_rule_pack())
    )
    active: Dict[Tuple[str, str], bool] = {}
    for event in events:
        active[(str(event["rule"]), str(event["series"]))] = (
            event["state"] == "firing"
        )
    return {
        "alerts_schema_version": ALERTS_SCHEMA_VERSION,
        "rules": rule_names,
        "events": list(events),
        "firing": sum(1 for e in events if e["state"] == "firing"),
        "resolved": sum(1 for e in events if e["state"] == "resolved"),
        "active_at_end": sorted(
            f"{rule}|{series}" for (rule, series), on in active.items() if on
        ),
    }


def evaluate_monitor_chunks(
    chunks: Sequence[Tuple[str, float]],
    rules: Optional[Sequence[AlertRule]] = None,
) -> Dict[str, object]:
    """One-call helper: text-sink chunks -> ``alerts`` block."""
    engine = AlertEngine(rules)
    events = engine.evaluate_stream_text(scrape_stream_text(chunks))
    return alerts_block(events, engine.rules)


def format_timeline(events: Sequence[AlertEvent]) -> str:
    """Human-readable timeline (one line per transition)."""
    if not events:
        return "no alerts\n"
    lines = []
    for event in events:
        since = (
            f" (since t={event['since_s']:.3f}s)" if "since_s" in event else ""
        )
        lines.append(
            f"t={float(event['t_s']):>9.3f}s  {event['state']:<8} "
            f"{event['rule']:<20} [{event['severity']}] "
            f"{event['series']} value={event['value']:g}{since}"
        )
    return "\n".join(lines) + "\n"
