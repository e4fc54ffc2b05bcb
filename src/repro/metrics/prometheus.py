"""Minimal Prometheus text-exposition registry (format version 0.0.4).

Stdlib-only implementation of the two metric types the simulator needs:

* **counter** — cumulative, monotonically non-decreasing.  Simulator
  counters are already cumulative (bytes sent, requests shed), so
  :meth:`CounterFamily.set_total` sets the running total directly and
  *enforces* monotonicity — a decreasing total is a bug in the sampler,
  not a value to silently expose.
* **gauge** — a value that can go up and down (queue depth, active
  instances).

Exposition follows the Prometheus text format: one ``# HELP`` and one
``# TYPE`` comment per family, then one ``name{label="value"} value
timestamp`` line per labelled sample.  Families render in registration
order and samples in sorted label order, so the output is deterministic
for a deterministic simulation.  Timestamps are *simulation* milliseconds
— the whole point of chaos observability is replaying what the simulated
fleet looked like over simulated time.

Each family lists its samples as ``(series name, value)`` pairs in
exposition order (:meth:`MetricFamily.series_values`); the text renderer
formats those pairs, and :class:`~repro.metrics.monitor.MetricsMonitor`
keeps them as typed :data:`Series` without rendering text at all.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: A frozen label set: ``(("cluster", "0"), ...)`` sorted by label name.
LabelKey = Tuple[Tuple[str, str], ...]

#: ``(t_seconds, value)`` points per series, keyed by the series name as
#: exposed (``repro_queue_depth{cluster="0"}``): the shape of a parsed
#: scrape stream.
Series = Dict[str, List[Tuple[float, float]]]

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _NAME_OK for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text-format spec."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Canonical sample value: ``repr`` round-trips floats exactly."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _series_name(base: str, key: LabelKey, extra: Optional[str] = None) -> str:
    """``base{label="value",...}``, with ``extra`` (a histogram's ``le``)
    after the sorted labels; the bare ``base`` when there are no labels."""
    parts = [f'{name}="{escape_label_value(value)}"' for name, value in key]
    if extra is not None:
        parts.append(extra)
    return f"{base}{{{','.join(parts)}}}" if parts else base


class MetricFamily:
    """One named metric with labelled samples; base of counter and gauge."""

    metric_type = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self._samples: Dict[LabelKey, float] = {}

    def value(self, **labels: str) -> float:
        """Current value of one labelled sample (0.0 when never set)."""
        return self._samples.get(_label_key(labels), 0.0)

    def samples(self) -> Dict[LabelKey, float]:
        """All samples, keyed by frozen label set."""
        return dict(self._samples)

    def series_values(self) -> Iterator[Tuple[str, float]]:
        """``(series name, value)`` per sample, in exposition order.

        Values are the floats a reader parses back from the text: ``-0.0``
        renders as ``0``, so it is listed as ``0.0`` (``+ 0.0`` clears the
        sign of a zero and leaves every other float as it is).
        """
        for key in sorted(self._samples):
            yield _series_name(self.name, key), self._samples[key] + 0.0

    def render(self, timestamp_ms: Optional[int] = None) -> List[str]:
        """Exposition lines for this family (HELP, TYPE, then samples)."""
        suffix = f" {timestamp_ms}" if timestamp_ms is not None else ""
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.metric_type}",
            *(
                f"{series} {format_value(value)}{suffix}"
                for series, value in self.series_values()
            ),
        ]


class CounterFamily(MetricFamily):
    """A monotonically non-decreasing cumulative metric."""

    metric_type = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to a labelled sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + float(amount)

    def set_total(self, value: float, **labels: str) -> None:
        """Set the cumulative total directly; refuses to go backwards.

        This is the natural bridge from simulator counters, which are
        already running totals — sampling them is a ``set``, not an
        ``inc``, but the monotonicity contract must still hold.
        """
        key = _label_key(labels)
        current = self._samples.get(key, 0.0)
        if value < current:
            raise ValueError(
                f"counter {self.name}{dict(key)} cannot decrease: "
                f"{current} -> {value}"
            )
        self._samples[key] = float(value)


class GaugeFamily(MetricFamily):
    """A metric that can go up and down."""

    metric_type = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._samples[_label_key(labels)] = float(value)


#: Default histogram buckets (seconds) — the Prometheus client defaults,
#: which bracket the latency range the simulator produces (sub-ms prefill
#: chunks up to multi-second queueing waits).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class HistogramFamily(MetricFamily):
    """A cumulative-bucket histogram (``_bucket``/``_sum``/``_count``).

    Buckets are cumulative per the exposition format: every observation
    lands in all buckets whose upper bound is >= the value, plus the
    implicit ``+Inf`` bucket.  Rendering is deterministic — sorted label
    sets, fixed bucket order — so scrape streams diff cleanly across
    deterministic runs.  The base-class ``_samples`` mirror holds the
    observation count per label set, so ``snapshot()`` and ``value()``
    keep working (they see the count).
    """

    metric_type = "histogram"

    def __init__(self, name: str, help_text: str, buckets=None) -> None:
        super().__init__(name, help_text)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets = bounds
        #: per label set: cumulative count per finite bucket bound.
        self._bucket_counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into a labelled series."""
        key = _label_key(labels)
        counts = self._bucket_counts.get(key)
        if counts is None:
            counts = self._bucket_counts[key] = [0] * len(self.buckets)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._samples[key] = self._samples.get(key, 0.0) + 1.0

    def series_values(self) -> Iterator[Tuple[str, float]]:
        """Per label set: one ``_bucket`` per bound, the ``+Inf`` bucket,
        ``_sum`` and ``_count`` (counts as floats, as a reader parses them)."""
        bucket = self.name + "_bucket"
        for key in sorted(self._samples):
            for bound, count in zip(self.buckets, self._bucket_counts[key]):
                yield _series_name(bucket, key, 'le="%s"' % format_value(bound)), float(count)
            total = self._samples[key]
            yield _series_name(bucket, key, 'le="+Inf"'), total
            yield _series_name(self.name + "_sum", key), self._sums[key] + 0.0
            yield _series_name(self.name + "_count", key), total


class MetricsRegistry:
    """An ordered collection of metric families with one exposition view."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def counter(self, name: str, help_text: str = "") -> CounterFamily:
        """Get or create a counter family; a gauge of the same name errors."""
        return self._family(CounterFamily, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> GaugeFamily:
        """Get or create a gauge family; a counter of the same name errors."""
        return self._family(GaugeFamily, name, help_text)

    def histogram(self, name: str, help_text: str = "", buckets=None) -> HistogramFamily:
        """Get or create a histogram family; other types of the name error.

        ``buckets`` only applies on first creation; later calls return the
        existing family unchanged (bucket layout is part of its identity).
        """
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = HistogramFamily(name, help_text, buckets)
        elif not isinstance(family, HistogramFamily):
            raise ValueError(
                f"metric {name!r} already registered as {family.metric_type}"
            )
        return family

    def _family(self, cls, name: str, help_text: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = cls(name, help_text)
        elif not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.metric_type}"
            )
        return family

    def families(self) -> List[MetricFamily]:
        """Families in registration order."""
        return list(self._families.values())

    def expose(self, timestamp_ms: Optional[int] = None) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self._families.values():
            lines.extend(family.render(timestamp_ms))
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, Dict[LabelKey, float]]:
        """Every family's samples, keyed by metric name."""
        return {name: family.samples() for name, family in self._families.items()}
