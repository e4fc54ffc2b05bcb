"""MetricsMonitor: sample simulator counters into typed series.

A :class:`MetricsMonitor` owns a :class:`~repro.metrics.prometheus.MetricsRegistry`
and a :class:`~repro.simulation.process.PeriodicProcess` on the shared
event loop.  Every tick it runs the registered *sources* — callables that
read live simulator state into the registry — then appends every sample
to :attr:`MetricsMonitor.series`, stamped with the *simulation* time.
That typed store is the in-memory form the alert engine reads; Prometheus
text is rendered only when a file or a text sink asks for it.  ``stop()``
takes one final scrape, so the last scrape always equals the registry's
final snapshot.

Scrapes in a file stream are separated by ``# scrape <n> t=<sim_s>``
comment lines; Prometheus parsers ignore unknown comments, and the
marker lets offline tooling (and the test-suite's parser fixture) split
the stream back into individual scrapes.  Parsing a file stream with
:func:`~repro.metrics.plot.parse_scrape_stream` gives back
:attr:`MetricsMonitor.series`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.metrics.prometheus import LabelKey, MetricsRegistry, Series
from repro.simulation.event_loop import EventLoop
from repro.simulation.process import PeriodicProcess

#: A source reads live state into the registry at sample time.
MetricsSource = Callable[[MetricsRegistry, float], None]

#: A sink receives each rendered scrape (text) and the simulation time.
MetricsSink = Callable[[str, float], None]


class MetricsMonitor:
    """Periodic sampler into typed series, and text for file/text sinks."""

    def __init__(
        self,
        loop: EventLoop,
        *,
        interval_s: float = 1.0,
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.loop = loop
        self.registry = MetricsRegistry()
        self.path = Path(path) if path is not None else None
        self.scrapes = 0
        #: Every scrape's samples, as :func:`~repro.metrics.plot.parse_scrape_stream`
        #: reads them back from the file stream: times are the millisecond
        #: stamps the text carries.
        self.series: Series = {}
        self._sources: List[MetricsSource] = []
        self._sinks: List[MetricsSink] = []
        self._process = PeriodicProcess(
            loop, interval_s, self._tick, name="metrics-monitor"
        )
        if self.path is not None:
            # Truncate up front: one monitor lifetime owns one stream file.
            self.path.write_text("")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_source(self, source: MetricsSource) -> None:
        """Register a sampler; sources run in registration order each tick."""
        self._sources.append(source)

    def add_sink(self, sink: MetricsSink) -> None:
        """Register a consumer of each scrape's rendered text."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        """Stop sampling; emits one final scrape of the end state."""
        self._process.stop()
        self._tick(self.loop.now)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        for source in self._sources:
            source(self.registry, now)
        families = self.registry.families()
        if not families:
            return
        self.scrapes += 1
        timestamp_ms = int(round(now * 1000))
        t = timestamp_ms / 1000
        for family in families:
            for name, value in family.series_values():
                self.series.setdefault(name, []).append((t, value))
        if self.path is None and not self._sinks:
            return
        text = self.registry.expose(timestamp_ms=timestamp_ms)
        if self.path is not None:
            with self.path.open("a") as handle:
                handle.write(f"# scrape {self.scrapes} t={now:.3f}\n")
                handle.write(text)
        for sink in self._sinks:
            sink(text, now)

    def snapshot(self) -> Dict[str, Dict[LabelKey, float]]:
        """The registry's current samples (matches the last scrape after
        ``stop()``)."""
        return self.registry.snapshot()
