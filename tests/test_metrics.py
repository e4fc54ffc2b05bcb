"""Tests for the live-observability layer (``repro.metrics``).

Covers the Prometheus text-exposition primitives (value formatting,
label escaping, counter monotonicity, the registry's get-or-create and
type-conflict contracts), the :class:`MetricsMonitor` streaming
lifecycle and its typed series against its own file stream, and the
canonical samplers end-to-end on real runs — all
validated through a minimal Prometheus text-format parser fixture
(:func:`parse_scrape`), so what we assert on is what a real scraper
would read, not the renderer's internals.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.cluster.specs import cluster_a_spec
from repro.experiments.runner import ExperimentScale
from repro.metrics import (
    CounterFamily,
    GaugeFamily,
    MetricsMonitor,
    MetricsRegistry,
    escape_label_value,
    format_value,
)
from repro.multicluster import make_multicluster_config
from repro.multicluster.system import MultiClusterSystem
from repro.policies import make_policy
from repro.scenarios.registry import get_scenario
from repro.sweeps.grid import build_cell_config
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem
from repro.simulation.event_loop import EventLoop

TINY_SCALE = ExperimentScale(
    name="metrics-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=10.0,
)

# ----------------------------------------------------------------------
# Minimal Prometheus text-format (0.0.4) parser fixture
# ----------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    if text == "NaN":
        return float("nan")
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_scrape(text: str):
    """Parse one exposition into ``(types, helps, samples)``.

    ``samples`` maps ``(name, ((label, value), ...))`` to
    ``(value, timestamp_ms)`` — the same label-key shape the registry's
    ``snapshot()`` uses, so the two are directly comparable.
    """
    types, helps, samples = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, metric_type = line.split(" ", 3)
            types[name] = metric_type
        elif line.startswith("# HELP "):
            _, _, name, help_text = line.split(" ", 3)
            helps[name] = help_text
        elif not line or line.startswith("#"):
            continue
        else:
            match = _SAMPLE_LINE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            labels = tuple(
                (name, value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\"))
                for name, value in _LABEL_PAIR.findall(match["labels"] or "")
            )
            timestamp = int(match["ts"]) if match["ts"] is not None else None
            samples[(match["name"], labels)] = (_parse_value(match["value"]), timestamp)
    return types, helps, samples


def split_scrapes(stream: str):
    """Split a monitor file stream back into (sim_time_s, scrape_text)."""
    scrapes = []
    for chunk in re.split(r"^# scrape \d+ t=([\d.]+)\n", stream, flags=re.M)[1:]:
        if not scrapes or len(scrapes[-1]) == 2:
            scrapes.append([float(chunk)])
        else:
            scrapes[-1].append(chunk)
    return [(t, text) for t, text in scrapes]


class TestFormatting:
    def test_format_value_canonical_forms(self):
        assert format_value(3.0) == "3"
        assert format_value(-2.0) == "-2"
        assert format_value(0.5) == "0.5"
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert float(format_value(1e16)) == 1e16  # big ints stay exact

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_invalid_metric_names_are_rejected(self):
        for bad in ("", "9starts_with_digit", "has-dash", "has space"):
            with pytest.raises(ValueError):
                CounterFamily(bad, "nope")


class TestFamilies:
    def test_counter_inc_accumulates_and_rejects_negative(self):
        counter = CounterFamily("c_total", "help")
        counter.inc(2.0, cluster="0")
        counter.inc(3.0, cluster="0")
        assert counter.value(cluster="0") == 5.0
        assert counter.value(cluster="1") == 0.0  # never set
        with pytest.raises(ValueError):
            counter.inc(-1.0, cluster="0")

    def test_counter_set_total_enforces_monotonicity(self):
        counter = CounterFamily("c_total", "help")
        counter.set_total(10.0)
        counter.set_total(10.0)  # equal is fine
        counter.set_total(11.0)
        with pytest.raises(ValueError):
            counter.set_total(9.0)
        assert counter.value() == 11.0

    def test_gauge_goes_up_and_down(self):
        gauge = GaugeFamily("g", "help")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value() == 2.0

    def test_render_sorts_labels_and_stamps_timestamps(self):
        gauge = GaugeFamily("g", "queue depth")
        gauge.set(1.0, cluster="1", zone="b")
        gauge.set(2.0, cluster="0", zone="a")
        lines = gauge.render(timestamp_ms=1500)
        assert lines[0] == "# HELP g queue depth"
        assert lines[1] == "# TYPE g gauge"
        # Samples sorted by label set, each stamped.
        assert lines[2] == 'g{cluster="0",zone="a"} 2 1500'
        assert lines[3] == 'g{cluster="1",zone="b"} 1 1500'


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        assert registry.counter("c_total") is first

    def test_type_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", "as counter")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_empty_registry_exposes_nothing(self):
        assert MetricsRegistry().expose() == ""

    def test_exposition_round_trips_through_the_parser(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests").set_total(7.0, cluster="0")
        registry.gauge("depth", "queue").set(2.5, cluster="0")
        registry.gauge("ratio", "odd values").set(float("nan"))
        types, helps, samples = parse_scrape(registry.expose(timestamp_ms=2000))
        assert types == {"req_total": "counter", "depth": "gauge", "ratio": "gauge"}
        assert helps["req_total"] == "requests"
        assert samples[("req_total", (("cluster", "0"),))] == (7.0, 2000)
        assert samples[("depth", (("cluster", "0"),))] == (2.5, 2000)
        value, _ = samples[("ratio", ())]
        assert math.isnan(value)

    def test_snapshot_matches_parsed_exposition(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3.0, cluster="1")
        registry.gauge("g").set(4.0)
        _, _, samples = parse_scrape(registry.expose())
        flat = {
            (name, key): value
            for name, by_key in registry.snapshot().items()
            for key, value in by_key.items()
        }
        assert flat == {key: value for key, (value, _) in samples.items()}


class TestMonitor:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsMonitor(EventLoop(), interval_s=0.0)

    @staticmethod
    def run_monitored(tmp_path, until: float = 5.0, interval_s: float = 1.0):
        """A monitor sampling a fake simulator counter that tracks sim time."""
        loop = EventLoop()
        monitor = MetricsMonitor(
            loop, interval_s=interval_s, path=tmp_path / "stream.prom"
        )

        def source(registry, now):
            registry.counter("sim_events_total", "cumulative").set_total(now * 10)
            registry.gauge("sim_clock_s", "now").set(now)

        monitor.add_source(source)
        collected = []
        monitor.add_sink(lambda text, now: collected.append((now, text)))
        monitor.start()
        loop.run(until=until)
        monitor.stop()
        return monitor, collected

    def test_file_stream_splits_back_into_scrapes(self, tmp_path):
        monitor, collected = self.run_monitored(tmp_path)
        scrapes = split_scrapes((tmp_path / "stream.prom").read_text())
        assert len(scrapes) == monitor.scrapes == len(collected)
        assert monitor.scrapes >= 5
        # File and callback sinks observed the same stream.
        assert [t for t, _ in scrapes] == [t for t, _ in collected]

    def test_counters_are_monotone_and_timestamps_increase(self, tmp_path):
        _, collected = self.run_monitored(tmp_path)
        last_total, last_ts = -1.0, -1
        for _, text in collected:
            _, _, samples = parse_scrape(text)
            total, timestamp = samples[("sim_events_total", ())]
            assert total >= last_total and timestamp >= last_ts
            last_total, last_ts = total, timestamp

    def test_stop_emits_a_final_scrape_matching_the_snapshot(self, tmp_path):
        monitor, collected = self.run_monitored(tmp_path)
        _, final_text = collected[-1]
        _, _, samples = parse_scrape(final_text)
        flat = {
            (name, key): value
            for name, by_key in monitor.snapshot().items()
            for key, value in by_key.items()
        }
        assert flat == {key: value for key, (value, _) in samples.items()}
        # The final scrape is the end state: the clock gauge reads the horizon.
        assert flat[("sim_clock_s", ())] == pytest.approx(5.0)


class TestTypedSeries:
    """The monitor's typed series are what a reader parses back from its
    own file stream, so alerts evaluated in memory see the same samples
    as an offline replay of ``--metrics-out``."""

    #: Values whose text forms are special: a signed zero (printed ``0``),
    #: the first float printed in ``repr`` form, the largest exactly
    #: representable integer, infinity and NaN.
    ODD_VALUES = (-0.0, 1e15, 2.0 ** 53, float("inf"), float("nan"), 0.1, -3.0)

    def run_hand_built(self, tmp_path, *, path=True):
        loop = EventLoop()
        monitor = MetricsMonitor(
            loop, interval_s=0.37, path=tmp_path / "typed.prom" if path else None
        )
        seen = []

        def source(registry, now):
            tick = len(seen)
            seen.append(now)
            registry.counter("events_total", "cumulative").set_total(tick * 7.0)
            gauge = registry.gauge("odd_values", "values with special text forms")
            gauge.set(self.ODD_VALUES[tick % len(self.ODD_VALUES)], zone='a"b', path="c:\\d")
            gauge.set(now, zone="line\nbreak", path="")
            gauge.set(-now, zone="a b", path="x")
            # "cluster" < "le" < "stage": ``le`` still comes after both.
            registry.histogram("lat_seconds", "latency", buckets=(0.5, 2.0)).observe(
                now, stage="prefill", cluster="0"
            )

        monitor.add_source(source)
        monitor.start()
        loop.run(until=4.0)
        monitor.stop()
        return monitor, seen

    def test_series_equal_the_parsed_file_stream(self, tmp_path):
        from repro.metrics.plot import parse_scrape_stream

        monitor, _ = self.run_hand_built(tmp_path)
        text = (tmp_path / "typed.prom").read_text()
        assert 'le="0.5"} ' in text and 'lat_seconds_bucket{cluster="0",stage="prefill",le=' in text
        assert 'zone="a\\"b"' in text and 'zone="line\\nbreak"' in text
        parsed = parse_scrape_stream(text)
        assert list(monitor.series) == list(parsed)
        for name, points in parsed.items():
            typed = monitor.series[name]
            assert [t for t, _ in typed] == [t for t, _ in points]
            for (_, value), (_, expected) in zip(typed, points):
                if math.isnan(expected):
                    assert math.isnan(value)
                else:
                    # ``==`` cannot tell 0.0 from -0.0; the sign must match too.
                    assert value == expected
                    assert math.copysign(1.0, value) == math.copysign(1.0, expected)
        odd = [v for _, v in monitor.series['odd_values{path="c:\\\\d",zone="a\\"b"}']]
        assert odd[: len(self.ODD_VALUES)].count(1e15) == 1 and math.isnan(odd[4])

    #: Characters ``str.splitlines`` and universal newlines break lines
    #: at; the exposition escapes only ``\n``, so a label value keeps them.
    LINE_SEPARATORS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

    @pytest.mark.parametrize("separator", LINE_SEPARATORS, ids=ascii)
    def test_label_values_with_line_separators_survive_the_file(
        self, separator, tmp_path, monkeypatch
    ):
        from repro.metrics.plot import read_scrape_stream
        from repro.obs import __main__ as obs_cli
        from repro.obs.engine import AlertEngine

        loop = EventLoop()
        path = tmp_path / f"sep-{ord(separator):x}.prom"
        monitor = MetricsMonitor(loop, interval_s=0.5, path=path)

        def source(registry, now):
            gauge = registry.gauge("queue_depth", "depth")
            gauge.set(now, zone=f"a{separator}b")
            gauge.set(-now, zone=f"{separator}", path=f"x{separator}")

        monitor.add_source(source)
        monitor.start()
        loop.run(until=2.0)
        monitor.stop()
        assert separator in path.read_bytes().decode()
        assert len(monitor.series) == 2
        assert read_scrape_stream(path) == monitor.series

        replayed = []
        evaluate = AlertEngine.evaluate
        monkeypatch.setattr(
            AlertEngine, "evaluate", lambda engine, series: replayed.append(series) or evaluate(engine, series)
        )
        assert obs_cli.main(["alerts", str(path), "--output", str(tmp_path / "alerts.txt")]) == 0
        assert replayed == [monitor.series]

    def test_point_times_are_the_millisecond_stamps(self, tmp_path):
        monitor, seen = self.run_hand_built(tmp_path)
        assert len(seen) == monitor.scrapes
        expected = [int(round(now * 1000)) / 1000 for now in seen]
        assert [t for t, _ in monitor.series["events_total"]] == expected
        assert any(t != now for t, now in zip(expected, seen))  # the stamps round

    def test_no_text_is_rendered_without_a_file_or_text_sink(self, tmp_path, monkeypatch):
        rendered = []
        expose = MetricsRegistry.expose
        monkeypatch.setattr(
            MetricsRegistry, "expose", lambda self, *a, **k: rendered.append(1) or expose(self, *a, **k)
        )
        in_memory, _ = self.run_hand_built(tmp_path, path=False)
        assert rendered == [] and in_memory.scrapes > 0
        with_file, _ = self.run_hand_built(tmp_path)
        assert len(rendered) == with_file.scrapes
        assert in_memory.series.keys() == with_file.series.keys()


class TestSystemSources:
    def test_single_cluster_run_streams_consistent_scrapes(self, tmp_path):
        spec = get_scenario("steady-poisson")
        config = ServingConfig(cluster=cluster_a_spec(num_servers=2), drain_timeout_s=10.0)
        system = ClusterServingSystem(config, make_policy("vllm"))
        monitor = system.attach_metrics(path=tmp_path / "cluster.prom")
        result = system.run(spec.build_workload(TINY_SCALE, 1))

        scrapes = split_scrapes((tmp_path / "cluster.prom").read_text())
        assert len(scrapes) == monitor.scrapes >= 5
        submitted_key = ("repro_requests_submitted_total", (("cluster", "0"),))
        finished_key = ("repro_requests_finished_total", (("cluster", "0"),))
        last = {submitted_key: -1.0, finished_key: -1.0}
        for _, text in scrapes:
            types, _, samples = parse_scrape(text)
            assert types["repro_requests_submitted_total"] == "counter"
            assert types["repro_queue_depth"] == "gauge"
            for key in last:
                value, _ = samples[key]
                assert value >= last[key]  # counters never go backwards
                last[key] = value
        # The final scrape agrees with the run result.
        assert last[submitted_key] == float(result.submitted_requests)
        assert last[finished_key] == float(result.finished_requests)

    @pytest.mark.chaos
    def test_tier_scrapes_expose_the_outage_and_migration_outcome(self, tmp_path):
        from repro.chaos.config import fault_schedule_preset

        spec = get_scenario("steady-poisson")
        # Generous drain: the final scrape should show recovery *finished*
        # (displaced_pending back to zero), not still in flight.
        scale = ExperimentScale(
            name="metrics-chaos", num_instances=2,
            trace_duration_s=5.0, drain_timeout_s=60.0,
        )
        config = build_cell_config(spec, scale, seed=3)
        config.multicluster = make_multicluster_config(
            num_clusters=2,
            global_router="locality_affinity",
            session_migration="migrate",
        )
        config.chaos = fault_schedule_preset(
            "cluster-outage", duration_s=scale.trace_duration_s, num_clusters=2,
            instances_per_cluster=scale.num_instances, seed=3,
        )
        system = MultiClusterSystem(config, lambda: make_policy("vllm"))
        monitor = system.attach_metrics(path=tmp_path / "tier.prom")
        system.run(spec.build_workload(scale, 3))

        scrapes = split_scrapes((tmp_path / "tier.prom").read_text())
        assert len(scrapes) == monitor.scrapes > 0
        alive0 = ("repro_cluster_alive", (("cluster", "0"),))
        outage_cluster = config.chaos.events[0].cluster
        seen_alive = set()
        for _, text in scrapes:
            _, _, samples = parse_scrape(text)
            if ("repro_cluster_alive", (("cluster", str(outage_cluster)),)) in samples:
                seen_alive.add(samples[("repro_cluster_alive", (("cluster", str(outage_cluster)),))][0])
        assert seen_alive == {0.0, 1.0}  # up before the outage, down after

        _, _, final = parse_scrape(scrapes[-1][1])
        assert final[("repro_faults_total", ())][0] == 1.0
        assert final[("repro_requests_lost_total", ())][0] == 0.0  # migrate
        assert final[("repro_displaced_pending", ())][0] == 0.0  # all recovered
        assert final[("repro_cross_cluster_bytes_total", ())][0] > 0.0
        assert final[alive0][0] == 0.0  # the preset outage targets cluster 0


class TestScrapeReplayEdgeCases:
    """Replay-path edge cases: the offline parser and the alert engine
    must degrade gracefully on streams a healthy run never produces —
    empty files, series with one sample, and samples whose explicit
    timestamps arrive out of order (a replayed stream stitched from two
    recordings, or a counter reset mid-file)."""

    def test_empty_scrape_stream(self):
        from repro.metrics.plot import digest, parse_scrape_stream, render_ascii, render_svg
        from repro.obs import AlertEngine, evaluate_monitor_chunks, validate_alerts_block

        series = parse_scrape_stream("")
        assert series == {}
        summary = digest(series)
        assert summary["num_series"] == 0
        assert summary["t_start_s"] == 0.0 and summary["t_end_s"] == 0.0
        assert render_ascii(series) == "(empty scrape stream)\n"
        assert render_svg(series).startswith("<svg")
        assert AlertEngine().evaluate(series) == []
        assert validate_alerts_block(evaluate_monitor_chunks([])) == []
        # Marker-only streams (a monitor that never sampled) are empty too.
        assert parse_scrape_stream("# scrape 1 t=0.000\n") == {}

    def test_single_sample_series(self):
        from repro.metrics.plot import digest, parse_scrape_stream, render_svg, sparkline
        from repro.obs import AlertEngine, RateOfChangeRule, ThresholdRule

        series = parse_scrape_stream("# scrape 1 t=2.000\ngauge 7\n")
        assert series == {"gauge": [(2.0, 7.0)]}
        summary = digest(series)
        assert summary["series"]["gauge"] == {
            "points": 1, "first": 7.0, "last": 7.0, "min": 7.0, "max": 7.0,
        }
        assert summary["t_start_s"] == summary["t_end_s"] == 2.0
        assert len(sparkline([7.0])) == 1
        assert "polyline" in render_svg(series)  # degenerate point still renders
        # Span is zero, so the hold window collapses: an instant rule
        # fires on the lone sample, a rate rule has no elapsed time.
        instant = ThresholdRule(name="hot", metric="gauge", threshold=5.0)
        events = AlertEngine([instant]).evaluate(series)
        assert [(e["state"], e["t_s"]) for e in events] == [("firing", 2.0)]
        rate = RateOfChangeRule(name="r", metric="gauge", threshold_per_s=1.0)
        assert AlertEngine([rate]).evaluate(series) == []

    def test_out_of_order_timestamps(self):
        from repro.metrics.plot import parse_scrape_stream
        from repro.obs import AlertEngine, ThresholdRule
        from repro.obs.engine import _prepare, _value_at

        # Explicit sample timestamps (ms) win over marker time and arrive
        # out of order; the parser preserves file order ...
        stream = (
            "# scrape 1 t=0.000\n"
            "gauge 9 3000\n"
            "# scrape 2 t=1.000\n"
            "gauge 1 1000\n"
        )
        series = parse_scrape_stream(stream)
        assert series["gauge"] == [(3.0, 9.0), (1.0, 1.0)]
        # ... and the engine sorts by time before evaluating, so the
        # timeline is the chronological one: below threshold at t=1,
        # breaching at t=3.
        ordered = _prepare(series["gauge"])
        assert ordered == [(1.0, 1.0), (3.0, 9.0)]
        assert _value_at(ordered, 2.0) == 1.0
        assert _value_at(ordered, 0.5) == 1.0  # before-start: first value
        rule = ThresholdRule(name="hot", metric="gauge", threshold=5.0)
        events = AlertEngine([rule]).evaluate(series)
        assert [(e["state"], e["t_s"]) for e in events] == [("firing", 3.0)]
