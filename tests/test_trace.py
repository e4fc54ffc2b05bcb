"""Tests for per-request span tracing (``repro.trace``).

Pins, end to end on real (tiny) runs:

* the Chrome trace-event export validates and JSON round-trips, with the
  expected process/stage vocabulary;
* :class:`LatencyAttribution` reconciles — every finished request's
  stage durations sum to its recorded TTFT / E2E — live and through the
  spans-JSONL round trip;
* the span-conservation invariant (``tests/invariants.py``) holds over
  serve *and* chaos (multicluster tier) trace output;
* tracing changes no result: a traced serve or chaos cell's whole result,
  run summary and fleet counters included, equals the untraced run's
  apart from its ``stage_breakdown``;
* the supporting metrics surface: ``HistogramFamily`` exposition, the
  ``trace_metrics_source`` sampler, and the ``repro.metrics.plot``
  scrape-stream renderer.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import ExperimentScale
from repro.metrics import (
    DEFAULT_BUCKETS,
    HistogramFamily,
    MetricsRegistry,
    trace_metrics_source,
)
from repro.metrics.plot import (
    digest,
    main as plot_main,
    parse_scrape_stream,
    render_ascii,
    render_svg,
)
from repro.chaos.grid import GRID as CHAOS_GRID
from repro.serve.grid import GRID as SERVE_GRID
from repro.sweeps.grid import materialise, run_cell
from repro.simulation.event_loop import EventLoop
from repro.trace import (
    DETAIL_NAMES,
    LatencyAttribution,
    REQUEST_TRACK,
    STAGE_ORDER,
    Span,
    TTFT_STAGES,
    Tracer,
    chrome_trace,
    read_spans_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.trace.spans import DETAIL_ITERATION, span_from_dict

from invariants import assert_span_conservation

pytestmark = pytest.mark.trace

TINY_SCALE = ExperimentScale(
    name="trace-tiny",
    num_instances=2,
    trace_duration_s=8.0,
    drain_timeout_s=12.0,
)

def serve_cell(clients="16", retry="backoff", backpressure="on"):
    return materialise(SERVE_GRID, {
        "scenario": "spike-train", "policy": "vllm", "clients": clients, "retry": retry,
        "backpressure": backpressure,
    }, TINY_SCALE, 42)


SERVE_CELL = serve_cell()
CHAOS_CELL = materialise(CHAOS_GRID, {
    "scenario": "steady-poisson", "policy": "vllm", "faults": "cluster-outage",
    "migration": "migrate",
}, TINY_SCALE, 42)


@pytest.fixture(scope="module")
def traced_serve():
    """One traced closed-loop serve cell, shared across the module."""
    tracers = []
    result = run_cell(SERVE_CELL, trace=True, on_tracer=tracers.append)
    return result, tracers[0]


@pytest.fixture(scope="module")
def traced_chaos():
    """One traced chaos cell (two-cluster tier, outage + migrate)."""
    tracers = []
    result = run_cell(CHAOS_CELL, trace=True, on_tracer=tracers.append)
    return result, tracers[0]


# ----------------------------------------------------------------------
# Recording: span trees off real runs
# ----------------------------------------------------------------------
class TestRecording:
    def test_serve_cell_records_span_tree(self, traced_serve):
        result, tracer = traced_serve
        assert tracer.requests_traced > 0
        assert tracer.requests_finished > 0
        assert tracer.requests_finished == result["finished"]
        spans = tracer.spans()
        roots = [s for s in spans if s.kind == "root"]
        stages = [s for s in spans if s.kind == "stage"]
        assert len(roots) == tracer.requests_traced
        assert {s.name for s in stages} <= set(STAGE_ORDER)
        assert {s.name for s in spans if s.kind == "detail"} <= set(DETAIL_NAMES)
        # Deterministic export order.
        assert spans == sorted(spans, key=lambda s: (s.start_s, s.end_s or 1e18))

    def test_finished_roots_carry_recorded_latencies(self, traced_serve):
        _, tracer = traced_serve
        finished = [
            s
            for s in tracer.spans()
            if s.kind == "root" and s.meta.get("status") == "finished"
        ]
        assert finished
        for root in finished:
            assert root.closed
            assert root.meta["e2e_s"] == pytest.approx(root.duration_s)
            assert 0.0 < root.meta["ttft_s"] <= root.meta["e2e_s"]

    def test_closed_loop_run_emits_route_and_retry_details(self, traced_serve):
        result, tracer = traced_serve
        details = {s.name for s in tracer.spans() if s.kind == "detail"}
        assert "route_decision" in details
        if result["retries"]:
            assert "retry_backoff" in details

    def test_iteration_spans_count_the_batch_decodes(self, monkeypatch):
        """An iteration span's ``decode_tokens`` is its batch's decode
        count, and its ``prefill_tokens`` the batch's prefill chunks."""
        seen = {}
        original = Tracer.on_iteration

        def recording(tracer, group, batch, start_s, end_s):
            prefill = sum(chunk.new_tokens for chunk in batch.chunks)
            seen[(group.trace_track, start_s, end_s)] = (batch.decode_count, prefill)
            return original(tracer, group, batch, start_s, end_s)

        monkeypatch.setattr(Tracer, "on_iteration", recording)
        tracers = []
        run_cell(SERVE_CELL, trace=True, on_tracer=tracers.append)
        recorded = {
            (span.track, span.start_s, span.end_s): (
                span.meta["decode_tokens"], span.meta["prefill_tokens"]
            )
            for span in tracers[0].spans()
            if span.name == DETAIL_ITERATION
        }
        assert recorded == seen
        assert sum(decodes for decodes, _ in seen.values()) > 0

    @pytest.mark.parametrize("traced", ["traced_serve", "traced_chaos"])
    def test_exported_cell_records_iteration_spans(self, traced, request):
        _, tracer = request.getfixturevalue(traced)
        assert tracer.details
        assert any(span.name == DETAIL_ITERATION for span in tracer.spans())

    @pytest.mark.parametrize("cell, traced", [
        (SERVE_CELL, "traced_serve"), (CHAOS_CELL, "traced_chaos"),
    ])
    def test_unexported_cell_records_no_detail_spans(self, cell, traced, request, monkeypatch):
        """Without ``on_tracer`` nothing can export a cell's spans: its
        tracer records no detail span, and the stage breakdown is the one
        the exporting run gives."""
        created = []
        original = Tracer.__init__

        def init(tracer, *args, **kwargs):
            original(tracer, *args, **kwargs)
            created.append(tracer)

        monkeypatch.setattr(Tracer, "__init__", init)
        result = run_cell(cell, trace=True)
        (tracer,) = created
        assert not tracer.details
        spans = tracer.spans()
        assert spans and all(span.kind != "detail" for span in spans)
        exported, _ = request.getfixturevalue(traced)
        assert result["stage_breakdown"] == exported["stage_breakdown"]
        assert result["stage_breakdown"]["requests"] > 0

    def test_open_loop_run_emits_gateway_pull_details(self):
        tracers = []
        run_cell(serve_cell("open", "none", "off"), trace=True, on_tracer=tracers.append)
        details = {s.name for s in tracers[0].spans() if s.kind == "detail"}
        assert "gateway_pull" in details

    def test_span_dict_round_trip(self):
        span = Span("prefill", "stage", 1.0, 2.5, 7, REQUEST_TRACK, {"k": 1})
        assert span_from_dict(span.to_dict()) == span
        assert span.duration_s == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Conservation + attribution (the tentpole acceptance criteria)
# ----------------------------------------------------------------------
class TestAttribution:
    def test_span_conservation_serve(self, traced_serve):
        _, tracer = traced_serve
        assert assert_span_conservation(tracer.spans()) > 0

    def test_span_conservation_chaos(self, traced_chaos):
        result, tracer = traced_chaos
        checked = assert_span_conservation(tracer.spans())
        assert checked == result["finished"] > 0

    def test_attribution_reconciles(self, traced_serve):
        _, tracer = traced_serve
        attribution = LatencyAttribution.from_tracer(tracer)
        assert attribution.reconcile() == []
        per_request = attribution.per_request()
        assert per_request
        for entry in per_request.values():
            ttft_sum = sum(entry.get(name, 0.0) for name in TTFT_STAGES)
            assert ttft_sum == pytest.approx(entry["ttft_s"], abs=1e-6)

    def test_attribution_reconciles_chaos(self, traced_chaos):
        _, tracer = traced_chaos
        assert LatencyAttribution.from_tracer(tracer).reconcile() == []

    def test_stage_breakdown_block(self, traced_serve):
        result, tracer = traced_serve
        breakdown = LatencyAttribution.from_tracer(tracer).stage_breakdown()
        assert result["stage_breakdown"] == breakdown
        assert breakdown["requests"] == breakdown["reconciled"] == result["finished"]
        assert breakdown["ttft_p50"] <= breakdown["ttft_p99"]
        assert set(breakdown["stages"]) <= set(STAGE_ORDER)
        for stats in breakdown["stages"].values():
            assert stats["count"] > 0
            assert stats["p50_s"] <= stats["p99_s"]

    def test_readout_without_detail_spans_keeps_the_export_order(
        self, traced_serve, traced_chaos
    ):
        for _, tracer in (traced_serve, traced_chaos):
            spans = tracer.spans()
            request_spans = tracer.request_spans()
            assert request_spans == [s for s in spans if s.kind != "detail"]
            assert len(request_spans) < len(spans)
            assert LatencyAttribution.from_tracer(tracer).stage_breakdown() == (
                LatencyAttribution(spans).stage_breakdown()
            )

    def test_jsonl_round_trip_preserves_attribution(self, traced_serve, tmp_path):
        _, tracer = traced_serve
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(tracer.spans(), path)
        spans = read_spans_jsonl(path)
        assert spans == tracer.spans()
        restored = LatencyAttribution.from_jsonl(path)
        assert restored.per_request() == (
            LatencyAttribution.from_tracer(tracer).per_request()
        )
        assert assert_span_conservation(
            [json.loads(line) for line in path.read_text().splitlines()]
        ) > 0


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_chrome_trace_validates_and_round_trips(self, traced_serve, tmp_path):
        _, tracer = traced_serve
        document = chrome_trace(tracer.spans())
        assert validate_chrome_trace(document) == []
        path = write_chrome_trace(tracer.spans(), tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded == json.loads(json.dumps(document, sort_keys=True))

    def test_chrome_trace_vocabulary(self, traced_serve):
        _, tracer = traced_serve
        events = chrome_trace(tracer.spans())["traceEvents"]
        processes = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert "requests" in processes
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "request" in names
        assert {"gateway_wait", "prefill", "decode"} <= names
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["cat"] in ("root", "stage", "detail")

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        bad = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
        assert any("dur" in p for p in validate_chrome_trace(bad))
        neg = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
            ]
        }
        assert any("negative" in p for p in validate_chrome_trace(neg))


# ----------------------------------------------------------------------
# Tracing changes no result
# ----------------------------------------------------------------------
class TestTracingChangesNoResult:
    @pytest.mark.parametrize("exported", [False, True], ids=["stages", "details"])
    @pytest.mark.parametrize("cell", [SERVE_CELL, CHAOS_CELL], ids=["serve", "chaos"])
    def test_traced_cell_equals_the_untraced_run(self, cell, exported):
        untraced = run_cell(cell)
        tracers = []
        traced = run_cell(cell, trace=True, on_tracer=tracers.append if exported else None)
        assert traced.pop("stage_breakdown")
        if exported:
            assert any(span.kind == "detail" for span in tracers[0].spans())
        untraced.pop("wall_s"), traced.pop("wall_s")
        # The whole run summary and fleet or tier counters, not only the
        # entry fields.
        assert {"summary", "stats"} <= set(traced)
        assert traced == untraced


# ----------------------------------------------------------------------
# Metrics surface: histograms, the tracer sampler, the plot renderer
# ----------------------------------------------------------------------
class TestMetricsSurface:
    def test_histogram_family_exposition(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "repro_stage_duration_seconds", "stage durations", buckets=(0.1, 1.0)
        )
        family.observe(0.05, stage="prefill")
        family.observe(0.5, stage="prefill")
        family.observe(5.0, stage="prefill")
        lines = family.render()
        assert "# TYPE repro_stage_duration_seconds histogram" in lines
        assert (
            'repro_stage_duration_seconds_bucket{stage="prefill",le="0.1"} 1'
            in lines
        )
        assert (
            'repro_stage_duration_seconds_bucket{stage="prefill",le="1"} 2'
            in lines
        )
        assert (
            'repro_stage_duration_seconds_bucket{stage="prefill",le="+Inf"} 3'
            in lines
        )
        assert 'repro_stage_duration_seconds_count{stage="prefill"} 3' in lines
        total = 0.05 + 0.5 + 5.0
        assert any(
            line.startswith("repro_stage_duration_seconds_sum")
            and float(line.rsplit(" ", 1)[1]) == pytest.approx(total)
            for line in lines
        )
        # Same name must come back as the same family; other types error.
        assert registry.histogram("repro_stage_duration_seconds") is family
        with pytest.raises(ValueError):
            registry.counter("repro_stage_duration_seconds")
        with pytest.raises(ValueError):
            HistogramFamily("h", "", buckets=(1.0, 1.0))
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_trace_metrics_source_streams_closed_stages(self):
        tracer = Tracer(EventLoop())
        tracer.closed_stage_spans.append(Span("prefill", "stage", 0.0, 0.3, 1))
        registry = MetricsRegistry()
        source = trace_metrics_source(tracer, buckets=(0.1, 1.0))
        source(registry, 1.0)
        rendered = registry.expose()
        assert 'stage="prefill",le="1"} 1' in rendered
        # Cursor semantics: re-sampling without new spans observes nothing.
        source(registry, 2.0)
        assert 'repro_stage_duration_seconds_count{stage="prefill"} 1' in (
            registry.expose()
        )
        tracer.closed_stage_spans.append(Span("decode", "stage", 0.3, 0.9, 1))
        source(registry, 3.0)
        assert 'stage="decode"' in registry.expose()

    def test_plot_parses_and_renders_scrape_stream(self, tmp_path, capsys):
        stream = (
            "# scrape 0 t=1.000\n"
            "# HELP repro_queue_depth Requests queued\n"
            "# TYPE repro_queue_depth gauge\n"
            'repro_queue_depth{cluster="0"} 2 1000\n'
            "# scrape 1 t=2.000\n"
            'repro_queue_depth{cluster="0"} 5 2000\n'
            "repro_finished_total 7\n"
        )
        series = parse_scrape_stream(stream)
        assert series['repro_queue_depth{cluster="0"}'] == [(1.0, 2.0), (2.0, 5.0)]
        assert series["repro_finished_total"] == [(2.0, 7.0)]
        summary = digest(series)
        assert summary["num_series"] == 2
        assert summary["t_start_s"] == 1.0 and summary["t_end_s"] == 2.0
        assert summary["series"]['repro_queue_depth{cluster="0"}']["max"] == 5.0
        ascii_out = render_ascii(series)
        assert 'repro_queue_depth{cluster="0"}' in ascii_out
        assert "min=2 max=5" in ascii_out
        svg = render_svg(series)
        assert svg.startswith("<svg") and "polyline" in svg

        path = tmp_path / "metrics.prom"
        path.write_text(stream)
        out = tmp_path / "digest.json"
        assert plot_main([str(path), "--format", "json", "--output", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert loaded["num_series"] == 2
        assert plot_main([str(path), "--select", "queue_depth"]) == 0
        stdout = capsys.readouterr().out
        assert "repro_queue_depth" in stdout
        assert "repro_finished_total" not in stdout


class TestPlotFaultOverlay:
    """``--faults`` overlay: chaos fault windows shaded into the plot."""

    STREAM = (
        "# scrape 1 t=0.000\n"
        "repro_queue_depth 1\n"
        "# scrape 2 t=100.000\n"
        "repro_queue_depth 4\n"
    )

    def test_fault_windows_from_schedule(self):
        from repro.chaos.config import FaultEvent, FaultSchedule
        from repro.metrics.plot import fault_windows

        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="instance_kill", at_s=10.0, cluster=1, instance=0),
                FaultEvent(kind="cluster_outage", at_s=25.0, cluster=0),
                FaultEvent(kind="wan_degrade", at_s=30.0, duration_s=20.0),
                FaultEvent(kind="wan_degrade", at_s=60.0),  # until stream end
            ),
            name="mixed",
        )
        windows = fault_windows(schedule, t_end_s=100.0)
        assert windows == [
            {"kind": "instance_kill", "target": "cluster1/inst0",
             "t_start_s": 10.0, "t_end_s": 10.0},
            {"kind": "cluster_outage", "target": "cluster0",
             "t_start_s": 25.0, "t_end_s": 100.0},
            {"kind": "wan_degrade", "target": "wan",
             "t_start_s": 30.0, "t_end_s": 50.0},
            {"kind": "wan_degrade", "target": "wan",
             "t_start_s": 60.0, "t_end_s": 100.0},
        ]

    def test_digest_and_svg_carry_the_overlay(self, tmp_path):
        from repro.metrics.plot import (
            digest,
            main as plot_cli,
            parse_scrape_stream,
            render_svg,
        )

        series = parse_scrape_stream(self.STREAM)
        windows = [{"kind": "cluster_outage", "target": "cluster0",
                    "t_start_s": 25.0, "t_end_s": 100.0}]
        summary = digest(series, windows)
        assert summary["fault_windows"] == windows
        # Without an overlay the digest keeps its pre-overlay shape, so
        # recorded digests stay bit-identical.
        assert "fault_windows" not in digest(series)
        svg = render_svg(series, fault_windows=windows)
        assert svg.count('class="fault"') == 1
        assert "cluster_outage" in svg
        assert 'class="fault"' not in render_svg(series)

        # End-to-end through the CLI: materialise the preset against the
        # stream's time range and embed it in the JSON digest.
        path = tmp_path / "m.prom"
        path.write_text(self.STREAM)
        out = tmp_path / "digest.json"
        assert plot_cli(
            [str(path), "--format", "json", "--faults", "cluster-outage",
             "--output", str(out)]
        ) == 0
        loaded = json.loads(out.read_text())
        # The preset strikes at 25% of the stream span and never ends.
        assert loaded["fault_windows"] == [
            {"kind": "cluster_outage", "target": "cluster0",
             "t_start_s": 25.0, "t_end_s": 100.0}
        ]
        assert plot_cli([str(path), "--faults", "not-a-preset"]) == 2
