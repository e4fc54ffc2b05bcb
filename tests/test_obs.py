"""Tests for the observability layer (``repro.obs``).

Covers the declarative alert rules (validation, JSON round-trip), the
alert engine over synthetic series (threshold hold semantics, multi-window
burn rate, rate-of-change, timeline ordering and the stable ``alerts``
block schema), the byte-exact reconstruction of the ``--metrics-out``
stream from text-sink chunks, in-sweep alerts over typed samples against
an offline replay of the same cell's ``--metrics-out`` file, the
per-task resource profiler (block schema, cache roll-up, anomaly
flagging), the differential doctor (cell joins, wall-clock stripping,
stage-level attribution), and the ``python -m repro.obs`` CLI with
``scripts/obs_smoke.py``.

The ISSUE acceptance criteria are pinned here:

* alert timelines are **bit-identical** across reruns and worker counts
  for a fixed grid + seed;
* on the chaos outage grid the ``recovery_transient`` rule fires under
  ``sticky`` session policy but **not** under ``migrate``;
* a document diffed against itself reports **zero** findings;
* a traced serve pair run at two scales attributes at least one
  latency regression to a pipeline stage.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from repro.experiments.runner import ExperimentScale
from repro.obs import (
    ALERT_EVENT_KEYS,
    ALERTS_BLOCK_KEYS,
    AlertEngine,
    BurnRateRule,
    PROFILE_BLOCK_KEYS,
    RateOfChangeRule,
    TaskProfiler,
    ThresholdRule,
    alerts_block,
    collect_profiles,
    default_rule_pack,
    diff_documents,
    evaluate_monitor_chunks,
    flag_anomalies,
    format_diff_report,
    format_profile_report,
    format_timeline,
    rank_cells,
    rule_dict,
    scrape_stream_text,
    strip_profiles,
    validate_alerts_block,
    validate_profile_block,
)
from repro.obs.__main__ import main as obs_main
from repro.metrics.plot import parse_scrape_stream
from repro.chaos.grid import GRID as CHAOS_GRID
from repro.serve.grid import GRID as SERVE_GRID
from repro.sweeps.grid import cell_task, grid_cells, materialise, run_cell, run_grid

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Chaos cells at this scale finish in well under a second each; the
#: outage preset strikes at 1.25 s and the long drain lets the recovery
#: transient dominate the horizon — the regime the ``recovery_transient``
#: rule is tuned for.
TINY_CHAOS_SCALE = ExperimentScale(
    name="obs-chaos-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=60.0,
)


def outage_cell(migration: str):
    return materialise(CHAOS_GRID, {
        "scenario": "steady-poisson", "policy": "vllm", "faults": "cluster-outage",
        "migration": migration,
    }, TINY_CHAOS_SCALE, 3)


def synthetic_stream(samples):
    """A scrape stream from ``[(t, {series: value, ...}), ...]``."""
    parts = []
    for index, (t, values) in enumerate(samples, start=1):
        parts.append(f"# scrape {index} t={t:.3f}\n")
        for name, value in values.items():
            parts.append(f"{name} {value}\n")
    return "".join(parts)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class TestRules:
    def test_threshold_rule_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule(name="x", metric="m", threshold=1.0, op="~=")
        with pytest.raises(ValueError):
            ThresholdRule(name="x", metric="m", threshold=1.0, for_s=-1.0)
        with pytest.raises(ValueError):
            ThresholdRule(name="x", metric="m", threshold=1.0, for_fraction=1.5)

    def test_threshold_rule_operators(self):
        assert ThresholdRule(name="x", metric="m", threshold=2.0, op=">").breaches(3.0)
        assert not ThresholdRule(name="x", metric="m", threshold=2.0, op=">").breaches(2.0)
        assert ThresholdRule(name="x", metric="m", threshold=2.0, op=">=").breaches(2.0)
        assert ThresholdRule(name="x", metric="m", threshold=2.0, op="<").breaches(1.0)
        assert ThresholdRule(name="x", metric="m", threshold=2.0, op="<=").breaches(2.0)

    def test_burn_rate_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(name="x", numerator="a", denominator="b", objective=1.0)
        with pytest.raises(ValueError):
            BurnRateRule(name="x", numerator="a", denominator="b", burn_threshold=0.0)
        with pytest.raises(ValueError):
            BurnRateRule(
                name="x", numerator="a", denominator="b",
                short_window_s=30.0, long_window_s=5.0,
            )

    def test_rate_rule_validation(self):
        with pytest.raises(ValueError):
            RateOfChangeRule(name="x", metric="m", threshold_per_s=0.0)
        with pytest.raises(ValueError):
            RateOfChangeRule(name="x", metric="m", threshold_per_s=1.0, window_s=0.0)

    def test_rule_dict_tags_type_and_is_jsonable(self):
        for rule in default_rule_pack():
            payload = rule_dict(rule)
            assert payload["type"] == type(rule).__name__
            assert payload["name"] == rule.name
            json.dumps(payload)

    def test_default_pack_names_are_unique_and_stable(self):
        names = [rule.name for rule in default_rule_pack()]
        assert names == [
            "ttft_p99_breach",
            "shed_rate_spike",
            "recovery_transient",
            "wan_saturation",
        ]

    def test_engine_rejects_duplicate_rule_names(self):
        rule = ThresholdRule(name="dup", metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            AlertEngine([rule, rule])


# ----------------------------------------------------------------------
# Engine over synthetic series
# ----------------------------------------------------------------------
class TestAlertEngine:
    def test_stream_text_reconstruction_matches_file_sink_bytes(self):
        chunks = [("metric_a 1\n", 0.5), ("metric_a 2\n", 1.5)]
        text = scrape_stream_text(chunks)
        assert text == (
            "# scrape 1 t=0.500\nmetric_a 1\n# scrape 2 t=1.500\nmetric_a 2\n"
        )
        series = parse_scrape_stream(text)
        assert series["metric_a"] == [(0.5, 1.0), (1.5, 2.0)]

    def test_threshold_fires_after_hold_and_resolves(self):
        rule = ThresholdRule(name="hot", metric="gauge", threshold=5.0, for_s=2.0)
        stream = synthetic_stream(
            [(t, {"gauge": v}) for t, v in
             [(0, 1), (1, 9), (2, 9), (3, 9), (4, 2), (5, 9)]]
        )
        events = AlertEngine([rule]).evaluate_stream_text(stream)
        # Breach begins at t=1, holds 2 s -> fires at t=3; resolves at t=4.
        # The t=5 breach never satisfies the hold again within the stream.
        assert [(e["state"], e["t_s"]) for e in events] == [
            ("firing", 3.0),
            ("resolved", 4.0),
        ]
        assert events[0]["since_s"] == 1.0
        assert events[0]["rule"] == "hot"
        assert events[0]["value"] == 9.0

    def test_threshold_evaluates_per_labelled_series(self):
        rule = ThresholdRule(name="hot", metric="gauge", threshold=5.0)
        stream = synthetic_stream(
            [(0, {'gauge{cluster="0"}': 9, 'gauge{cluster="1"}': 1})]
        )
        events = AlertEngine([rule]).evaluate_stream_text(stream)
        assert [e["series"] for e in events] == ['gauge{cluster="0"}']

    def test_burn_rate_needs_both_windows(self):
        rule = BurnRateRule(
            name="burn", numerator="bad_total", denominator="all_total",
            objective=0.9, burn_threshold=2.0, short_window_s=2.0, long_window_s=8.0,
        )
        # 50% of arrivals bad from t=4 on: burn = 0.5/0.1 = 5x on the
        # short window immediately, but the long window needs time to
        # accumulate; the rule fires only once both breach.
        samples = []
        bad = all_ = 0
        for t in range(0, 12):
            all_ += 10
            if t >= 4:
                bad += 5
            samples.append((float(t), {"bad_total": bad, "all_total": all_}))
        events = AlertEngine([rule]).evaluate_stream_text(synthetic_stream(samples))
        assert events and events[0]["state"] == "firing"
        assert events[0]["t_s"] > 4.0  # not on the first bad sample

    def test_rate_of_change_fires_and_resolves(self):
        rule = RateOfChangeRule(
            name="spike", metric="bytes_total", threshold_per_s=100.0, window_s=2.0
        )
        samples = [
            (0.0, {"bytes_total": 0}),
            (1.0, {"bytes_total": 500}),   # 500 B/s
            (2.0, {"bytes_total": 1000}),  # still hot
            (3.0, {"bytes_total": 1010}),  # window still spans the burst
            (4.0, {"bytes_total": 1015}),  # cooled: window is post-burst
        ]
        events = AlertEngine([rule]).evaluate_stream_text(synthetic_stream(samples))
        assert [(e["state"], e["t_s"]) for e in events] == [
            ("firing", 1.0),
            ("resolved", 4.0),
        ]

    def test_empty_stream_yields_empty_timeline(self):
        assert AlertEngine().evaluate_stream_text("") == []
        block = evaluate_monitor_chunks([])
        assert validate_alerts_block(block) == []
        assert block["events"] == [] and block["active_at_end"] == []

    def test_alerts_block_schema_and_validation(self):
        rule = ThresholdRule(name="hot", metric="gauge", threshold=5.0)
        engine = AlertEngine([rule])
        events = engine.evaluate_stream_text(
            synthetic_stream([(0, {"gauge": 9}), (1, {"gauge": 1})])
        )
        block = alerts_block(events, engine.rules)
        assert tuple(block) == ALERTS_BLOCK_KEYS
        assert block["rules"] == ["hot"]
        assert block["firing"] == 1 and block["resolved"] == 1
        assert block["active_at_end"] == []
        assert validate_alerts_block(block) == []
        for key in ALERT_EVENT_KEYS:
            assert key in block["events"][0]
        # The validator catches tampering.
        broken = json.loads(json.dumps(block))
        broken["firing"] = 99
        del broken["events"][0]["since_s"]
        problems = validate_alerts_block(broken)
        assert any("firing count" in p for p in problems)
        assert any("without since_s" in p for p in problems)

    def test_format_timeline_renders_events(self):
        rule = ThresholdRule(name="hot", metric="gauge", threshold=5.0)
        events = AlertEngine([rule]).evaluate_stream_text(
            synthetic_stream([(0, {"gauge": 9})])
        )
        text = format_timeline(events)
        assert "firing" in text and "hot" in text
        assert format_timeline([]) == "no alerts\n"


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_profiler_block_schema(self):
        from repro.simulation.event_loop import EventLoop

        with TaskProfiler() as profiler:
            loop = EventLoop()
            loop.schedule(0.5, lambda: None)
            loop.run()
        block = profiler.block()
        assert tuple(block) == PROFILE_BLOCK_KEYS
        assert validate_profile_block(block) == []
        assert block["events"] >= 1
        assert block["sim_s"] >= 0.5
        assert block["wall_s"] > 0 and block["cpu_s"] >= 0

    def test_executor_attaches_profile_to_fresh_payloads(self, tmp_path):
        from repro.sweeps import run_tasks
        from repro.sweeps.cache import ResultCache

        task = cell_task(outage_cell("sticky"))
        cache = ResultCache(tmp_path)
        outcome = run_tasks([task], max_workers=1, cache=cache)
        payload = outcome.results[0]
        assert validate_profile_block(payload["profile"]) == []
        assert payload["profile"]["events"] > 0
        # The profile is part of the cached value: a warm hit returns it.
        warm = run_tasks([task], max_workers=1, cache=cache)
        assert warm.cache_hits == 1
        assert warm.results[0]["profile"] == payload["profile"]
        # ... and the roll-up sees it.
        rows = collect_profiles(tmp_path)
        assert len(rows) == 1
        assert rows[0]["kind"] == task.key["kind"] == "tier-cell"
        assert validate_profile_block(rows[0]["profile"]) == []
        ranked = rank_cells(rows)
        assert ranked and ranked[0]["entry"] == rows[0]["entry"]
        report = format_profile_report(rows)
        assert "1 cache entries, 1 profiled" in report

    def test_collect_profiles_tolerates_unprofiled_and_junk_entries(self, tmp_path):
        (tmp_path / "junk.json").write_text("not json")
        (tmp_path / "old.json").write_text(
            json.dumps({"task": {"key": {"kind": "legacy"}, "runner": "r", "seed": 1},
                        "result": {"value": 1}})
        )
        rows = collect_profiles(tmp_path)
        assert [row["kind"] for row in rows] == ["legacy"]
        assert rows[0]["profile"] is None
        assert rank_cells(rows) == []
        assert "1 predate the profiler" in format_profile_report(rows)
        assert collect_profiles(tmp_path / "missing") == []

    def test_flag_anomalies_needs_samples_and_flags_slow_cells(self):
        def row(name, eps):
            return {
                "entry": name, "kind": "k", "runner": "r", "seed": 1,
                "profile": {
                    "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_kb": 1,
                    "events": 100, "events_per_s": eps, "sim_s": 1.0,
                },
            }

        fast = [row("a.json", 100.0), row("b.json", 100.0)]
        assert flag_anomalies(fast + [row("c.json", 10.0)]) != []
        # Below the sample floor nothing is flagged.
        assert flag_anomalies([row("a.json", 100.0), row("c.json", 10.0)]) == []

    def test_strip_profiles_removes_all_blocks(self):
        document = {
            "profile": {"wall_s": 1.0},
            "entries": [{"x": 1, "profile": {"wall_s": 2.0}}, {"y": 2}],
        }
        stripped = strip_profiles(document)
        assert "profile" not in stripped
        assert all("profile" not in e for e in stripped["entries"])
        assert document["entries"][0]["profile"] == {"wall_s": 2.0}  # deep copy


# ----------------------------------------------------------------------
# Chaos acceptance: sticky fires recovery_transient, migrate does not
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosAlerts:
    @pytest.fixture(scope="class")
    def outage_docs(self):
        kw = dict(
            scenarios=("steady-poisson",), policies=("vllm",),
            faults=("cluster-outage",), migrations=("sticky", "migrate"),
            scale=TINY_CHAOS_SCALE, seed=3, alerts=True,
        )
        return (
            run_grid(CHAOS_GRID, max_workers=1, **kw),
            run_grid(CHAOS_GRID, max_workers=2, **kw),
        )

    def test_recovery_transient_fires_sticky_only(self, outage_docs):
        document, _ = outage_docs
        assert document["alerts"] is True
        by_migration = {e["migration"]: e for e in document["entries"]}
        sticky = by_migration["sticky"]["alerts"]
        migrate = by_migration["migrate"]["alerts"]
        assert validate_alerts_block(sticky) == []
        assert validate_alerts_block(migrate) == []

        def fired(block):
            return {e["rule"] for e in block["events"] if e["state"] == "firing"}

        assert "recovery_transient" in fired(sticky)
        assert "recovery_transient" not in fired(migrate)
        # Sticky never drains the displaced backlog within the horizon.
        assert any(
            item.startswith("recovery_transient|") for item in sticky["active_at_end"]
        )
        # The outage reroutes dispatch over the WAN under both policies.
        assert "wan_saturation" in fired(sticky)
        assert "wan_saturation" in fired(migrate)

    def test_timelines_bit_identical_across_worker_counts(self, outage_docs):
        serial, parallel = outage_docs
        blocks = lambda doc: [e["alerts"] for e in doc["entries"]]  # noqa: E731
        assert json.dumps(blocks(serial), sort_keys=True) == json.dumps(
            blocks(parallel), sort_keys=True
        )

    def test_timelines_bit_identical_across_reruns(self, outage_docs):
        cell = run_cell(outage_cell("sticky"), alerts=True)
        document, _ = outage_docs
        by_migration = {e["migration"]: e for e in document["entries"]}
        assert json.dumps(cell["alerts"], sort_keys=True) == json.dumps(
            by_migration["sticky"]["alerts"], sort_keys=True
        )

    def test_cells_without_alerts_carry_no_block_and_same_cache_key(self):
        plain = cell_task(outage_cell("sticky"))
        alerting = cell_task(outage_cell("sticky"), alerts=True)
        # The opt-in axis keys only the cells that use it: a plain task's
        # key (hence its cache entry) is untouched by the feature.
        assert "alerts" not in plain.key
        assert alerting.key["alerts"] is True
        assert plain.content_hash() != alerting.content_hash()


# ----------------------------------------------------------------------
# Typed samples against the text they replace
# ----------------------------------------------------------------------
#: The cells perfbench's ``tier-telemetry`` workload runs at quick scale,
#: seed 1: the chaos outage cell under sticky sessions, with and without
#: tracing (alerts fire and resolve), and the traced closed-loop serve
#: cell (no alert fires).
OUTAGE_STICKY = dict(
    scenarios=["steady-poisson"], policies=["vllm"], faults=["cluster-outage"],
    migrations=["sticky"],
)
TIER_CELLS = {
    "chaos-sticky": (CHAOS_GRID, False, OUTAGE_STICKY),
    "chaos-sticky-traced": (CHAOS_GRID, True, OUTAGE_STICKY),
    "serve-closed-loop-traced": (SERVE_GRID, True, dict(
        scenarios=["spike-train"], policies=["vllm"], clients=["16"], retries=["backoff"],
        backpressure=["on"],
    )),
}


@pytest.mark.chaos
@pytest.mark.serve
@pytest.mark.parametrize("name", sorted(TIER_CELLS))
def test_in_sweep_alerts_equal_a_replay_of_the_metrics_out_file(name, tmp_path):
    """The block a cell evaluates over its monitor's typed series equals
    the one ``python -m repro.obs alerts`` replays from the same cell's
    ``--metrics-out`` file (which tracing adds stage histograms to)."""
    grid, trace, axes = TIER_CELLS[name]
    _, (cell,) = grid_cells(grid, grid.scales["quick"], 1, **axes)
    in_sweep = run_cell(cell, trace=trace, alerts=True)["alerts"]
    path = tmp_path / "cell.prom"
    run_cell(cell, trace=trace, metrics_out=path)
    engine = AlertEngine()
    replayed = alerts_block(engine.evaluate_stream_text(path.read_text()), engine.rules)
    assert json.dumps(in_sweep, sort_keys=True) == json.dumps(replayed, sort_keys=True)


# ----------------------------------------------------------------------
# Differential doctor
# ----------------------------------------------------------------------
@pytest.mark.serve
class TestDiffDoctor:
    @pytest.fixture(scope="class")
    def serve_pair(self):
        kw = dict(
            scenarios=("spike-train",), policies=("vllm",), clients=("open",),
            retries=("none",), backpressure=("off",), seed=7,
            max_workers=1, trace=True,
        )
        quick = run_grid(
            SERVE_GRID,
            scale=ExperimentScale(
                name="obs-serve-a", num_instances=2,
                trace_duration_s=8.0, drain_timeout_s=8.0,
            ),
            **kw,
        )
        longer = run_grid(
            SERVE_GRID,
            scale=ExperimentScale(
                name="obs-serve-b", num_instances=2,
                trace_duration_s=16.0, drain_timeout_s=16.0,
            ),
            **kw,
        )
        return quick, longer

    def test_self_diff_reports_zero_findings(self, serve_pair):
        quick, _ = serve_pair
        report = diff_documents(quick, quick)
        assert report["cells_compared"] == len(quick["entries"])
        assert report["findings"] == []
        assert report["context"] == []
        assert report["only_in_base"] == [] and report["only_in_current"] == []
        assert "no findings" in format_diff_report(report)

    def test_scale_pair_attributes_a_stage_regression(self, serve_pair):
        quick, longer = serve_pair
        report = diff_documents(quick, longer)
        assert report["cells_compared"] == 1
        # The scale difference is context, not a finding.
        assert any(item["field"] == "scale" for item in report["context"])
        attributed = [f for f in report["findings"] if f.get("stage_attribution")]
        assert attributed, "expected >=1 latency finding with stage attribution"
        finding = attributed[0]
        assert finding["stage_attribution"][0]["metric"] in ("mean_s", "p99_s")
        rendered = format_diff_report(report)
        assert "stage " in rendered
        json.dumps(report)  # strict JSON: no inf/nan anywhere

    def test_wall_clock_and_profile_never_count_as_findings(self):
        base = {"entries": [{"scenario": "s", "wall_s": 1.0, "ttft_p50": 1.0,
                             "profile": {"wall_s": 1.0, "peak_rss_kb": 10}}]}
        current = {"entries": [{"scenario": "s", "wall_s": 9.0, "ttft_p50": 1.0,
                                "profile": {"wall_s": 5.0, "peak_rss_kb": 99}}]}
        assert diff_documents(base, current)["findings"] == []

    def test_unmatched_cells_are_listed_not_diffed(self):
        base = {"entries": [{"scenario": "a", "x": 1.0}]}
        current = {"entries": [{"scenario": "b", "x": 2.0}]}
        report = diff_documents(base, current)
        assert report["cells_compared"] == 0
        assert report["only_in_base"] == ["scenario=a"]
        assert report["only_in_current"] == ["scenario=b"]
        assert report["findings"] == []

    def test_new_from_zero_field_reports_null_rel(self):
        base = {"entries": [{"scenario": "s", "x": 0.0}]}
        current = {"entries": [{"scenario": "s", "x": 3.0}]}
        (finding,) = diff_documents(base, current)["findings"]
        assert finding["rel"] is None  # inf is not strict JSON
        json.dumps(finding)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCli:
    def test_alerts_subcommand(self, tmp_path, capsys):
        stream = tmp_path / "m.prom"
        stream.write_text(
            synthetic_stream(
                [(0, {"repro_ttft_p99_seconds": 30}),
                 (50, {"repro_ttft_p99_seconds": 30})]
            )
        )
        assert obs_main(["alerts", str(stream)]) == 0
        assert "ttft_p99_breach" in capsys.readouterr().out
        out = tmp_path / "alerts.json"
        assert (
            obs_main(["alerts", str(stream), "--format", "json",
                      "--output", str(out)]) == 0
        )
        block = json.loads(out.read_text())
        assert validate_alerts_block(block) == []
        assert block["firing"] >= 1
        # The CI gate flips the exit code when anything fired.
        assert obs_main(["alerts", str(stream), "--fail-on-firing"]) == 1

    def test_profile_subcommand(self, tmp_path, capsys):
        entry = {
            "task": {"key": {"kind": "k"}, "runner": "r", "seed": 1},
            "result": {"profile": {
                "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_kb": 1024,
                "events": 100, "events_per_s": 100.0, "sim_s": 1.0,
            }},
        }
        (tmp_path / "cell.json").write_text(json.dumps(entry))
        assert obs_main(["profile", "--cache-dir", str(tmp_path)]) == 0
        assert "1 profiled" in capsys.readouterr().out
        assert (
            obs_main(["profile", "--cache-dir", str(tmp_path),
                      "--format", "json"]) == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["kind"] == "k"

    def test_diff_subcommand_self_diff_gates_clean(self, tmp_path, capsys):
        document = {"schema_version": 1, "entries": [{"scenario": "s", "x": 1.0}]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        assert obs_main(["diff", str(path), str(path), "--fail-on-findings"]) == 0
        assert "no findings" in capsys.readouterr().out
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            {"schema_version": 1, "entries": [{"scenario": "s", "x": 2.0}]}
        ))
        assert obs_main(["diff", str(path), str(other), "--fail-on-findings"]) == 1

    @staticmethod
    def gate(base, current, tmp_path) -> int:
        """``obs diff --threshold 0 --fail-on-findings`` of two documents."""
        paths = []
        for name, document in (("base.json", base), ("current.json", current)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(document))
        return obs_main(
            ["diff", *map(str, paths), "--threshold", "0", "--fail-on-findings"]
        )

    @pytest.fixture
    def scenario_document(self):
        return json.loads((REPO_ROOT / "SCENARIO_results.json").read_text())

    def test_gate_fails_on_a_cell_only_one_document_has(
        self, scenario_document, tmp_path, capsys
    ):
        renamed = copy.deepcopy(scenario_document)
        renamed["entries"][0]["policy_name"] = "renamed"
        assert self.gate(scenario_document, renamed, tmp_path) == 1
        assert "1 cell(s) only in base, 1 cell(s) only in current" in capsys.readouterr().err
        shorter = copy.deepcopy(scenario_document)
        del shorter["entries"][-1]
        assert self.gate(scenario_document, shorter, tmp_path) == 1

    def test_gate_fails_on_a_changed_top_level_field(self, scenario_document, tmp_path):
        reseeded = dict(scenario_document, seed=scenario_document["seed"] + 1)
        assert self.gate(scenario_document, reseeded, tmp_path) == 1
        rerun = dict(scenario_document, wall_s_total=0.0, cache_hits=32, cache_misses=0)
        assert self.gate(scenario_document, rerun, tmp_path) == 0

    def test_gate_fails_on_a_changed_non_numeric_entry_field(self, tmp_path):
        entry = {"scenario": "s", "exhausted_at_s": None, "stood": True,
                 "alerts": {"firing": 1}, "wall_s": 1.0, "profile": {"wall_s": 1.0},
                 "stage_breakdown": {"decode": {"mean_s": 1.0}}}
        base = {"seed": 1, "entries": [entry]}
        for field, value in (("exhausted_at_s", 12.0), ("stood", False),
                             ("alerts", {"firing": 2})):
            current = {"seed": 1, "entries": [dict(entry, **{field: value})]}
            (finding,) = diff_documents(base, current)["findings"]
            assert (finding["field"], finding["delta"], finding["rel"]) == (field, None, None)
            assert self.gate(base, current, tmp_path) == 1
        host = dict(entry, wall_s=2.0, profile={"wall_s": 2.0},
                    stage_breakdown={"decode": {"mean_s": 2.0}})
        assert self.gate(base, {"seed": 1, "entries": [host]}, tmp_path) == 0

    def test_obs_smoke_compares_a_replayed_timeline_with_the_first_cell(self, tmp_path, capsys):
        import importlib.util
        import pathlib

        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "obs_smoke.py"
        spec = importlib.util.spec_from_file_location("obs_smoke", script)
        obs_smoke = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(obs_smoke)

        def block(*events):
            return alerts_block(list(events))

        transient = {
            "rule": "recovery_transient", "severity": "warning", "series": "s",
            "state": "firing", "t_s": 4.0, "value": 9.0, "since_s": 2.0,
        }
        wan = {"rule": "wan_saturation", "severity": "warning", "series": "w", "t_s": 2.0,
               "value": 1.0}
        sticky = block({**wan, "state": "firing", "since_s": 2.0},
                       {**wan, "state": "resolved", "t_s": 3.0}, transient)
        document = {"entries": [
            {"scenario": "s", "policy": "vllm", "faults": "cluster-outage",
             "migration": migration, "alerts": alerts}
            for migration, alerts in (("sticky", sticky), ("migrate", block()))
        ]}
        paths = {}
        for name, payload in (("doc", document), ("same", sticky), ("other", block(transient))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        assert obs_smoke.main([str(paths["doc"])]) == 0
        assert obs_smoke.main([str(paths["doc"]), str(paths["same"])]) == 0
        assert "equals the first cell's" in capsys.readouterr().out
        assert obs_smoke.main([str(paths["doc"]), str(paths["other"])]) == 1
        assert "differ from the in-sweep block" in capsys.readouterr().err
        assert obs_smoke.main([str(paths["doc"])] * 3) == 2
