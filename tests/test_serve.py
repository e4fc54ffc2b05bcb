"""Tests for the online serving frontend (``repro.serve``).

Covers the arrival sources (workload replay, JSONL tail, synthetic
Poisson stream), the gateway's strict one-element-lookahead protocol
(proven with a source that raises on early pulls), the closed-loop
client population (session-aware partitioning, retry/backoff/give-up
accounting, backpressure), the ``SERVE_results.json`` schema contract,
and the determinism guarantee: same grid + seed ⇒ bit-identical
documents across runs, worker counts and cold vs. warm caches (modulo
``wall_s*``).

The serve acceptance criteria are pinned against the quick-scale sweep
document: under the overload scenario, (1) closed-loop clients with
backpressure achieve strictly higher goodput-per-submitted-request than
open-loop replay of the same trace, and (2) retry-with-backoff finishes
strictly more requests than no-retry — with the attempt/intent
conservation invariants of ``tests/invariants.py`` holding over every
cell.
"""

from __future__ import annotations

import configparser
import json
import pathlib

import pytest

from invariants import assert_document_invariants, assert_serve_conservation
from repro.experiments.runner import ExperimentScale
from repro.policies import make_policy
from repro.scenarios.registry import get_scenario
from repro.serve import (
    BACKPRESSURE_MODES,
    ClientPopulationConfig,
    ClosedLoopPopulation,
    OnlineGateway,
    RETRY_POLICIES,
    list_backpressure_modes,
    list_retry_policies,
    workload_arrivals,
)
from repro.serve.clients import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    BACKOFF_FACTOR,
    JITTER_FRACTION,
    backoff_delay_s,
    partition_intents,
)
from repro.serve.grid import GRID
from repro.sweeps.grid import (
    OPEN_LOOP,
    SCALE_KEYS,
    SCHEMA_VERSION,
    build_cell_config,
    document_keys,
    format_results,
    grid_cells,
    main,
    materialise,
    run_cell,
    run_grid,
    strip_wall_clock,
    validate_document,
    write_results,
)
from repro.serving.system import ClusterServingSystem
from repro.simulation.rng import SeededRNG
from repro.workloads.trace import TracedRequest, Workload

#: Scale small enough that a serve cell completes in well under a second.
TINY_SCALE = ExperimentScale(
    name="serve-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=10.0,
)


def tiny_system(seed: int = 1, fleet: bool = False) -> ClusterServingSystem:
    spec = get_scenario("steady-poisson")
    config = build_cell_config(spec, TINY_SCALE, seed=seed)
    if fleet:
        from repro.fleet.config import FleetConfig

        config.fleet = FleetConfig(router="least_loaded", autoscaler="fixed")
    return ClusterServingSystem(config, make_policy("vllm"))


def tiny_workload(seed: int = 1) -> Workload:
    return get_scenario("steady-poisson").build_workload(TINY_SCALE, seed)


def serve_cell(scenario, clients, retry, backpressure, scale=TINY_SCALE, seed=42):
    return materialise(GRID, {
        "scenario": scenario, "policy": "vllm", "clients": clients, "retry": retry,
        "backpressure": backpressure,
    }, scale, seed)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientPopulationConfig(max_attempts=0)
        assert ClientPopulationConfig().max_attempts == 1  # no retries

    def test_backoff_grows_exponentially_and_caps(self):
        rng, twin = SeededRNG(0, "test"), SeededRNG(0, "test")
        delays = [backoff_delay_s(k, rng) for k in range(1, 7)]
        bases = [min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (k - 1))
                 for k in range(1, 7)]
        assert bases == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]  # doubles, then the cap
        jitters = [1.0 + JITTER_FRACTION * (2.0 * twin.uniform() - 1.0) for _ in bases]
        assert delays == [base * jitter for base, jitter in zip(bases, jitters)]
        with pytest.raises(ValueError):
            backoff_delay_s(0, rng)

    def test_jitter_stays_within_the_fraction(self):
        rng = SeededRNG(7, "jitter")
        for _ in range(100):
            assert 0.375 <= backoff_delay_s(1, rng) <= 0.625

    def test_registries(self):
        assert list_retry_policies() == ["none", "backoff"]
        assert RETRY_POLICIES == {"none": 1, "backoff": 4}
        assert list_backpressure_modes() == ["off", "on"]
        assert BACKPRESSURE_MODES == {"off": False, "on": True}

    def test_backpressure_and_population_validation(self):
        assert not ClientPopulationConfig().backpressure
        with pytest.raises(ValueError):
            ClientPopulationConfig(num_clients=0)


class TestSources:
    def test_workload_arrivals_replays_in_order(self):
        workload = tiny_workload()
        arrivals = list(workload_arrivals(workload))
        assert arrivals == list(workload.requests)
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)


@pytest.mark.serve
class TestGateway:
    def test_gateway_never_reads_ahead(self):
        # The acceptance protocol test: the source raises if the gateway
        # pulls the next element before simulation time has reached the
        # one it already handed over.
        system = tiny_system()
        workload = tiny_workload()

        def guarded():
            for request in workload.requests:
                yield request
                # Resumed == the gateway pulled the next element.  Legal
                # only once the loop has caught up with this one.
                if system.loop.now < request.arrival_time:
                    raise RuntimeError(
                        f"gateway read ahead: pulled past t={request.arrival_time:.3f} "
                        f"at sim time {system.loop.now:.3f}"
                    )

        gateway = OnlineGateway(system, guarded())
        result = system.run_online(
            [gateway],
            until=TINY_SCALE.trace_duration_s + TINY_SCALE.drain_timeout_s,
        )
        assert gateway.done
        assert gateway.submitted == len(workload.requests)
        assert result.submitted_requests == len(workload.requests)
        assert result.finished_requests > 0

    def test_gateway_matches_preloaded_replay(self):
        # Online ingestion changes the mechanism, not the semantics: the
        # same trace completes the same requests with matching first-token
        # latencies.  (Decode interleaving may differ at event-tie level,
        # so per-token timings are compared only in aggregate.)
        workload = tiny_workload()
        online = tiny_system()
        gateway = OnlineGateway(online, workload_arrivals(workload))
        horizon = TINY_SCALE.trace_duration_s + TINY_SCALE.drain_timeout_s
        online_result = online.run_online([gateway], until=horizon)
        preloaded = tiny_system().run(workload)
        assert online_result.submitted_requests == preloaded.submitted_requests
        assert online_result.finished_requests == preloaded.finished_requests
        assert [r.ttft for r in online_result.records] == [
            r.ttft for r in preloaded.records
        ]
        assert online_result.summary["tpot_p50"] == pytest.approx(
            preloaded.summary["tpot_p50"], rel=0.05
        )

    def test_out_of_order_streams_are_rejected(self):
        system = tiny_system()
        arrivals = [
            TracedRequest(arrival_time=1.0, prompt_tokens=8, output_tokens=4),
            TracedRequest(arrival_time=0.5, prompt_tokens=8, output_tokens=4),
        ]
        gateway = OnlineGateway(system, arrivals)
        with pytest.raises(ValueError, match="not time-ordered"):
            system.run_online([gateway], until=5.0)

    def test_synthetic_source_feeds_the_gateway(self):
        # A live generator: each arrival is made only when the gateway pulls it.
        def arrivals():
            for index in range(20):
                yield TracedRequest(
                    arrival_time=0.25 * (index + 1), prompt_tokens=64, output_tokens=16
                )

        system = tiny_system()
        gateway = OnlineGateway(system, arrivals())
        system.run_online([gateway], until=15.0)
        assert gateway.done
        assert gateway.submitted == 20


@pytest.mark.serve
class TestClients:
    def test_partition_keeps_sessions_together_in_order(self):
        requests = [
            TracedRequest(arrival_time=0.1, prompt_tokens=1, output_tokens=1, session_id="a"),
            TracedRequest(arrival_time=0.2, prompt_tokens=2, output_tokens=1, session_id="b"),
            TracedRequest(arrival_time=0.3, prompt_tokens=3, output_tokens=1, session_id="a"),
            TracedRequest(arrival_time=0.4, prompt_tokens=4, output_tokens=1),
            TracedRequest(arrival_time=0.5, prompt_tokens=5, output_tokens=1, session_id="a"),
        ]
        scripts = partition_intents(Workload(name="w", requests=requests), 2)
        assert sum(len(s) for s in scripts) == len(requests)
        # Session "a" stays on one client, turns in arrival order.
        a_turns = [i.prompt_tokens for s in scripts for i in s if i.session_id == "a"]
        assert a_turns == [1, 3, 5]
        owners = {
            index
            for index, script in enumerate(scripts)
            for intent in script
            if intent.session_id == "a"
        }
        assert len(owners) == 1

    def test_partition_is_deterministic_and_covers_every_request(self):
        workload = tiny_workload()
        one = partition_intents(workload, 4)
        two = partition_intents(workload, 4)
        assert one == two
        assert sum(len(s) for s in one) == len(workload.requests)

    def test_population_accounting_identities_hold(self):
        system = tiny_system(fleet=True)
        workload = tiny_workload()
        population = ClosedLoopPopulation(
            system,
            workload,
            ClientPopulationConfig(
                num_clients=4,
                max_attempts=RETRY_POLICIES["backoff"],
                backpressure=BACKPRESSURE_MODES["on"],
            ),
            seed=3,
        )
        assert population.offered == len(workload.requests)
        horizon = serve_cell("steady-poisson", "4", "backoff", "on").horizon_s
        system.run_online([population], until=horizon)
        stats = population.stats()
        assert stats["finished"] > 0
        assert stats["submitted_attempts"] == stats["issued"] + stats["retries"]
        assert stats["sheds_observed"] == (
            stats["retries"] + stats["retry_pending"] + stats["gave_up"]
        )
        assert stats["offered"] == (
            stats["finished"] + stats["gave_up"] + stats["client_incomplete"]
        )
        # One (client_ttft, tpot) pair per intent, abandoned ones as None.
        assert len(population.client_latency_pairs()) == population.offered

    def test_client_ttft_includes_retry_delay(self):
        # Client-perceived TTFT is measured from the *first* submission,
        # so it can only be >= the engine's per-attempt TTFT.
        cell = run_cell(serve_cell("spike-train", 8, "backoff", "off"))
        if cell["retries"]:  # overload scenario: retries do happen
            assert cell["client_ttft_p99"] >= cell["ttft_p99"]

    def test_retry_without_admission_layer_is_rejected(self):
        system = tiny_system(fleet=False)
        with pytest.raises(ValueError, match="admission"):
            ClosedLoopPopulation(
                system,
                tiny_workload(),
                ClientPopulationConfig(num_clients=2, max_attempts=RETRY_POLICIES["backoff"]),
            )

    def test_open_loop_cells_reject_retry_and_backpressure(self):
        with pytest.raises(ValueError):
            serve_cell("steady-poisson", OPEN_LOOP, "backoff", "off")
        with pytest.raises(ValueError):
            serve_cell("steady-poisson", OPEN_LOOP, "none", "on")
        with pytest.raises(ValueError):
            serve_cell("steady-poisson", "zero", "none", "off")
        with pytest.raises(ValueError):
            serve_cell("steady-poisson", 0, "none", "off")


class TestSchema:
    def test_schema_contract_is_pinned(self):
        # The compatibility contract of SERVE_results.json: keys may grow
        # in a new schema version but must never be renamed or removed.
        assert SCHEMA_VERSION == 1
        assert set(document_keys(GRID)) >= {
            "schema_version",
            "repro_version",
            "seed",
            "scale",
            "scenarios",
            "policies",
            "clients",
            "retries",
            "backpressure",
            "router",
            "autoscaler",
            "entries",
            "wall_s_total",
        }
        assert set(GRID.entry_fields) >= {
            "scenario",
            "policy",
            "policy_name",
            "mode",
            "clients",
            "retry",
            "backpressure",
            "workload",
            "horizon_s",
            "offered",
            "issued",
            "submitted",
            "finished",
            "shed",
            "retries",
            "retry_pending",
            "gave_up",
            "incomplete",
            "client_incomplete",
            "completion_ratio",
            "goodput_per_submitted",
            "client_ttft_p50",
            "client_ttft_p90",
            "client_ttft_p99",
            "client_e2e_p50",
            "ttft_p50",
            "tpot_p50",
            "throughput_tokens_per_s",
            "admitted",
            "queue_peak",
            "slo_scale",
            "ttft_slo_s",
            "tpot_slo_s",
            "slo_violation_ratio",
            "slo_attainment",
            "wall_s",
        }
        assert set(SCALE_KEYS) == {
            "name", "num_instances", "trace_duration_s", "drain_timeout_s"
        }

    def test_validate_document_flags_missing_keys(self):
        assert validate_document(GRID, {}) != []

    def test_strip_wall_clock_removes_only_wall_clock(self):
        document = {
            "schema_version": 1,
            "wall_s_total": 3.2,
            "cache_hits": 4,
            "cache_misses": 0,
            "entries": [{"clients": "open", "wall_s": 1.0, "goodput_per_submitted": 0.5}],
        }
        stripped = strip_wall_clock(document)
        assert "wall_s_total" not in stripped
        assert "cache_hits" not in stripped and "cache_misses" not in stripped
        assert "wall_s" not in stripped["entries"][0]
        assert stripped["entries"][0]["goodput_per_submitted"] == 0.5
        assert document["wall_s_total"] == 3.2  # original untouched

    def test_grid_pins_open_loop_to_one_cell(self):
        _, cells = grid_cells(
            GRID, TINY_SCALE, scenarios=["steady-poisson"], clients=["open", "8"],
            retries=["none", "backoff"], backpressure=["off", "on"],
        )
        open_cells = [cell.values for cell in cells if cell.values["clients"] == OPEN_LOOP]
        assert [(v["retry"], v["backpressure"]) for v in open_cells] == [("none", "off")]
        assert len(cells) == 1 + 4  # open + 8-clients x retry x backpressure


#: The acceptance document: the default serve grid (open baseline + one
#: closed population x retry x backpressure) at the quick scale
#: ``python -m repro.serve`` uses.
@pytest.fixture(scope="module")
def quick_document():
    return run_grid(GRID, scale=GRID.scales["quick"], seed=42, max_workers=2)


@pytest.mark.serve
class TestAcceptance:
    def test_document_is_valid_and_conserved(self, quick_document, tmp_path):
        assert validate_document(GRID, quick_document) == []
        entries = assert_document_invariants(quick_document)
        assert len(entries) == 5  # open + 64 clients x 2 retries x 2 modes
        # Every cell works through the same logical demand.
        assert len({entry["offered"] for entry in entries}) == 1
        for entry in entries:
            assert entry["finished"] > 0
            assert 0.0 <= entry["slo_violation_ratio"] <= 1.0
            assert entry["slo_attainment"] == pytest.approx(
                1.0 - entry["slo_violation_ratio"]
            )

        path = write_results(GRID, quick_document, tmp_path / "SERVE_results.json")
        reloaded = json.loads(path.read_text())
        assert validate_document(GRID, reloaded) == []
        assert reloaded == quick_document

        text = format_results(GRID, quick_document)
        assert "backoff" in text and "open" in text

    def test_open_loop_baseline_sheds_and_never_retries(self, quick_document):
        # The admission settings are tight on purpose: if the open-loop
        # baseline stops shedding, every comparison below is vacuous.
        entry = next(
            e for e in quick_document["entries"] if e["clients"] == OPEN_LOOP
        )
        assert entry["mode"] == "open"
        assert entry["retry"] == "none" and entry["backpressure"] == "off"
        assert entry["shed"] > 0
        assert entry["retries"] == 0 and entry["retry_pending"] == 0
        assert entry["gave_up"] == entry["shed"]  # nobody retries for you
        assert entry["submitted"] == entry["offered"]

    def test_backpressure_goodput_beats_open_loop(self, quick_document):
        # Acceptance criterion 1: closed-loop clients with backpressure
        # achieve strictly higher goodput-per-submitted-request than
        # open-loop replay of the same trace.
        by_cell = {
            (e["clients"], e["retry"], e["backpressure"]): e
            for e in quick_document["entries"]
        }
        open_cell = by_cell[(OPEN_LOOP, "none", "off")]
        for retry in ("none", "backoff"):
            closed = by_cell[("64", retry, "on")]
            assert (
                closed["goodput_per_submitted"] > open_cell["goodput_per_submitted"]
            ), f"backpressure cell (retry={retry}) must beat open-loop goodput"

    def test_retry_with_backoff_finishes_more_than_no_retry(self, quick_document):
        # Acceptance criterion 2: under the same backpressure mode,
        # retry-with-backoff finishes strictly more requests.
        by_cell = {
            (e["clients"], e["retry"], e["backpressure"]): e
            for e in quick_document["entries"]
        }
        for mode in ("off", "on"):
            none = by_cell[("64", "none", mode)]
            backoff = by_cell[("64", "backoff", mode)]
            assert backoff["finished"] > none["finished"]
            assert none["gave_up"] > 0  # no-retry abandons every shed
            assert backoff["retries"] > 0  # ...while backoff converts them

    def test_backpressure_reduces_sheds(self, quick_document):
        by_cell = {
            (e["retry"], e["backpressure"]): e
            for e in quick_document["entries"]
            if e["mode"] == "closed"
        }
        for retry in ("none", "backoff"):
            assert by_cell[(retry, "on")]["shed"] <= by_cell[(retry, "off")]["shed"]


@pytest.mark.serve
class TestSweep:
    GRID = dict(
        scenarios=["steady-poisson"],
        policies=["vllm"],
        clients=["open", "4"],
        retries=["backoff"],
        backpressure=["on"],
    )

    def test_sweep_is_deterministic_across_worker_counts(self):
        sequential = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        parallel = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=2, **self.GRID)
        assert strip_wall_clock(parallel) == strip_wall_clock(sequential)
        assert validate_document(GRID, sequential) == []
        assert len(sequential["entries"]) == 2  # open pinned + one closed cell

    def test_warm_rerun_is_served_from_cache_and_identical(self, tmp_path):
        cold = run_grid(GRID, 
            scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        warm = run_grid(GRID, 
            scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 2
        assert warm["cache_hits"] == 2 and warm["cache_misses"] == 0
        assert strip_wall_clock(warm) == strip_wall_clock(cold)

    def test_integer_client_tokens_are_canonicalised(self):
        document = run_grid(GRID, 
            scenarios=["steady-poisson"],
            policies=["vllm"],
            clients=[4],
            retries=["none"],
            backpressure=["off"],
            scale=TINY_SCALE,
            seed=2,
            max_workers=1,
        )
        assert document["clients"] == ["4"]
        assert document["entries"][0]["clients"] == "4"

    def test_unknown_axis_values_are_rejected(self):
        with pytest.raises(KeyError):
            run_grid(GRID, scenarios=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_grid(GRID, retries=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_grid(GRID, backpressure=["nope"], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, clients=["minus-one"], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, clients=[], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, scale=TINY_SCALE, max_workers=0)

    def test_cell_conservation_property_style(self):
        # Every frontend configuration satisfies the serve identities.
        for clients, retry, backpressure in (
            (OPEN_LOOP, "none", "off"),
            ("2", "none", "off"),
            ("4", "backoff", "off"),
            ("4", "backoff", "on"),
        ):
            cell = serve_cell("spike-train", clients, retry, backpressure, seed=4)
            assert_serve_conservation({**run_cell(cell), **cell.values})


@pytest.mark.serve
class TestCLI:
    def test_cli_runs_grid_and_writes_results(self, tmp_path):
        output = tmp_path / "SERVE_results.json"
        code = main(
            GRID,
            [
                "--scenarios", "steady-poisson",
                "--policies", "vllm",
                "--clients", "open",
                "--sequential",
                "--no-cache",
                "--output", str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert validate_document(GRID, document) == []
        assert len(document["entries"]) == 1
        assert document["entries"][0]["mode"] == "open"

    def test_cli_lists_registries(self, capsys):
        assert main(GRID, ["--list-retries"]) == 0
        assert "backoff" in capsys.readouterr().out
        assert main(GRID, ["--list-backpressure"]) == 0
        assert "on" in capsys.readouterr().out

    def test_cli_rejects_unknown_axis(self, capsys):
        assert main(GRID, ["--retries", "nope", "--sequential", "--no-cache"]) == 2
        assert main(GRID, ["--clients", "zero", "--sequential", "--no-cache"]) == 2
        assert main(GRID, ["--scenarios", "nope", "--sequential", "--no-cache"]) == 2

    @pytest.mark.slow
    def test_cli_streams_metrics_with_client_series(self, tmp_path, capsys):
        output = tmp_path / "SERVE_results.json"
        stream = tmp_path / "metrics.prom"
        code = main(
            GRID,
            [
                "--scenarios", "steady-poisson",
                "--policies", "vllm",
                "--clients", "8",
                "--retries", "backoff",
                "--backpressure", "on",
                "--sequential",
                "--no-cache",
                "--output", str(output),
                "--metrics-out", str(stream),
            ]
        )
        assert code == 0
        text = stream.read_text()
        assert "# scrape 1 " in text
        assert "# TYPE repro_serve_active_clients gauge" in text
        assert "repro_serve_retries_total" in text
        assert "repro_serve_give_ups_total" in text
        assert "repro_requests_submitted_total" in text
        assert "streamed" in capsys.readouterr().out


class TestMarkers:
    def test_project_markers_are_declared(self):
        # Regression guard: ``-m serve`` silently matches nothing when a
        # marker is used but never declared in pytest.ini.
        ini = configparser.ConfigParser()
        ini.read(pathlib.Path(__file__).resolve().parents[1] / "pytest.ini")
        declared = {
            line.split(":", 1)[0].strip()
            for line in ini["pytest"]["markers"].strip().splitlines()
        }
        assert {"slow", "chaos", "serve"} <= declared
