"""Tests for the chaos subsystem (``repro.chaos``).

Covers deterministic fault schedules (validation, ordering, presets,
hazard-rate sampling, cache keys), the injector's eager target
validation, single-cluster and tier-level fault firing, the
``CHAOS_results.json`` schema contract, and the determinism guarantee:
same grid + seed ⇒ bit-identical documents across runs, worker counts
and cold vs. warm caches (modulo ``wall_s*``).

The chaos acceptance criterion is pinned here against the quick-scale
sweep document: under a deterministic single-cluster outage the
``migrate`` session policy loses zero requests while ``sticky`` loses
some, and migrate's recovery transient and ``cross_cluster_bytes`` are
both strictly better — with the conservation invariants of
``tests/invariants.py`` holding over every cell.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import pathlib

import pytest

from invariants import assert_document_invariants
from repro.chaos import (
    ChaosInjector,
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    fault_schedule_preset,
    list_fault_presets,
    sampled_kill_schedule,
)
from repro.chaos.grid import GRID
from repro.cluster.specs import cluster_a_spec
from repro.experiments.runner import ExperimentScale
from repro.multicluster import MultiClusterConfig
from repro.multicluster.system import MultiClusterSystem
from repro.policies import make_policy
from repro.scenarios.registry import get_scenario
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem
from repro.sweeps.grid import (
    SCALE_KEYS,
    SCHEMA_VERSION,
    build_cell_config,
    cell_task,
    document_keys,
    format_results,
    main,
    materialise,
    run_cell,
    run_grid,
    strip_wall_clock,
    validate_document,
    write_results,
)

QUICK_CHAOS_SCALE = GRID.scales["quick"]

#: Scale small enough that a chaos cell completes in under a second
#: (instances *per cluster*); the preset fault strikes at 1.25 s.
TINY_SCALE = ExperimentScale(
    name="chaos-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=10.0,
)


def chaos_cell(faults: str, migration: str, scale=TINY_SCALE, seed: int = 3):
    return materialise(GRID, {
        "scenario": "steady-poisson", "policy": "vllm", "faults": faults,
        "migration": migration,
    }, scale, seed)


def tiny_cell(faults: str, migration: str, seed: int = 3):
    return run_cell(chaos_cell(faults, migration, seed=seed))


class TestFaultEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", at_s=1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="instance_kill", at_s=-1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="instance_kill", at_s=1.0, cluster=-1)
        with pytest.raises(ValueError):
            FaultEvent(kind="instance_kill", at_s=1.0, instance=-1)
        with pytest.raises(ValueError):
            FaultEvent(kind="wan_degrade", at_s=1.0, duration_s=-2.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="wan_degrade", at_s=1.0, bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="wan_degrade", at_s=1.0, bandwidth_factor=1.5)
        with pytest.raises(ValueError):
            FaultEvent(kind="wan_degrade", at_s=1.0, latency_factor=0.5)

    def test_schedule_sorts_events_and_counts_kinds(self):
        late = FaultEvent(kind="cluster_outage", at_s=9.0)
        early = FaultEvent(kind="instance_kill", at_s=1.0)
        schedule = FaultSchedule(events=(late, early), name="x")
        assert schedule.events == (early, late)
        assert bool(schedule)
        assert not FaultSchedule()
        assert schedule.kinds() == {
            "instance_kill": 1,
            "cluster_outage": 1,
            "wan_degrade": 0,
        }

    def test_fingerprint_is_order_insensitive_and_names_the_schedule(self):
        """A chaos cell's cache key holds its schedule, events and name."""
        a = FaultEvent(kind="instance_kill", at_s=1.0)
        b = FaultEvent(kind="cluster_outage", at_s=2.0)
        cell = chaos_cell("none", "sticky")

        def task(events, name):
            schedule = FaultSchedule(events=events, name=name)
            return cell_task(
                dataclasses.replace(cell, config=dataclasses.replace(cell.config, chaos=schedule))
            )

        one, two = task((a, b), "s"), task((b, a), "s")
        assert FaultSchedule(events=(a, b), name="s") == FaultSchedule(events=(b, a), name="s")
        assert one.key == two.key
        assert one.content_hash() == two.content_hash()
        assert one.key["config"]["chaos"]["name"] == "s"
        assert json.dumps(one.key)  # JSON-able, for sweep cache keys
        # A renamed preset must not share cache entries.
        assert one.content_hash() != task((a, b), "t").content_hash()


class TestSampledSchedules:
    def test_same_seed_is_bit_identical(self):
        kwargs = dict(
            duration_s=60.0, num_clusters=2, instances_per_cluster=2, rate_per_min=6.0
        )
        assert sampled_kill_schedule(seed=7, **kwargs) == sampled_kill_schedule(
            seed=7, **kwargs
        )
        assert sampled_kill_schedule(seed=7, **kwargs) != sampled_kill_schedule(
            seed=8, **kwargs
        )

    def test_events_are_in_horizon_kills_on_valid_targets(self):
        schedule = sampled_kill_schedule(
            seed=7, duration_s=60.0, num_clusters=2, instances_per_cluster=2,
            rate_per_min=6.0,
        )
        assert schedule.events  # ~6 kills expected in a minute
        for event in schedule.events:
            assert event.kind == "instance_kill"
            assert 0.0 <= event.at_s < 60.0
            assert 0 <= event.cluster < 2
            assert 0 <= event.instance < 2

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            sampled_kill_schedule(
                seed=1, duration_s=0.0, num_clusters=2,
                instances_per_cluster=2, rate_per_min=1.0,
            )
        with pytest.raises(ValueError):
            sampled_kill_schedule(
                seed=1, duration_s=10.0, num_clusters=0,
                instances_per_cluster=2, rate_per_min=1.0,
            )
        with pytest.raises(ValueError):
            sampled_kill_schedule(
                seed=1, duration_s=10.0, num_clusters=2,
                instances_per_cluster=2, rate_per_min=0.0,
            )


class TestPresets:
    def test_registry_and_unknown_names(self):
        assert {"none", "instance-kill", "cluster-outage", "wan-degrade", "churn"} == set(
            list_fault_presets()
        )
        with pytest.raises(KeyError):
            fault_schedule_preset(
                "nope", duration_s=10.0, num_clusters=2, instances_per_cluster=2
            )
        with pytest.raises(ValueError):
            fault_schedule_preset(
                "none", duration_s=0.0, num_clusters=2, instances_per_cluster=2
            )

    def test_single_fault_presets_strike_at_a_quarter_of_the_trace(self):
        for name, kind in (
            ("instance-kill", "instance_kill"),
            ("cluster-outage", "cluster_outage"),
            ("wan-degrade", "wan_degrade"),
        ):
            schedule = fault_schedule_preset(
                name, duration_s=40.0, num_clusters=2, instances_per_cluster=2
            )
            assert [e.kind for e in schedule.events] == [kind]
            assert schedule.events[0].at_s == pytest.approx(10.0)
        none = fault_schedule_preset(
            "none", duration_s=40.0, num_clusters=2, instances_per_cluster=2
        )
        assert not none and none.name == "none"

    def test_churn_preset_is_seeded_and_cell_schedule_matches(self):
        churn = chaos_cell("churn", "sticky", QUICK_CHAOS_SCALE, seed=42).config.chaos
        assert churn == fault_schedule_preset(
            "churn",
            duration_s=QUICK_CHAOS_SCALE.trace_duration_s,
            num_clusters=2,  # the grid's fixed two-shard tier
            instances_per_cluster=QUICK_CHAOS_SCALE.num_instances,
            seed=42,
        )
        assert churn != chaos_cell("churn", "sticky", QUICK_CHAOS_SCALE, seed=43).config.chaos


@pytest.mark.chaos
class TestInjector:
    @staticmethod
    def tier(num_clusters: int = 2) -> MultiClusterSystem:
        spec = get_scenario("steady-poisson")
        config = build_cell_config(spec, TINY_SCALE, seed=1)
        config.multicluster = MultiClusterConfig(num_clusters=num_clusters)
        return MultiClusterSystem(config, lambda: make_policy("vllm"))

    def test_targets_are_validated_before_the_run(self):
        system = self.tier()
        bad_cluster = FaultSchedule(
            events=(FaultEvent(kind="cluster_outage", at_s=1.0, cluster=5),)
        )
        with pytest.raises(ValueError):
            ChaosInjector(system, bad_cluster).arm(horizon=10.0)
        bad_instance = FaultSchedule(
            events=(FaultEvent(kind="instance_kill", at_s=1.0, instance=99),)
        )
        with pytest.raises(ValueError):
            ChaosInjector(system, bad_instance).arm(horizon=10.0)

    def test_events_past_the_horizon_are_skipped(self):
        system = self.tier()
        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="cluster_outage", at_s=100.0),
                FaultEvent(kind="instance_kill", at_s=1.0),
            )
        )
        ChaosInjector(system, schedule).arm(horizon=10.0)
        system.loop.run(until=101.0)
        assert system.instance_kills == 1
        assert system.cluster_outages == 0

    def test_single_cluster_runs_reject_tier_level_faults(self):
        spec = get_scenario("steady-poisson")
        config = ServingConfig(
            cluster=cluster_a_spec(num_servers=2),
            drain_timeout_s=5.0,
            chaos=FaultSchedule(events=(FaultEvent(kind="cluster_outage", at_s=1.0),)),
        )
        system = ClusterServingSystem(config, make_policy("vllm"))
        with pytest.raises(ValueError):
            system.run(spec.build_workload(TINY_SCALE, 1))

    def test_single_cluster_instance_kill_fires_and_recovers(self):
        spec = get_scenario("steady-poisson")
        config = ServingConfig(
            cluster=cluster_a_spec(num_servers=2),
            drain_timeout_s=10.0,
            chaos=fault_schedule_preset(
                "instance-kill", duration_s=5.0, num_clusters=1,
                instances_per_cluster=2,
            ),
        )
        system = ClusterServingSystem(config, make_policy("vllm"))
        result = system.run(spec.build_workload(TINY_SCALE, 1))
        assert system.fault_manager is not None
        assert len(system.fault_manager.reports) == 1
        assert sum(1 for i in system.instances if i.failed) == 1
        assert result.finished_requests > 0


@pytest.mark.chaos
class TestTierFaults:
    def test_instance_kill_recovers_within_the_shard(self):
        cell = tiny_cell("instance-kill", "sticky")
        assert cell["instance_kills"] == 1
        assert cell["lost_to_fault"] == 0  # in-shard recovery loses nothing
        assert cell["finished"] > 0
        assert cell["finished"] + cell["shed"] <= cell["requests"]

    def test_wan_degrade_fires_and_restores(self):
        cell = tiny_cell("wan-degrade", "sticky")
        assert cell["wan_degrades"] == 1
        assert cell["lost_to_fault"] == 0

    def test_cluster_outage_with_migration_reroutes_everything(self):
        stats = tiny_cell("cluster-outage", "migrate")
        assert stats["cluster_outages"] == 1
        assert stats["lost_to_fault"] == 0
        assert stats["rerouted"] > 0
        assert stats["migrated_sessions"] > 0
        assert stats["migration_bytes"] > 0
        # Dead-home arrivals are counted once, in ``rerouted`` only.
        assert (
            stats["local_routed"] + stats["remote_routed"] + stats["rerouted"]
            == stats["requests"]
        )

    def test_cluster_outage_sticky_pays_per_request_wan_hops(self):
        stats = tiny_cell("cluster-outage", "sticky")
        assert stats["cluster_outages"] == 1
        assert stats["migrated_sessions"] == 0 and stats["migration_bytes"] == 0
        assert stats["rerouted"] > 0
        assert stats["dispatch_bytes"] > 0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: an instance kill that leaves its shard no active group "
        "re-dispatches the displaced requests nowhere, so they never finish",
    )
    def test_instance_kill_that_empties_a_shard_loses_no_request(self):
        # Each shard serves from one instance with one spare; the kill takes
        # the serving one, and its new group comes up 0.5 s later.
        incomplete = [
            run_cell(chaos_cell("instance-kill", migration, QUICK_CHAOS_SCALE, seed=42))[
                "incomplete"
            ]
            for migration in ("sticky", "migrate")
        ]
        assert incomplete == [0, 0]

    @pytest.mark.parametrize("migration", ["sticky", "migrate"])
    def test_displaced_pending_equals_a_full_rescan(self, migration, monkeypatch):
        # The live metric reads only new records; after every scrape it
        # must equal a rescan of every shard's records.
        incremental = MultiClusterSystem.displaced_pending
        seen = []

        def checked(tier):
            pending = incremental(tier)
            finished = sum(
                1
                for system in tier.systems
                for record in system.metrics.records
                if record.finished and record.request_id in tier._displacements
            )
            assert pending == len(tier._displacements) - finished
            seen.append(pending)
            return pending

        monkeypatch.setattr(MultiClusterSystem, "displaced_pending", checked)
        run_cell(chaos_cell("cluster-outage", migration), alerts=True)
        assert len(seen) > 10 and max(seen) > 0


class TestSchema:
    def test_schema_contract_is_pinned(self):
        # The compatibility contract of CHAOS_results.json: keys may grow
        # in a new schema version but must never be renamed or removed.
        assert SCHEMA_VERSION == 1
        assert set(document_keys(GRID)) >= {
            "schema_version",
            "repro_version",
            "seed",
            "scale",
            "scenarios",
            "policies",
            "faults",
            "migrations",
            "clusters",
            "router",
            "placement",
            "entries",
            "wall_s_total",
        }
        assert set(GRID.entry_fields) >= {
            "scenario",
            "policy",
            "policy_name",
            "faults",
            "migration",
            "clusters",
            "router",
            "placement",
            "workload",
            "fault_events",
            "requests",
            "finished",
            "shed",
            "lost_to_fault",
            "incomplete",
            "completion_ratio",
            "local_routed",
            "remote_routed",
            "rerouted",
            "migrated_sessions",
            "migration_hits",
            "displaced",
            "instance_kills",
            "cluster_outages",
            "wan_degrades",
            "cross_cluster_bytes",
            "dispatch_bytes",
            "migration_bytes",
            "recovery_transient_s",
            "admitted",
            "queue_peak",
            "ttft_p50",
            "tpot_p50",
            "throughput_tokens_per_s",
            "slo_scale",
            "slo_violation_ratio",
            "slo_attainment",
            "wall_s",
        }
        assert set(SCALE_KEYS) == {
            "name", "num_instances", "trace_duration_s", "drain_timeout_s"
        }
        assert set(FAULT_KINDS) == {"instance_kill", "cluster_outage", "wan_degrade"}

    def test_validate_document_flags_missing_keys(self):
        assert validate_document(GRID, {}) != []

    def test_strip_wall_clock_removes_only_wall_clock(self):
        document = {
            "schema_version": 1,
            "wall_s_total": 3.2,
            "cache_hits": 4,
            "cache_misses": 0,
            "entries": [{"faults": "none", "wall_s": 1.0, "ttft_p50": 0.5}],
        }
        stripped = strip_wall_clock(document)
        assert "wall_s_total" not in stripped
        assert "cache_hits" not in stripped and "cache_misses" not in stripped
        assert "wall_s" not in stripped["entries"][0]
        assert stripped["entries"][0]["ttft_p50"] == 0.5
        assert document["wall_s_total"] == 3.2  # original untouched


#: The acceptance document: the default chaos grid (none + cluster-outage
#: x sticky + migrate) at the quick scale ``python -m repro.chaos`` uses.
@pytest.fixture(scope="module")
def quick_document():
    return run_grid(GRID, scale=QUICK_CHAOS_SCALE, seed=42, max_workers=1)


@pytest.mark.chaos
class TestAcceptance:
    def test_document_is_valid_and_conserved(self, quick_document, tmp_path):
        assert validate_document(GRID, quick_document) == []
        entries = assert_document_invariants(quick_document)
        assert len(entries) == 4  # (none, cluster-outage) x (sticky, migrate)
        # The workload is identical across cells of one scenario.
        assert len({entry["requests"] for entry in entries}) == 1
        for entry in entries:
            assert (
                entry["local_routed"] + entry["remote_routed"] + entry["rerouted"]
                == entry["requests"]
            )

        path = write_results(GRID, quick_document, tmp_path / "CHAOS_results.json")
        reloaded = json.loads(path.read_text())
        assert validate_document(GRID, reloaded) == []
        assert reloaded == quick_document

        text = format_results(GRID, quick_document)
        assert "cluster-outage" in text and "migrate" in text

    def test_no_fault_baseline_is_clean(self, quick_document):
        # Locality routing means the healthy baseline never touches the
        # WAN — every cross-cluster byte in a fault cell is fault cost.
        for entry in quick_document["entries"]:
            if entry["faults"] == "none":
                assert entry["fault_events"] == 0
                assert entry["lost_to_fault"] == 0
                assert entry["displaced"] == 0
                assert entry["cross_cluster_bytes"] == 0
                assert entry["recovery_transient_s"] == 0.0
                assert entry["completion_ratio"] == 1.0

    def test_migration_beats_sticky_under_a_cluster_outage(self, quick_document):
        # The chaos acceptance criterion, pinned: under a deterministic
        # outage of one of two clusters, session migration loses zero
        # requests and is strictly better than sticky routing on both the
        # recovery transient and the WAN bytes moved.
        outage = {
            entry["migration"]: entry
            for entry in quick_document["entries"]
            if entry["faults"] == "cluster-outage"
        }
        sticky, migrate = outage["sticky"], outage["migrate"]

        assert migrate["lost_to_fault"] == 0
        assert migrate["completion_ratio"] == 1.0
        assert sticky["lost_to_fault"] > 0

        assert migrate["displaced"] > 0  # the outage did displace work
        assert migrate["migrated_sessions"] > 0
        assert migrate["migration_hits"] > 0  # moves amortise over sessions

        assert migrate["recovery_transient_s"] < sticky["recovery_transient_s"]
        assert migrate["cross_cluster_bytes"] < sticky["cross_cluster_bytes"]

        # Both see the same dead-home arrivals; they differ in what each
        # arrival costs, not in how many there are.
        assert migrate["rerouted"] == sticky["rerouted"] > 0


@pytest.mark.chaos
class TestSweep:
    GRID = dict(
        scenarios=["steady-poisson"],
        policies=["vllm"],
        faults=["cluster-outage"],
        migrations=["sticky", "migrate"],
    )

    def test_sweep_is_deterministic_across_worker_counts(self):
        sequential = run_grid(GRID, 
            scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID
        )
        parallel = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=2, **self.GRID)
        assert strip_wall_clock(parallel) == strip_wall_clock(sequential)

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

    def test_unknown_axis_values_are_rejected(self):
        with pytest.raises(KeyError):
            run_grid(GRID, scenarios=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_grid(GRID, faults=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_grid(GRID, migrations=["nope"], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, faults=[], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, scale=TINY_SCALE, max_workers=0)

    @pytest.mark.slow
    def test_every_fault_preset_conserves_requests(self):
        # The wide grid: every preset x both migrations, property-style.
        document = run_grid(GRID, 
            scenarios=["steady-poisson"],
            policies=["vllm"],
            faults=list_fault_presets(),
            migrations=["sticky", "migrate"],
            scale=TINY_SCALE,
            seed=4,
            max_workers=2,
        )
        assert validate_document(GRID, document) == []
        entries = assert_document_invariants(document)
        assert len(entries) == 2 * len(list_fault_presets())
        by_cell = {(e["faults"], e["migration"]): e for e in entries}
        assert by_cell[("instance-kill", "sticky")]["instance_kills"] == 1
        assert by_cell[("cluster-outage", "migrate")]["cluster_outages"] == 1
        assert by_cell[("wan-degrade", "sticky")]["wan_degrades"] == 1


@pytest.mark.chaos
class TestCLI:
    def test_cli_runs_grid_and_writes_results(self, tmp_path):
        output = tmp_path / "CHAOS_results.json"
        code = main(
            GRID,
            [
                "--scenarios", "steady-poisson",
                "--policies", "vllm",
                "--faults", "none",
                "--migrations", "sticky",
                "--sequential",
                "--no-cache",
                "--output", str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert validate_document(GRID, document) == []
        assert len(document["entries"]) == 1
        assert document["entries"][0]["faults"] == "none"

    def test_cli_lists_registries(self, capsys):
        assert main(GRID, ["--list-faults"]) == 0
        assert "cluster-outage" in capsys.readouterr().out
        assert main(GRID, ["--list-migrations"]) == 0
        assert "migrate" in capsys.readouterr().out

    def test_cli_rejects_unknown_axis(self, capsys):
        assert main(GRID, ["--faults", "nope", "--sequential", "--no-cache"]) == 2
        assert main(GRID, ["--migrations", "nope", "--sequential", "--no-cache"]) == 2

    @pytest.mark.slow
    def test_cli_streams_metrics(self, tmp_path, capsys):
        output = tmp_path / "CHAOS_results.json"
        stream = tmp_path / "metrics.prom"
        code = main(
            GRID,
            [
                "--scenarios", "steady-poisson",
                "--policies", "vllm",
                "--faults", "none",
                "--migrations", "sticky",
                "--sequential",
                "--no-cache",
                "--output", str(output),
                "--metrics-out", str(stream),
            ]
        )
        assert code == 0
        text = stream.read_text()
        assert "# scrape 1 " in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_requests_submitted_total" in text
        assert "streamed" in capsys.readouterr().out


class TestMarkers:
    def test_project_markers_are_declared(self):
        # Regression guard: ``-m chaos`` / ``-m "not slow"`` silently match
        # nothing when a marker is used but never declared in pytest.ini.
        ini = configparser.ConfigParser()
        ini.read(pathlib.Path(__file__).resolve().parents[1] / "pytest.ini")
        declared = {
            line.split(":", 1)[0].strip()
            for line in ini["pytest"]["markers"].strip().splitlines()
        }
        assert {"slow", "chaos"} <= declared
