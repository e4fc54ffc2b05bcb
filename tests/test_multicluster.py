"""Tests for the fleet-of-fleets tier (``repro.multicluster``).

Covers the global-router and placement registries and strategy behaviour
(on stub cluster handles), the cross-cluster WAN link cost model, the
multicluster preset parser, the end-to-end sharded system (local vs.
remote routing, WAN-delayed dispatch, placement-directed scale-ups), the
``MULTICLUSTER_results.json`` schema contract, and the determinism
guarantee: same grid + seed ⇒ bit-identical documents across runs,
across parallel vs. sequential execution and across cold vs. warm caches
(modulo ``wall_s*``).  The locality acceptance criterion is pinned here:
``locality_affinity`` produces strictly less cross-cluster traffic than
``weighted_round_robin`` on the same sweep cell.
"""

from __future__ import annotations

import json

import pytest

from invariants import assert_document_invariants
from repro.cluster.network import (
    CrossClusterLink,
    InterClusterLinkSpec,
    NetworkFabric,
)
from repro.engine.request import Request
from repro.experiments.runner import ExperimentScale
from repro.multicluster import (
    DOCUMENT_KEYS,
    ENTRY_KEYS,
    GlobalRouter,
    MultiClusterConfig,
    SCALE_KEYS,
    SCHEMA_VERSION,
    home_cluster_index,
    list_global_routers,
    list_placements,
    make_global_router,
    make_multicluster_config,
    make_placement,
    multicluster_preset,
    register_global_router,
    strip_wall_clock,
    validate_document,
)
from repro.multicluster.fabric import InterClusterFabric
from repro.multicluster.routing import _GLOBAL_ROUTERS
from repro.multicluster.sweep import (
    run_multicluster_cell,
    run_multicluster_sweep,
    tier_workload_scale,
    write_results,
    format_results,
)
from repro.multicluster.system import MultiClusterSystem
from repro.policies import make_policy
from repro.scenarios.sweep import build_cell_config
from repro.scenarios.registry import get_scenario
from repro.simulation.event_loop import EventLoop

#: Scale small enough that a multicluster cell completes in about a second
#: (instances *per cluster*).
TINY_SCALE = ExperimentScale(
    name="multicluster-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=5.0,
)


class StubHandle:
    """The ClusterHandle surface global routers and placements read."""

    def __init__(
        self,
        index: int,
        *,
        ratio: float = 0.0,
        backlog: int = 0,
        groups: int = 1,
        spares: int = 0,
        cost: float = 1.0,
    ) -> None:
        self.index = index
        self._ratio = ratio
        self._backlog = backlog
        self._groups = groups
        self._spares = spares
        self._cost = cost

    def kv_ratio(self) -> float:
        return self._ratio

    def backlog(self) -> int:
        return self._backlog

    def routable_group_count(self) -> int:
        return self._groups

    def spare_instance_count(self) -> int:
        return self._spares

    def cost_per_token(self) -> float:
        return self._cost


def request(i: int = 0, session_id=None) -> Request:
    return Request(
        arrival_time=float(i), prompt_tokens=8, max_output_tokens=4,
        session_id=session_id,
    )


def session_with_home(home: int, num_clusters: int) -> str:
    """A session id whose home cluster is ``home`` (searched, deterministic)."""
    for attempt in range(1000):
        candidate = f"session-{attempt}"
        if home_cluster_index(request(session_id=candidate), num_clusters) == home:
            return candidate
    raise AssertionError("no session found")  # pragma: no cover


class TestGlobalRouterRegistry:
    def test_builtins_are_registered(self):
        assert {
            "least_loaded_cluster",
            "weighted_round_robin",
            "locality_affinity",
            "spillover",
        } <= set(list_global_routers())

    def test_make_router_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_global_router("no-such-router")

    def test_register_rejects_duplicates_unless_overwrite(self):
        class Custom(GlobalRouter):
            def route(self, request, clusters):
                return clusters[0]

        register_global_router("custom-test-global-router", Custom)
        try:
            with pytest.raises(ValueError):
                register_global_router("custom-test-global-router", Custom)
            register_global_router("custom-test-global-router", Custom, overwrite=True)
            assert (
                make_global_router("custom-test-global-router").name
                == "custom-test-global-router"
            )
        finally:
            del _GLOBAL_ROUTERS["custom-test-global-router"]

    def test_placement_registry(self):
        assert {"spare_capacity_first", "cost_weighted"} <= set(list_placements())
        with pytest.raises(KeyError):
            make_placement("no-such-placement")


class TestGlobalRouterStrategies:
    def test_least_loaded_prefers_lowest_kv_pressure(self):
        clusters = [
            StubHandle(0, ratio=0.8, backlog=0),
            StubHandle(1, ratio=0.2, backlog=50),
            StubHandle(2, ratio=0.2, backlog=10),
        ]
        router = make_global_router("least_loaded_cluster")
        # Lowest ratio wins; equal ratios fall back to the shorter backlog.
        assert router.route(request(), clusters).index == 2

    def test_weighted_round_robin_is_proportional_and_smooth(self):
        clusters = [StubHandle(0, groups=1), StubHandle(1, groups=3)]
        router = make_global_router("weighted_round_robin")
        picks = [router.route(request(i), clusters).index for i in range(8)]
        assert picks.count(0) == 2 and picks.count(1) == 6
        # Smooth: the low-weight cluster is interleaved, not batched last.
        assert picks[:4].count(0) == 1

    def test_locality_affinity_pins_sessions_to_home(self):
        clusters = [StubHandle(i) for i in range(3)]
        router = make_global_router("locality_affinity")
        req = request(session_id="user-42")
        home = home_cluster_index(req, 3)
        picks = {router.route(request(i, session_id="user-42"), clusters).index
                 for i in range(5)}
        assert picks == {home}

    def test_spillover_stays_home_until_threshold_then_picks_cheapest(self):
        session = session_with_home(0, 3)
        clusters = [
            StubHandle(0, backlog=0, groups=1),
            StubHandle(1, cost=2.0),
            StubHandle(2, cost=1.0),
        ]
        router = make_global_router("spillover", spill_queue_depth=4)
        assert router.route(request(session_id=session), clusters).index == 0
        # Home sheds (backlog at threshold x groups): cheapest remote wins.
        clusters[0]._backlog = 4
        assert router.route(request(session_id=session), clusters).index == 2
        # Pressure on the cheap remote makes the expensive one competitive.
        clusters[2]._ratio = 3.0
        assert router.route(request(session_id=session), clusters).index == 1

    def test_home_cluster_is_stable_and_in_range(self):
        req = request(session_id="abc")
        assert home_cluster_index(req, 4) == home_cluster_index(req, 4)
        assert 0 <= home_cluster_index(req, 4) < 4
        # Requests without a session hash their shape bucket, deterministically.
        bare = request()
        assert home_cluster_index(bare, 2) == home_cluster_index(request(), 2)


class TestPlacementPolicies:
    def test_spare_capacity_first_picks_most_spares(self):
        pressured = StubHandle(0, spares=0)
        candidates = [StubHandle(1, spares=1), StubHandle(2, spares=3)]
        assert make_placement("spare_capacity_first").place(pressured, candidates).index == 2

    def test_cost_weighted_picks_cheapest_pressure_scaled(self):
        pressured = StubHandle(0)
        candidates = [
            StubHandle(1, spares=1, cost=1.0, ratio=2.0),  # 1.0 * 3.0 = 3.0
            StubHandle(2, spares=1, cost=2.0, ratio=0.0),  # 2.0 * 1.0 = 2.0
        ]
        assert make_placement("cost_weighted").place(pressured, candidates).index == 2

    def test_empty_candidates_decline(self):
        for name in list_placements():
            assert make_placement(name).place(StubHandle(0), []) is None


class TestCrossClusterLink:
    def test_transfer_pays_latency_then_bandwidth(self):
        loop = EventLoop()
        fabric = NetworkFabric(loop)
        fabric.add_node("a", 1e9)
        fabric.add_node("b", 1e9)
        link = CrossClusterLink(
            loop, fabric, "a", "b", InterClusterLinkSpec(bandwidth=1e9, latency_s=0.5)
        )
        done = []
        link.transfer(1e9, on_complete=lambda t: done.append(loop.now))
        loop.run()
        # 0.5 s propagation + 1 GB / (1 GB/s) of exclusive bandwidth.
        assert done == [pytest.approx(1.5)]
        assert link.bytes_sent == 1e9 and link.transfers == 1

    def test_concurrent_transfers_share_the_uplink(self):
        loop = EventLoop()
        fabric = InterClusterFabric(
            loop, 3, InterClusterLinkSpec(bandwidth=1e9, latency_s=0.0)
        )
        done = {}
        # Two transfers out of cluster 0 contend on its WAN uplink.
        fabric.transfer(0, 1, 1e9, on_complete=lambda t: done.setdefault("b", loop.now))
        fabric.transfer(0, 2, 1e9, on_complete=lambda t: done.setdefault("c", loop.now))
        loop.run()
        assert done["b"] == pytest.approx(2.0) and done["c"] == pytest.approx(2.0)
        assert fabric.bytes_sent == 2e9 and fabric.transfers == 2

    def test_link_spec_is_validated(self):
        with pytest.raises(ValueError):
            InterClusterLinkSpec(bandwidth=0.0, latency_s=0.1)
        with pytest.raises(ValueError):
            InterClusterLinkSpec(bandwidth=1e9, latency_s=-0.1)
        loop = EventLoop()
        fabric = NetworkFabric(loop)
        fabric.add_node("a", 1e9)
        with pytest.raises(KeyError):
            CrossClusterLink(
                loop, fabric, "a", "missing", InterClusterLinkSpec(1e9, 0.0)
            )


class TestConfig:
    def test_preset_forms(self):
        assert multicluster_preset("3").num_clusters == 3
        assert multicluster_preset("locality_affinity").global_router == "locality_affinity"
        combined = multicluster_preset("2/spillover/cost_weighted")
        assert combined.num_clusters == 2
        assert combined.global_router == "spillover"
        assert combined.placement == "cost_weighted"

    def test_unknown_names_are_rejected(self):
        with pytest.raises(KeyError):
            multicluster_preset("2/nope")
        with pytest.raises(KeyError):
            multicluster_preset("2/spillover/nope")
        with pytest.raises(KeyError):
            make_multicluster_config(cluster_router="nope")
        with pytest.raises(KeyError):
            make_multicluster_config(cluster_autoscaler="nope")
        with pytest.raises(KeyError):
            multicluster_preset("2/spillover/cost_weighted/extra")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MultiClusterConfig(num_clusters=0)
        with pytest.raises(ValueError):
            MultiClusterConfig(wan_bandwidth=0.0)
        with pytest.raises(ValueError):
            MultiClusterConfig(wan_latency_s=-1.0)
        with pytest.raises(ValueError):
            MultiClusterConfig(tick_interval_s=0.0)


class TestSystem:
    @staticmethod
    def build(router: str, seed: int = 3, cluster_count: int = 2, **tier):
        spec = get_scenario("steady-poisson")
        config = build_cell_config(spec, TINY_SCALE, seed=seed)
        config.multicluster = make_multicluster_config(
            num_clusters=cluster_count, global_router=router, **tier
        )
        return config, spec

    def test_system_requires_multicluster_config(self):
        spec = get_scenario("steady-poisson")
        config = build_cell_config(spec, TINY_SCALE, seed=1)
        with pytest.raises(ValueError):
            MultiClusterSystem(config, lambda: make_policy("vllm"))

    def test_shards_share_one_loop_and_serve_end_to_end(self):
        config, spec = self.build("least_loaded_cluster")
        system = MultiClusterSystem(config, lambda: make_policy("vllm"))
        assert len(system.systems) == 2
        assert all(sub.loop is system.loop for sub in system.systems)
        workload_scale = ExperimentScale(
            name="t", num_instances=4, trace_duration_s=5.0, drain_timeout_s=5.0
        )
        result = system.run(spec.build_workload(workload_scale, 3))
        assert result.submitted_requests > 0
        assert result.finished_requests > 0
        assert len(result.records) == result.submitted_requests
        stats = system.stats()
        assert stats["local_routed"] + stats["remote_routed"] == result.submitted_requests
        # Remote dispatches crossed the WAN fabric, one transfer each.
        assert stats["cross_cluster_transfers"] == stats["remote_routed"]

    def test_remote_dispatches_pay_the_wan_delay(self):
        # A latency far above any transfer's bandwidth time, so only the
        # propagation delay can account for the lateness asserted below.
        config, spec = self.build("weighted_round_robin", wan_latency_s=1.0)
        system = MultiClusterSystem(config, lambda: make_policy("vllm"))
        first_received = {}
        for shard in system.systems:
            def recording(request, _submit=shard.submit):
                first_received.setdefault(request.request_id, (system.loop.now, request))
                _submit(request)

            shard.submit = recording
        system.run(spec.build_workload(tier_workload_scale(TINY_SCALE, 2), 3))
        wan = config.multicluster.wan_latency_s
        late = [(now, r) for now, r in first_received.values() if now > r.arrival_time]
        assert late
        for now, request in late:
            assert now >= request.arrival_time + wan
        assert len(late) == system.stats()["remote_routed"]

    def test_locality_affinity_generates_zero_wan_traffic(self):
        cell = run_multicluster_cell(
            "steady-poisson", "vllm", 2, "locality_affinity", "spare_capacity_first",
            TINY_SCALE, seed=3,
        )
        assert cell.tier_stats["remote_routed"] == 0
        assert cell.tier_stats["cross_cluster_bytes"] == 0

    def test_placement_directs_scale_up_to_a_sibling(self):
        # The pressured shard has no local spares by the time the burst
        # peaks; the placement tick activates a sibling's spare instead.
        cell = run_multicluster_cell(
            "steady-poisson", "vllm", 2, "locality_affinity", "spare_capacity_first",
            TINY_SCALE, seed=3,
        )
        assert cell.tier_stats["scale_up_events"] >= 1
        assert cell.tier_stats["remote_scale_ups"] >= 1

    def test_every_policy_composes_with_the_tier(self):
        for policy in ("vllm", "kunserve"):
            cell = run_multicluster_cell(
                "steady-poisson", policy, 2, "spillover", "cost_weighted",
                TINY_SCALE, seed=5,
            )
            assert cell.requests > 0
            assert cell.finished > 0


class TestSchema:
    def test_schema_contract_is_pinned(self):
        # The compatibility contract of MULTICLUSTER_results.json: keys may
        # grow in a new schema version but must never be renamed or removed.
        assert SCHEMA_VERSION == 1
        assert set(DOCUMENT_KEYS) >= {
            "schema_version",
            "repro_version",
            "seed",
            "scale",
            "scenarios",
            "policies",
            "cluster_counts",
            "routers",
            "placements",
            "entries",
            "wall_s_total",
        }
        assert set(ENTRY_KEYS) >= {
            "scenario",
            "policy",
            "policy_name",
            "clusters",
            "router",
            "placement",
            "workload",
            "requests",
            "local_routed",
            "remote_routed",
            "cross_cluster_ratio",
            "cross_cluster_bytes",
            "admitted",
            "shed",
            "queue_peak",
            "scale_up_events",
            "remote_scale_ups",
            "scale_down_events",
            "initial_groups",
            "final_groups",
            "finished",
            "completion_ratio",
            "ttft_p50",
            "tpot_p50",
            "throughput_tokens_per_s",
            "slo_scale",
            "slo_violation_ratio",
            "slo_attainment",
            "wall_s",
        }
        assert set(SCALE_KEYS) == {"name", "num_instances", "trace_duration_s", "drain_timeout_s"}

    def test_validate_document_flags_missing_keys(self):
        assert validate_document({}) != []

    def test_strip_wall_clock_removes_only_wall_clock(self):
        document = {
            "schema_version": 1,
            "wall_s_total": 3.2,
            "cache_hits": 4,
            "entries": [{"scenario": "x", "wall_s": 1.0, "ttft_p50": 0.5}],
        }
        stripped = strip_wall_clock(document)
        assert "wall_s_total" not in stripped and "cache_hits" not in stripped
        assert "wall_s" not in stripped["entries"][0]
        assert stripped["entries"][0]["ttft_p50"] == 0.5
        assert document["wall_s_total"] == 3.2  # original untouched


class TestSweep:
    GRID = dict(
        scenarios=["steady-poisson"],
        policies=["vllm"],
        cluster_counts=[2],
        routers=["weighted_round_robin", "locality_affinity"],
        placements=["spare_capacity_first"],
    )

    def test_sequential_sweep_emits_valid_document(self, tmp_path):
        document = run_multicluster_sweep(
            scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID
        )
        assert validate_document(document) == []
        assert len(document["entries"]) == 2
        assert document["routers"] == self.GRID["routers"]
        assert document["cluster_counts"] == [2]
        assert_document_invariants(document)
        for entry in document["entries"]:
            assert entry["requests"] > 0
            assert entry["local_routed"] + entry["remote_routed"] == entry["requests"]
            assert entry["cross_cluster_ratio"] == pytest.approx(
                entry["remote_routed"] / entry["requests"]
            )
            assert 0.0 <= entry["slo_violation_ratio"] <= 1.0
            assert entry["slo_attainment"] == pytest.approx(
                1.0 - entry["slo_violation_ratio"]
            )

        path = write_results(document, tmp_path / "MULTICLUSTER_results.json")
        reloaded = json.loads(path.read_text())
        assert validate_document(reloaded) == []
        assert reloaded == document

        text = format_results(document)
        assert "locality_affinity" in text
        assert "spare_capacity_first" in text

    def test_locality_affinity_reduces_cross_cluster_traffic(self):
        # The acceptance criterion, pinned: on the same sweep cell the
        # locality router moves strictly less traffic (and fewer bytes)
        # across clusters than weighted round-robin.
        document = run_multicluster_sweep(
            scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID
        )
        by_router = {entry["router"]: entry for entry in document["entries"]}
        wrr = by_router["weighted_round_robin"]
        locality = by_router["locality_affinity"]
        assert locality["remote_routed"] < wrr["remote_routed"]
        assert locality["cross_cluster_bytes"] < wrr["cross_cluster_bytes"]
        assert locality["cross_cluster_ratio"] < wrr["cross_cluster_ratio"]
        assert wrr["remote_routed"] > 0

    def test_sweep_is_deterministic_modulo_wall_clock(self):
        first = run_multicluster_sweep(scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        second = run_multicluster_sweep(scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_parallel_sweep_matches_sequential(self):
        sequential = run_multicluster_sweep(
            scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID
        )
        parallel = run_multicluster_sweep(
            scale=TINY_SCALE, seed=2, max_workers=2, **self.GRID
        )
        assert strip_wall_clock(parallel) == strip_wall_clock(sequential)

    def test_warm_rerun_is_served_from_cache_and_identical(self, tmp_path):
        cold = run_multicluster_sweep(
            scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        warm = run_multicluster_sweep(
            scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 2
        assert warm["cache_hits"] == 2 and warm["cache_misses"] == 0
        assert strip_wall_clock(warm) == strip_wall_clock(cold)

    def test_unknown_axis_values_are_rejected(self):
        with pytest.raises(KeyError):
            run_multicluster_sweep(scenarios=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_multicluster_sweep(routers=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_multicluster_sweep(placements=["nope"], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_multicluster_sweep(cluster_counts=[0], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_multicluster_sweep(routers=[], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_multicluster_sweep(scale=TINY_SCALE, max_workers=0)


class TestCLI:
    def test_cli_runs_tiny_grid_and_writes_results(self, tmp_path):
        from repro.multicluster.__main__ import main

        output = tmp_path / "MULTICLUSTER_results.json"
        code = main(
            [
                "--scenarios", "steady-poisson",
                "--policies", "vllm",
                "--cluster-counts", "2",
                "--routers", "locality_affinity",
                "--placements", "spare_capacity_first",
                "--sequential",
                "--no-cache",
                "--output", str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert validate_document(document) == []
        assert len(document["entries"]) == 1

    def test_cli_lists_registries(self, capsys):
        from repro.multicluster.__main__ import main

        assert main(["--list-routers"]) == 0
        assert "locality_affinity" in capsys.readouterr().out
        assert main(["--list-placements"]) == 0
        assert "cost_weighted" in capsys.readouterr().out

    def test_cli_rejects_unknown_axis(self, capsys):
        from repro.multicluster.__main__ import main

        assert main(["--routers", "nope", "--sequential", "--no-cache"]) == 2
