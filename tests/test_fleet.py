"""Tests for the elastic-fleet subsystem (``repro.fleet``).

Covers the router registry and strategy behaviour, admission control
(bounded queues, SLO shedding, tenant fairness), the autoscaler's
scale-up/cold-start/drain lifecycle end-to-end on the simulator, the
``FLEET_results.json`` schema contract, and the determinism guarantee:
same grid + seed ⇒ bit-identical documents across runs and across
parallel vs. sequential execution (modulo ``wall_s*``).
"""

from __future__ import annotations

import json
import random

import pytest

from invariants import assert_document_invariants
from repro.cluster.specs import cluster_a_spec
from repro.engine.request import Request
from repro.experiments.runner import ExperimentScale
from repro.fleet import (
    AdmissionConfig,
    AdmissionController,
    FleetConfig,
    fleet_preset,
    list_autoscaler_presets,
    list_routers,
    make_fleet_config,
    make_router,
    register_router,
)
from repro.fleet.autoscaler import COLD_START_S, COOLDOWN_S
from repro.fleet.grid import GRID
from repro.fleet.routing import Router, _ROUTERS
from repro.multicluster.routing import home_cluster_index
from repro.policies import make_policy
from repro.scenarios.grid import GRID as SCENARIO_GRID
from repro.scenarios.registry import get_scenario
from repro.sweeps.grid import (
    SCALE_KEYS,
    SCHEMA_VERSION,
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
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem

from tests.test_dispatcher import StubGroup, request

#: Scale small enough that a fleet cell completes in well under a second.
TINY_SCALE = ExperimentScale(
    name="fleet-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=5.0,
)


def build_system(
    *,
    num_servers: int = 2,
    router: str = "least_loaded",
    autoscaler: str = "fixed",
    admission: AdmissionConfig = AdmissionConfig(),
    policy: str = "vllm",
    drain_timeout_s: float = 10.0,
) -> ClusterServingSystem:
    config = ServingConfig(
        cluster=cluster_a_spec(num_servers=num_servers),
        drain_timeout_s=drain_timeout_s,
        fleet=FleetConfig(router=router, admission=admission, autoscaler=autoscaler),
    )
    return ClusterServingSystem(config, make_policy(policy))


class TestRouterRegistry:
    def test_builtins_are_registered(self):
        assert {
            "least_loaded",
            "round_robin",
            "power_of_two_choices",
            "memory_headroom",
            "session_affinity",
        } <= set(list_routers())

    def test_make_router_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_router("no-such-router")

    def test_register_rejects_duplicates_unless_overwrite(self):
        class Custom(Router):
            def route(self, request, groups):
                return groups[0]

        register_router("custom-test-router", Custom)
        try:
            with pytest.raises(ValueError):
                register_router("custom-test-router", Custom)
            register_router("custom-test-router", Custom, overwrite=True)
            assert make_router("custom-test-router").name == "custom-test-router"
        finally:
            del _ROUTERS["custom-test-router"]

    def test_make_fleet_config_validates_both_axes(self):
        with pytest.raises(KeyError):
            make_fleet_config(router="nope")
        with pytest.raises(KeyError):
            make_fleet_config(autoscaler="nope")

    def test_fleet_preset_forms(self):
        assert fleet_preset("elastic").autoscaler == "elastic"
        assert fleet_preset("fixed").autoscaler == "fixed"
        assert fleet_preset("round_robin").router == "round_robin"
        combined = fleet_preset("memory_headroom/elastic")
        assert combined.router == "memory_headroom"
        assert combined.autoscaler == "elastic"
        assert "fixed" in list_autoscaler_presets()


class TestRouterStrategies:
    def test_round_robin_cursor_wraps_around(self):
        router = make_router("round_robin")
        groups = [StubGroup(i) for i in range(3)]
        chosen = [router.route(request(i), groups).group_id for i in range(7)]
        assert chosen == [0, 1, 2, 0, 1, 2, 0]

    def test_session_affinity_and_home_cluster_share_one_hash(self):
        """The tier's locality accounting relies on a session's home
        cluster being the slot affinity routing picks among as many
        groups."""
        router = make_router("session_affinity")
        groups = [StubGroup(i) for i in range(3)]
        reqs = [
            Request(arrival_time=0.0, prompt_tokens=8 << i, max_output_tokens=4,
                    session_id=None if i % 2 else f"user-{i}")
            for i in range(12)
        ]
        picks = [router.route(r, groups).group_id for r in reqs]
        assert picks == [home_cluster_index(r, len(groups)) for r in reqs]
        assert len(set(picks)) > 1

    def test_memory_headroom_prefers_absolute_free_bytes(self):
        groups = [
            # Lower ratio but less absolute headroom...
            StubGroup(0, capacity=1000, demand=400),
            # ...vs a bigger (merged) group with more free bytes.
            StubGroup(1, capacity=4000, demand=2000),
        ]
        assert make_router("memory_headroom").route(request(), groups).group_id == 1
        assert make_router("least_loaded").route(request(), groups).group_id == 0

    def test_power_of_two_choices_is_seed_deterministic(self):
        groups = [StubGroup(i, demand=100 * i) for i in range(6)]
        picks_a = [
            make_router("power_of_two_choices", seed=5).route(request(i), groups).group_id
            for i in range(10)
        ]
        router = make_router("power_of_two_choices", seed=5)
        picks_b = [router.route(request(i), groups).group_id for i in [0] * 10]
        # Fresh router per call restarts the stream; one router advances it.
        assert picks_a[0] == picks_b[0]
        router_c = make_router("power_of_two_choices", seed=5)
        picks_c = [router_c.route(request(i), groups).group_id for i in [0] * 10]
        assert picks_b == picks_c

    def test_power_of_two_picks_less_loaded_of_pair(self):
        # With exactly two groups the router degenerates to least-loaded.
        groups = [StubGroup(0, demand=900), StubGroup(1, demand=100)]
        router = make_router("power_of_two_choices", seed=1)
        assert all(router.route(request(i), groups).group_id == 1 for i in range(5))

    def test_session_affinity_is_sticky(self):
        groups = [StubGroup(i) for i in range(4)]
        router = make_router("session_affinity")
        reqs = [
            Request(arrival_time=0.0, prompt_tokens=8, max_output_tokens=4,
                    session_id="user-42")
            for _ in range(5)
        ]
        picks = {router.route(r, groups).group_id for r in reqs}
        assert len(picks) == 1
        other = Request(
            arrival_time=0.0, prompt_tokens=8, max_output_tokens=4, session_id="user-7"
        )
        # A different session may map elsewhere; the same one never does.
        assert router.route(other, groups).group_id == router.route(other, groups).group_id

    def test_session_affinity_falls_back_when_blocked(self):
        groups = [StubGroup(i) for i in range(4)]
        router = make_router("session_affinity")
        req = Request(
            arrival_time=0.0, prompt_tokens=8, max_output_tokens=4, session_id="sticky"
        )
        home = router.route(req, groups)
        home.scheduler.memory_blocked = True
        fallback = router.route(req, groups)
        assert fallback is not home


class TestAdmissionControl:
    @staticmethod
    def controller(config: AdmissionConfig, groups):
        return AdmissionController(
            config, make_router("least_loaded"), groups_provider=lambda: groups
        )

    def test_passthrough_when_groups_accept(self):
        group = StubGroup(0)
        admission = self.controller(AdmissionConfig(), [group])
        assert admission.submit(request(), now=0.0) == "dispatched"
        assert group.enqueued and admission.admitted == 1

    def test_bounded_queue_sheds_overflow(self):
        group = StubGroup(0, waiting=100)
        config = AdmissionConfig(max_queue_depth=2, max_group_waiting=10)
        admission = self.controller(config, [group])
        outcomes = [admission.submit(request(i), now=0.0) for i in range(4)]
        assert outcomes == ["queued", "queued", "shed", "shed"]
        assert admission.shed == 2
        assert admission.queued == 2

    def test_queue_drains_when_capacity_frees(self):
        group = StubGroup(0, waiting=100)
        config = AdmissionConfig(max_queue_depth=10, max_group_waiting=10)
        admission = self.controller(config, [group])
        assert admission.submit(request(), now=0.0) == "queued"
        group.scheduler.num_waiting = 0
        assert admission.drain(now=1.0) == 1
        assert admission.queued == 0 and len(group.enqueued) == 1

    def test_memory_blocked_groups_do_not_accept(self):
        group = StubGroup(0)
        group.scheduler.memory_blocked = True
        admission = self.controller(AdmissionConfig(), [group])
        assert admission.submit(request(), now=0.0) == "queued"

    def test_slo_shed_drops_expired_queued_requests(self):
        group = StubGroup(0, waiting=100)
        config = AdmissionConfig(max_group_waiting=10, ttft_shed_s=2.0)
        admission = self.controller(config, [group])
        admission.submit(request(0), now=0.0)  # arrival_time 0.0
        admission.drain(now=1.0)
        assert admission.shed == 0 and admission.queued == 1
        admission.drain(now=5.0)  # waited 5 s > 2 s budget
        assert admission.shed == 1 and admission.queued == 0
        assert group.enqueued == []

    def test_readmitted_requests_are_never_shed_nor_double_counted(self):
        group = StubGroup(0, waiting=100)
        config = AdmissionConfig(max_group_waiting=10, ttft_shed_s=2.0)
        admission = self.controller(config, [group])
        old = request(0)  # arrival_time 0.0, already far past the budget
        assert admission.readmit(old) == "queued"
        admission.drain(now=50.0)
        assert admission.shed == 0 and admission.queued == 1
        group.scheduler.num_waiting = 0
        admission.drain(now=51.0)
        # Dispatched despite its age, and not re-counted as admitted.
        assert admission.queued == 0 and admission.admitted == 0
        assert len(group.enqueued) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_queued_count_equals_the_tenant_queues(self, seed):
        """The maintained ``queued`` count equals the tenant queues' total
        after every step of a random submit / drain / expiry shed /
        readmit / ``evict_all`` sequence."""

        class AdoptingGroup(StubGroup):
            def adopt_waiting(self, request):
                self.enqueued.append(request)

        tenants = ("chat", "summary", "batch")
        rng = random.Random(seed)
        group = AdoptingGroup(0, waiting=100)
        config = AdmissionConfig(max_queue_depth=2, max_group_waiting=10, ttft_shed_s=3.0)
        admission = self.controller(config, [group])
        now = 0.0
        seen = set()
        for _ in range(300):
            now += rng.random()
            action = rng.choice(("submit", "submit", "readmit", "drain", "evict_all"))
            # Flip the group between accepting and full so every action
            # takes both of its routes.
            group.scheduler.num_waiting = rng.choice((0, 100, 100, 100))
            arrival = now - 6.0 * rng.random()
            fresh = Request(arrival_time=arrival, prompt_tokens=8, max_output_tokens=4,
                            slo_class=rng.choice(tenants))
            shed = admission.shed
            if action == "submit":
                seen.add(admission.submit(fresh, now))
            elif action == "readmit":
                seen.add(admission.readmit(fresh))
            elif action == "drain":
                admission.drain(now)
            else:
                admission.evict_all()
            if admission.shed > shed and action == "drain":
                seen.add("expiry shed")
            assert admission.queued == sum(admission.queued_for(t) for t in tenants)
        assert {"dispatched", "queued", "shed", "expiry shed"} <= seen

    def test_round_robin_fairness_under_multi_tenant_pressure(self):
        """A flooding tenant cannot starve sparse tenants of drain slots.

        Capacity frees in small slices (the group re-blocks after four
        dispatches); every slice must serve the tenants round-robin, so
        the sparse tenants finish long before the flood does.
        """

        class BackpressureGroup(StubGroup):
            # Dispatching fills the group's backlog again, so each drain
            # round admits at most ``max_group_waiting`` requests.
            def enqueue(self, request):
                super().enqueue(request)
                self.scheduler.num_waiting += 1

        group = BackpressureGroup(0, waiting=100)
        config = AdmissionConfig(max_group_waiting=4)
        admission = self.controller(config, [group])
        flood = [Request(arrival_time=0.0, prompt_tokens=8, max_output_tokens=4,
                         slo_class="chat") for _ in range(30)]
        sparse = [Request(arrival_time=0.0, prompt_tokens=8, max_output_tokens=4,
                          slo_class=tenant)
                  for tenant in ("summary", "batch") for _ in range(3)]
        for r in flood + sparse:
            admission.submit(r, now=0.0)
        assert admission.queued == 36

        for tick in range(5):
            group.scheduler.num_waiting = 0
            admission.drain(now=1.0 + tick)

        order = [r.slo_class for r in group.enqueued]
        # Every drain slice starts by visiting all three tenants once.
        assert set(order[:3]) == {"chat", "summary", "batch"}
        # 5 slices x 4 slots: the six sparse requests all got through while
        # the flood tenant still has a deep backlog — no starvation.
        assert order.count("summary") == 3 and order.count("batch") == 3
        assert admission.queued_for("summary") == 0
        assert admission.queued_for("batch") == 0
        assert admission.queued_for("chat") > 0
        # Fair share: in the first two slices (8 slots) the flood tenant
        # got at most half despite holding 30/36 of the queue.
        assert order[:8].count("chat") <= 4

    def test_tenant_fairness_round_robins_between_classes(self):
        group = StubGroup(0, waiting=100)
        config = AdmissionConfig(max_group_waiting=10)
        admission = self.controller(config, [group])
        chat = [Request(arrival_time=0.0, prompt_tokens=8, max_output_tokens=4,
                        slo_class="chat") for _ in range(4)]
        summary = [Request(arrival_time=0.0, prompt_tokens=8, max_output_tokens=4,
                           slo_class="summary") for _ in range(2)]
        for r in chat + summary:
            admission.submit(r, now=0.0)
        group.scheduler.num_waiting = 0
        admission.drain(now=1.0)
        order = [r.slo_class for r in group.enqueued]
        # Tenants alternate while both have work, regardless of arrival order.
        assert order[:4] in (["chat", "summary"] * 2, ["summary", "chat"] * 2)
        assert sorted(order) == ["chat"] * 4 + ["summary"] * 2


class TestAutoscalerEndToEnd:
    @staticmethod
    def workload(seed: int = 3, duration_s: float = 20.0):
        return get_scenario("spike-train").build_workload(
            ExperimentScale(
                name="t", num_instances=3, trace_duration_s=duration_s,
                drain_timeout_s=duration_s,
            ),
            seed=seed,
        )

    def test_reserve_holds_back_spare_instances(self):
        system = build_system(num_servers=3, autoscaler="elastic")
        assert len(system.instances) == 3
        assert len(system.groups) == 2
        assert len(system.fleet.autoscaler.spare_instances) == 1
        # Spare instances are cold: no weights loaded, no KV capacity.
        spare = system.fleet.autoscaler.spare_instances[0]
        assert spare.num_resident_layers == 0

    def test_reserve_never_empties_the_fleet(self):
        system = build_system(num_servers=1, autoscaler="elastic")
        assert len(system.groups) == 1  # clamped: one instance must serve
        assert system.fleet.autoscaler.spare_instances == []

    def test_scale_up_pays_cold_start_then_scale_down_returns_spare(self):
        # A 12 s spike followed by a 25 s idle tail: the burst forces a
        # scale-up, the calm tail lets the autoscaler drain back down.
        system = build_system(
            num_servers=3,
            autoscaler="elastic",
            admission=AdmissionConfig(max_group_waiting=16),
            drain_timeout_s=25.0,
        )
        result = system.run(self.workload(duration_s=12.0))
        scaler = system.fleet.autoscaler
        assert scaler.scale_up_events >= 1
        events = {e["kind"]: e for e in system.metrics.events}
        assert "fleet-scale-up" in events and "fleet-group-up" in events
        up = next(e for e in system.metrics.events if e["kind"] == "fleet-scale-up")
        joined = next(e for e in system.metrics.events if e["kind"] == "fleet-group-up")
        assert joined["time"] == pytest.approx(up["time"] + COLD_START_S)
        # The burst passes, the fleet shrinks again, work still finished.
        assert scaler.scale_down_events >= 1
        assert result.finished_requests > 0

    def test_fixed_preset_never_scales(self):
        system = build_system(num_servers=2, autoscaler="fixed")
        system.run(self.workload())
        stats = system.fleet.stats()
        assert stats["scale_up_events"] == 0
        assert stats["scale_down_events"] == 0

    def test_draining_group_is_not_routable(self):
        system = build_system(num_servers=2, autoscaler="elastic")
        fleet = system.fleet
        victim = system.groups[0]
        fleet.autoscaler.draining.append(victim)
        assert victim not in fleet.routable_groups()


class TestFleetFaultInjection:
    """Fault injection at fleet scope: ``core.fault_tolerance`` composed
    with the autoscaler (first slice of the ROADMAP item).

    An active instance dies mid-run; the fault-tolerance manager re-homes
    its requests and the elastic autoscaler backfills the lost capacity
    from the spare pool, bounding the recovery transient.
    """

    def test_fleet_reconverges_after_instance_failure(self):
        from repro.core.fault_tolerance import FaultToleranceManager

        system = build_system(
            num_servers=3,
            autoscaler="elastic",
            admission=AdmissionConfig(max_group_waiting=16),
            drain_timeout_s=20.0,
        )
        assert len(system.fleet.routable_groups()) == 2  # one spare held back
        manager = FaultToleranceManager(system)
        victim = system.groups[0].instances[0]
        fail_time = 4.0
        system.loop.schedule_at(fail_time, lambda: manager.fail_instance(victim))
        # (time, routable groups) as each activated spare joins the fleet.
        joined = []
        scaler = system.fleet.autoscaler
        activate = scaler._activate

        def recording_activate(instance):
            activate(instance)
            joined.append((system.loop.now, len(system.fleet.routable_groups())))

        scaler._activate = recording_activate

        workload = get_scenario("spike-train").build_workload(
            ExperimentScale(
                name="t", num_instances=2, trace_duration_s=12.0, drain_timeout_s=12.0
            ),
            seed=3,
        )
        result = system.run(workload)

        (report,) = manager.reports
        assert report.failed_instance_id == victim.instance_id
        assert report.time == pytest.approx(fail_time)
        # The dead instance left the fleet for good...
        alive = [inst for g in system.groups for inst in g.instances]
        assert victim not in alive
        assert victim not in system.fleet.autoscaler.spare_instances
        # ...its displaced requests were re-homed, not lost...
        assert report.recomputed_requests + report.requeued_requests > 0
        # ...and the autoscaler backfilled from the spare pool, so the
        # fleet re-converged to its pre-failure serving capacity (later
        # calm may drain it again).
        assert scaler.scale_up_events >= 1
        assert any(time > fail_time and groups >= 2 for time, groups in joined)
        # Bounded recovery transient: service resumed promptly after the
        # failure (first post-failure finish within a few cold-starts).
        post_failure = [
            r.finish_time
            for r in result.records
            if r.finish_time is not None and r.finish_time > fail_time
        ]
        assert post_failure, "no request finished after the failure"
        assert min(post_failure) - fail_time < 5.0
        assert result.finished_requests > 0

    def test_fleet_without_a_routable_group_scales_up_after_the_cooldown(self):
        system = build_system(num_servers=2, autoscaler="elastic")
        scaler = system.fleet.autoscaler
        system.retire_group(system.groups[0])
        assert system.fleet.routable_groups() == [] and scaler.has_spare
        scaler._last_action_time = 0.0
        scaler.tick(COOLDOWN_S - 1.0)
        assert scaler.scale_up_events == 0
        scaler.tick(COOLDOWN_S)
        assert scaler.scale_up_events == 1

    def test_elastic_fleet_whose_last_group_dies_scales_up(self):
        # The kill at 7.5 s takes the only serving group; the spare must
        # come up and serve the queue that built behind it.
        cell = run_cell(materialise(GRID, {
            "scenario": "steady-poisson", "policy": "vllm", "router": "least_loaded",
            "autoscaler": "elastic", "faults": "instance-kill",
        }, GRID.scales["quick"], seed=42))
        assert cell["initial_groups"] == 1
        assert cell["scale_up_events"] >= 1
        assert cell["finished"] > 0

    def test_failure_without_elasticity_still_recovers_service(self):
        from repro.core.fault_tolerance import FaultToleranceManager

        system = build_system(
            num_servers=2,
            autoscaler="fixed",
            drain_timeout_s=15.0,
        )
        manager = FaultToleranceManager(system)
        victim = system.groups[1].instances[0]
        system.loop.schedule_at(3.0, lambda: manager.fail_instance(victim))
        workload = get_scenario("steady-poisson").build_workload(
            ExperimentScale(
                name="t", num_instances=2, trace_duration_s=8.0, drain_timeout_s=8.0
            ),
            seed=4,
        )
        result = system.run(workload)
        # No spares to backfill: the fleet shrinks to one group but keeps
        # serving everything the survivor can absorb.
        assert len(system.fleet.routable_groups()) == 1
        assert result.finished_requests > 0


class TestServingIntegration:
    def test_fleet_runs_match_plain_dispatcher_when_permissive(self):
        """A permissive fixed fleet serves the same workload successfully."""
        values = {"scenario": "steady-poisson", "policy": "vllm"}
        plain = run_cell(materialise(SCENARIO_GRID, values, TINY_SCALE, seed=4))
        fleet = run_cell(
            materialise(SCENARIO_GRID, {**values, "fleet": "fixed"}, TINY_SCALE, seed=4)
        )
        assert fleet["requests"] == plain["requests"]
        # Admission is pass-through at defaults: nothing shed, all admitted.
        assert fleet["finished"] == plain["finished"]
        assert fleet["latencies"] == plain["latencies"]

    def test_every_policy_composes_with_the_fleet_layer(self):
        for policy in ("vllm", "infercept", "llumnix", "kunserve"):
            cell = run_cell(materialise(GRID, {
                "scenario": "steady-poisson", "policy": policy, "router": "least_loaded",
                "autoscaler": "elastic", "faults": "none",
            }, TINY_SCALE, seed=5))
            assert cell["requests"] > 0
            assert cell["finished"] > 0

    def test_scenario_sweep_fleet_axis_is_additive(self):
        document = run_grid(
            SCENARIO_GRID,
            scenarios=["steady-poisson"],
            policies=["vllm"],
            scale=TINY_SCALE,
            seed=2,
            max_workers=1,
            fleet="elastic",
        )
        assert document["fleet"] == "elastic"
        assert validate_document(SCENARIO_GRID, document) == []
        with pytest.raises(KeyError):
            run_grid(
                SCENARIO_GRID,
                scenarios=["steady-poisson"],
                policies=["vllm"],
                scale=TINY_SCALE,
                max_workers=1,
                fleet="no-such-preset",
            )


class TestSchema:
    def test_schema_contract_is_pinned(self):
        # The compatibility contract of FLEET_results.json: keys may grow
        # in a new schema version but must never be renamed or removed.
        assert SCHEMA_VERSION == 1
        assert set(document_keys(GRID)) >= {
            "schema_version",
            "repro_version",
            "seed",
            "scale",
            "scenarios",
            "policies",
            "routers",
            "autoscalers",
            "faults",
            "entries",
            "wall_s_total",
        }
        assert set(GRID.entry_fields) >= {
            "scenario",
            "policy",
            "policy_name",
            "router",
            "autoscaler",
            "faults",
            "fault_events",
            "workload",
            "requests",
            "admitted",
            "shed",
            "queue_peak",
            "scale_up_events",
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
        assert validate_document(GRID, {}) != []

    def test_strip_wall_clock_removes_only_wall_clock(self):
        document = {
            "schema_version": 1,
            "wall_s_total": 3.2,
            "entries": [{"scenario": "x", "wall_s": 1.0, "ttft_p50": 0.5}],
        }
        stripped = strip_wall_clock(document)
        assert "wall_s_total" not in stripped
        assert "wall_s" not in stripped["entries"][0]
        assert stripped["entries"][0]["ttft_p50"] == 0.5
        assert document["wall_s_total"] == 3.2  # original untouched


class TestSweep:
    GRID = dict(
        scenarios=["spike-train"],
        policies=["vllm"],
        routers=["least_loaded", "round_robin", "power_of_two_choices", "memory_headroom"],
        autoscalers=["fixed", "elastic"],
    )

    def test_sequential_sweep_emits_valid_document(self, tmp_path):
        document = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert validate_document(GRID, document) == []
        assert len(document["entries"]) == 8  # 4 routers x 2 autoscalers
        assert document["routers"] == self.GRID["routers"]
        assert document["autoscalers"] == ["fixed", "elastic"]
        assert_document_invariants(document)
        for entry in document["entries"]:
            assert entry["requests"] > 0
            assert entry["admitted"] + entry["shed"] <= entry["requests"] + entry["queue_peak"]
            assert 0.0 <= entry["slo_violation_ratio"] <= 1.0
            assert entry["slo_attainment"] == pytest.approx(
                1.0 - entry["slo_violation_ratio"]
            )
            if entry["autoscaler"] == "fixed":
                assert entry["scale_up_events"] == 0
                assert entry["initial_groups"] == TINY_SCALE.num_instances

        path = write_results(GRID, document, tmp_path / "FLEET_results.json")
        reloaded = json.loads(path.read_text())
        assert validate_document(GRID, reloaded) == []
        assert reloaded == document

        text = format_results(GRID, document)
        assert "power_of_two_choices" in text
        assert "elastic" in text

    def test_sweep_is_deterministic_modulo_wall_clock(self):
        first = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        second = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_parallel_sweep_matches_sequential(self):
        sequential = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
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
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 8
        assert warm["cache_hits"] == 8 and warm["cache_misses"] == 0
        assert strip_wall_clock(warm) == strip_wall_clock(cold)

    def test_unknown_axis_values_are_rejected(self):
        with pytest.raises(KeyError):
            run_grid(GRID, scenarios=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_grid(GRID, routers=["nope"], scale=TINY_SCALE)
        with pytest.raises(KeyError):
            run_grid(GRID, autoscalers=["nope"], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, routers=[], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, scale=TINY_SCALE, max_workers=0)


class TestFaultsAxis:
    GRID = dict(
        scenarios=["steady-poisson"],
        policies=["vllm"],
        routers=["least_loaded"],
        autoscalers=["fixed"],
    )

    def test_faults_axis_materialises_single_cluster_schedules(self):
        document = run_grid(GRID, 
            faults=["none", "instance-kill"],
            scale=TINY_SCALE,
            seed=2,
            max_workers=1,
            **self.GRID,
        )
        assert validate_document(GRID, document) == []
        assert document["faults"] == ["none", "instance-kill"]
        entries = assert_document_invariants(document)
        by_faults = {entry["faults"]: entry for entry in entries}
        assert by_faults["none"]["fault_events"] == 0
        assert by_faults["instance-kill"]["fault_events"] == 1
        # Same workload either way; the kill only changes what happens to it.
        assert by_faults["none"]["requests"] == by_faults["instance-kill"]["requests"]
        assert by_faults["instance-kill"]["finished"] > 0

    def test_default_axis_is_the_no_fault_baseline(self):
        document = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert document["faults"] == ["none"]
        assert all(entry["faults"] == "none" for entry in document["entries"])
        assert all(entry["fault_events"] == 0 for entry in document["entries"])

    def test_tier_level_presets_are_rejected(self):
        # cluster-outage / wan-degrade are valid chaos presets but a
        # standalone fleet has no tier to inject them into.
        with pytest.raises(KeyError):
            run_grid(GRID, faults=["cluster-outage"], scale=TINY_SCALE, **self.GRID)
        with pytest.raises(KeyError):
            run_grid(GRID, faults=["nope"], scale=TINY_SCALE, **self.GRID)
        with pytest.raises(ValueError):
            run_grid(GRID, faults=[], scale=TINY_SCALE, **self.GRID)

    def test_fault_schedule_is_part_of_the_cache_key(self):
        def schedule_key(faults, seed):
            cell = materialise(GRID, {
                "scenario": "steady-poisson", "policy": "vllm", "router": "least_loaded",
                "autoscaler": "fixed", "faults": faults,
            }, TINY_SCALE, seed)
            return cell_task(cell).key["config"]["chaos"]

        assert schedule_key("none", 2) != schedule_key("instance-kill", 2)
        # churn is seed-dependent: a different seed is a different schedule.
        assert schedule_key("churn", 2) != schedule_key("churn", 3)


class TestCLI:
    def test_cli_runs_tiny_grid_and_writes_results(self, tmp_path, capsys):
        output = tmp_path / "FLEET_results.json"
        code = main(
            GRID,
            [
                "--scenarios", "steady-poisson",
                "--policies", "vllm",
                "--routers", "least_loaded", "round_robin",
                "--autoscalers", "fixed",
                "--sequential",
                "--output", str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert validate_document(GRID, document) == []
        assert len(document["entries"]) == 2

    def test_cli_lists_registries(self, capsys):
        assert main(GRID, ["--list-routers"]) == 0
        assert "power_of_two_choices" in capsys.readouterr().out
        assert main(GRID, ["--list-autoscalers"]) == 0
        assert "elastic" in capsys.readouterr().out
        assert main(GRID, ["--list-faults"]) == 0
        assert "instance-kill" in capsys.readouterr().out

    def test_cli_rejects_unknown_axis(self, capsys):
        assert main(GRID, ["--routers", "nope", "--sequential"]) == 2
        assert main(GRID, ["--faults", "cluster-outage", "--sequential"]) == 2
