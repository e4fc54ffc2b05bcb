"""Deterministic fault schedules: the configuration side of chaos.

A :class:`FaultSchedule` is an ordered tuple of :class:`FaultEvent`
records, each naming a fault *kind*, a trigger time in simulation
seconds, and a target.  Schedules are plain frozen dataclasses — picklable
(they ride inside ``ServingConfig`` to sweep worker processes), keyed into
every chaos cell's cache key with the rest of its config (name and
events, see :func:`repro.sweeps.grid.cell_task`), and deliberately
import-light like the other config modules embedded in
:class:`repro.serving.config.ServingConfig`.

Two ways to build one:

* **fixed trigger times** — construct :class:`FaultEvent` records
  directly, or use :func:`fault_schedule_preset` for the named shapes the
  chaos sweep grids over;
* **hazard-rate sampling** — :func:`sampled_kill_schedule` draws
  exponential inter-fault gaps from the simulation's seeded RNG
  (:class:`repro.simulation.rng.SeededRNG` child stream ``"chaos"``), so
  a "churn" schedule is a pure function of the experiment seed.

Fault kinds
-----------

``instance_kill``
    One serving instance of one cluster shard fails; the shard recovers
    via :class:`repro.core.fault_tolerance.FaultToleranceManager`
    (survivor restore + displaced-request recompute).

``cluster_outage``
    A whole cluster shard goes dark: every instance fails, every group
    is retired, spares are unusable, and the tier's session-migration
    policy decides the fate of the displaced requests (see
    ``MultiClusterConfig.session_migration``).

``wan_degrade``
    The inter-cluster WAN degrades for ``duration_s`` seconds: every
    uplink's bandwidth is scaled by ``bandwidth_factor`` and every
    link's propagation delay by ``latency_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The recognised fault kinds, in severity order.
FAULT_KINDS: Tuple[str, ...] = ("instance_kill", "cluster_outage", "wan_degrade")


@dataclass(frozen=True)
class FaultEvent:
    """One fault: what strikes, when, and where.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at_s: trigger time in simulation seconds (>= 0; events at or past
            the run horizon never fire).
        cluster: target cluster shard index (``instance_kill`` and
            ``cluster_outage``; ignored by ``wan_degrade``, which hits
            every link).
        instance: target instance index within the cluster
            (``instance_kill`` only).
        duration_s: how long a ``wan_degrade`` lasts; ``0`` means until
            the end of the run.  Outages are permanent — the recovery
            story is migration, not resurrection.
        bandwidth_factor: remaining fraction of WAN bandwidth during a
            ``wan_degrade`` (``0 < factor <= 1``).
        latency_factor: WAN propagation-delay multiplier during a
            ``wan_degrade`` (``>= 1``).
    """

    kind: str
    at_s: float
    cluster: int = 0
    instance: int = 0
    duration_s: float = 0.0
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.cluster < 0:
            raise ValueError(f"cluster must be >= 0, got {self.cluster}")
        if self.instance < 0:
            raise ValueError(f"instance must be >= 0, got {self.instance}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if not (0.0 < self.bandwidth_factor <= 1.0):
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.latency_factor < 1.0:
            raise ValueError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """A named, ordered set of fault events.

    Events are stored sorted by ``(at_s, kind, cluster, instance)`` so
    two schedules built from the same events in different orders are
    equal — and hash to the same cache key.
    """

    events: Tuple[FaultEvent, ...] = ()
    name: str = "none"

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.at_s, e.kind, e.cluster, e.instance))
        )
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def kinds(self) -> Dict[str, int]:
        """Event count per fault kind (zero-filled over every kind)."""
        counts = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts


def sampled_kill_schedule(
    *,
    seed: int,
    duration_s: float,
    num_clusters: int,
    instances_per_cluster: int,
    rate_per_min: float,
    name: str = "churn",
) -> FaultSchedule:
    """Hazard-rate instance-kill schedule: exponential gaps from the sim RNG.

    Inter-kill gaps are exponential with mean ``60 / rate_per_min``
    seconds, drawn from the ``SeededRNG(seed).child("chaos")`` stream, and
    victims cycle deterministically over ``(cluster, instance)`` pairs —
    so the schedule is a pure function of ``(seed, duration_s, topology,
    rate)`` and bit-identical across runs and worker processes.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    if num_clusters < 1 or instances_per_cluster < 1:
        raise ValueError("num_clusters and instances_per_cluster must be >= 1")
    if rate_per_min <= 0:
        raise ValueError(f"rate_per_min must be positive, got {rate_per_min}")
    # Local import keeps this module import-light for config embedding.
    from repro.simulation.rng import SeededRNG

    rng = SeededRNG(seed, "chaos")
    mean_gap_s = 60.0 / rate_per_min
    events: List[FaultEvent] = []
    now = float(rng.exponential(mean_gap_s))
    victim = 0
    total = num_clusters * instances_per_cluster
    while now < duration_s:
        events.append(
            FaultEvent(
                kind="instance_kill",
                at_s=now,
                cluster=victim % num_clusters,
                instance=(victim // num_clusters) % instances_per_cluster,
            )
        )
        victim = (victim + 1) % total
        now += float(rng.exponential(mean_gap_s))
    return FaultSchedule(events=tuple(events), name=name)


#: Fraction of the trace at which the single-fault presets strike: early
#: enough that most of the workload arrives *after* the fault (the regime
#: where session migration and sticky rerouting actually differ).
PRESET_FAULT_FRACTION = 0.25

#: WAN degradation shape used by the ``wan-degrade`` preset.
PRESET_WAN_BANDWIDTH_FACTOR = 0.1
PRESET_WAN_LATENCY_FACTOR = 4.0

#: Hazard rate of the ``churn`` preset (instance kills per minute).
PRESET_CHURN_RATE_PER_MIN = 4.0

_FAULT_PRESETS: Tuple[str, ...] = (
    "none",
    "instance-kill",
    "cluster-outage",
    "wan-degrade",
    "churn",
)


def list_fault_presets() -> List[str]:
    """Named fault-schedule presets the chaos sweep accepts."""
    return list(_FAULT_PRESETS)


def fault_schedule_preset(
    name: str,
    *,
    duration_s: float,
    num_clusters: int,
    instances_per_cluster: int,
    seed: int = 42,
) -> FaultSchedule:
    """Materialise a named preset for a concrete topology and trace length.

    Presets:

    * ``none`` — the empty schedule (the no-fault baseline cell).
    * ``instance-kill`` — one instance of cluster 0 fails at 25% of the
      trace; the shard's fault-tolerance manager recovers it.
    * ``cluster-outage`` — cluster 0 goes dark at 25% of the trace,
      permanently; the acceptance scenario for session migration.
    * ``wan-degrade`` — between 25% and 50% of the trace every WAN link
      runs at 10% bandwidth and 4x latency.
    * ``churn`` — hazard-sampled instance kills at
      :data:`PRESET_CHURN_RATE_PER_MIN` per minute from the sim RNG.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    strike = PRESET_FAULT_FRACTION * duration_s
    if name == "none":
        return FaultSchedule(name="none")
    if name == "instance-kill":
        return FaultSchedule(
            events=(FaultEvent(kind="instance_kill", at_s=strike, cluster=0, instance=0),),
            name=name,
        )
    if name == "cluster-outage":
        return FaultSchedule(
            events=(FaultEvent(kind="cluster_outage", at_s=strike, cluster=0),),
            name=name,
        )
    if name == "wan-degrade":
        return FaultSchedule(
            events=(
                FaultEvent(
                    kind="wan_degrade",
                    at_s=strike,
                    duration_s=strike,
                    bandwidth_factor=PRESET_WAN_BANDWIDTH_FACTOR,
                    latency_factor=PRESET_WAN_LATENCY_FACTOR,
                ),
            ),
            name=name,
        )
    if name == "churn":
        return sampled_kill_schedule(
            seed=seed,
            duration_s=duration_s,
            num_clusters=num_clusters,
            instances_per_cluster=instances_per_cluster,
            rate_per_min=PRESET_CHURN_RATE_PER_MIN,
        )
    raise KeyError(
        f"unknown fault preset {name!r}; known: {', '.join(_FAULT_PRESETS)}"
    )
