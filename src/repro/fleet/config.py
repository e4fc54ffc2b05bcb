"""Fleet-layer configuration: routing, admission control, autoscaling.

These dataclasses are deliberately import-light (stdlib only) so they can
be embedded in :class:`repro.serving.config.ServingConfig` and shipped to
sweep worker processes without dragging the serving stack along.

A :class:`FleetConfig` describes the elastic-fleet layer that sits *in
front of* the memory-overload policies the paper studies: which router
strategy dispatches requests (:mod:`repro.fleet.routing`), how the
admission controller bounds queues and sheds load
(:class:`AdmissionConfig`), and whether the autoscaler grows and shrinks
the set of serving groups (:data:`AUTOSCALER_PRESETS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission control: bounded queues, SLO-aware shedding, fairness.

    The defaults are deliberately permissive (effectively pass-through) so
    a fleet run with an untouched ``AdmissionConfig`` behaves like the
    plain dispatcher; presets tighten them to study shedding.

    Attributes:
        max_queue_depth: per-tenant bound on the admission queue; an
            arriving request is shed (rejected) when its tenant's queue is
            full.  Tenants are keyed by the request's ``slo_class``.
        max_group_waiting: a serving group stops *accepting* new requests
            once its scheduler backlog reaches this many waiting requests;
            arrivals then wait in the admission queue until a group frees
            up (or are shed).
        ttft_shed_s: SLO-aware shedding — a queued request that has
            already waited this long is shed instead of dispatched (it
            would violate its TTFT budget anyway and only add load).
            ``None`` disables SLO shedding.
    """

    max_queue_depth: int = 100_000
    max_group_waiting: int = 100_000
    ttft_shed_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.max_group_waiting <= 0:
            raise ValueError("max_group_waiting must be positive")
        if self.ttft_shed_s is not None and self.ttft_shed_s <= 0:
            raise ValueError("ttft_shed_s must be positive when set")


#: Named autoscaler presets (the fleet sweep's elasticity axis), each
#: mapped to whether the autoscaler acts.  "fixed" pins the fleet (the
#: paper's deployment); "elastic" holds spare capacity back and scales on
#: queue depth and memory pressure (:mod:`repro.fleet.autoscaler` holds
#: its thresholds, reserve and cold start).
AUTOSCALER_PRESETS: Dict[str, bool] = {"fixed": False, "elastic": True}


@dataclass(frozen=True)
class FleetConfig:
    """The whole fleet layer: router + admission + autoscaler.

    Attributes:
        router: router strategy name (:func:`repro.fleet.routing.list_routers`).
        admission: admission-control parameters.
        autoscaler: autoscaler preset name (:data:`AUTOSCALER_PRESETS`).
    """

    router: str = "least_loaded"
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    autoscaler: str = "fixed"

    def __post_init__(self) -> None:
        if not self.router:
            raise ValueError("router must be non-empty")
        if self.autoscaler not in AUTOSCALER_PRESETS:
            known = ", ".join(AUTOSCALER_PRESETS)
            raise KeyError(f"unknown autoscaler preset {self.autoscaler!r}; known: {known}")


def list_autoscaler_presets() -> List[str]:
    """Registered autoscaler preset names."""
    return list(AUTOSCALER_PRESETS)


__all__: Tuple[str, ...] = (
    "AdmissionConfig",
    "AUTOSCALER_PRESETS",
    "FleetConfig",
    "list_autoscaler_presets",
)
