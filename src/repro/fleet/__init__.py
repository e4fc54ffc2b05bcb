"""Elastic fleet layer (``python -m repro.fleet``).

Makes the fleet itself a simulated, policy-driven object in front of the
paper's memory-overload policies: a pluggable router registry
(:mod:`repro.fleet.routing`), an admission controller with bounded
queues, SLO-aware shedding and per-tenant fairness
(:mod:`repro.fleet.admission`), and an autoscaler that grows/drains
serving groups from spare cluster capacity with realistic cold-start
delays (:mod:`repro.fleet.autoscaler`) — all composed by
:class:`~repro.fleet.controller.FleetController` and driven through the
deterministic event loop.  The fleet grid (:mod:`repro.fleet.grid`,
``python -m repro.fleet``) replays scenarios across routers, autoscaler
presets and fault presets and writes ``FLEET_results.json``.

Note: :mod:`repro.fleet.grid` is intentionally *not* imported here — it
pulls in :mod:`repro.serving`, which itself resolves routers from this
package; import it directly where needed.
"""

from repro.fleet.admission import AdmissionController
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.config import (
    AUTOSCALER_PRESETS,
    AdmissionConfig,
    FleetConfig,
    list_autoscaler_presets,
)
from repro.fleet.controller import FleetController
from repro.fleet.routing import (
    LeastLoadedRouter,
    MemoryHeadroomRouter,
    PowerOfTwoChoicesRouter,
    RoundRobinRouter,
    Router,
    SessionAffinityRouter,
    list_routers,
    make_router,
)

__all__ = [
    "AUTOSCALER_PRESETS",
    "AdmissionConfig",
    "AdmissionController",
    "Autoscaler",
    "FleetConfig",
    "FleetController",
    "LeastLoadedRouter",
    "MemoryHeadroomRouter",
    "PowerOfTwoChoicesRouter",
    "RoundRobinRouter",
    "Router",
    "SessionAffinityRouter",
    "list_autoscaler_presets",
    "list_routers",
    "make_router",
]
