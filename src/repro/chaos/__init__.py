"""Chaos engineering for the simulated serving fleet.

Faults are a first-class sweep axis: a :class:`~repro.chaos.config.FaultSchedule`
describes *when* and *where* instance kills, whole-cluster outages and
WAN-link degradations strike, deterministically — either at fixed trigger
times or hazard-rate-sampled from the experiment seed — and the
:class:`~repro.chaos.injector.ChaosInjector` replays the schedule on the
shared event loop of a running system.  The chaos grid
(:mod:`repro.chaos.grid`, ``python -m repro.chaos``) crosses fault
schedules with session-migration policies and writes ``CHAOS_results.json``.
"""

from repro.chaos.config import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    fault_schedule_preset,
    list_fault_presets,
    sampled_kill_schedule,
    schedule_fingerprint,
)
from repro.chaos.injector import ChaosInjector

# Note: :mod:`repro.chaos.grid` is intentionally *not* imported here —
# it pulls in :mod:`repro.serving`, whose config embeds
# :class:`~repro.chaos.config.FaultSchedule` from this package; import it
# directly where needed.

__all__ = [
    "ChaosInjector",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "fault_schedule_preset",
    "list_fault_presets",
    "sampled_kill_schedule",
    "schedule_fingerprint",
]
