"""The serve grid (``python -m repro.serve``, ``SERVE_results.json``).

Every cell serves a registered scenario **online** through a fleet-enabled
system under one of two frontends:

* ``clients="open"``: an :class:`~repro.serve.gateway.OnlineGateway`
  replays the scenario trace on its own schedule, however the system is
  doing.  Retry and backpressure do not apply, so an open cell is one cell
  per (scenario, policy), pinned to ``retry="none"``, ``backpressure="off"``;
* ``clients="<N>"``: a :class:`~repro.serve.clients.ClosedLoopPopulation`
  of N clients works through the same trace as session-aware intent
  scripts, pacing itself with seeded think times, retrying sheds with
  bounded backoff and optionally throttling under backpressure.

Admission is deliberately tight (shallow queues, a short TTFT shed budget)
so the default overload scenario sheds, and open vs. closed loop and retry
vs. give-up become measured differences.  SLOs are derived from
client-perceived latency, so an abandoned intent is a violation.

Accounting identities (``tests/invariants.py`` checks every entry):
``submitted == issued + retries``, ``submitted == finished + shed +
incomplete``, ``shed == retries + retry_pending + gave_up`` and
``offered == finished + gave_up + client_incomplete``.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.fleet.config import AdmissionConfig
from repro.serve.config import (
    BACKPRESSURE_MODES,
    RETRY_POLICIES,
    ClientPopulationConfig,
    list_backpressure_modes,
    list_retry_policies,
)
from repro.sweeps.grid import (
    OPEN_LOOP,
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    Axis,
    Grid,
    Setting,
    fleet_change,
    sweep_scales,
)

#: Shallow per-tenant queues and a short TTFT shed budget (contrast the
#: other grids' ``SWEEP_ADMISSION``), so overload scenarios shed visibly.
SERVE_ADMISSION = AdmissionConfig(max_queue_depth=4, max_group_waiting=4, ttft_shed_s=3.0)

#: Closed-loop cells run to ``trace_duration_s * factor + drain_timeout_s``:
#: a population pacing itself through the trace takes a multiple of the
#: open-loop duration (intents serialise per client), and retry with backoff
#: needs room to drain its give-up savings.
CLOSED_HORIZON_FACTOR = 12.0


def normalize_clients(token: Union[str, int]) -> str:
    """Canonicalise a ``clients`` value: ``"open"`` or a positive count."""
    token = str(token)
    if token == OPEN_LOOP:
        return token
    try:
        count = int(token)
    except ValueError:
        raise ValueError(
            f"clients must be {OPEN_LOOP!r} or a positive integer, got {token!r}"
        ) from None
    if count < 1:
        raise ValueError(f"client count must be >= 1, got {count}")
    return str(count)


def _use_clients(cell, token: str) -> None:
    scale = cell.scale
    if token == OPEN_LOOP:
        cell.frontend = OPEN_LOOP
        cell.horizon_s = scale.trace_duration_s + scale.drain_timeout_s
    else:
        cell.frontend = ClientPopulationConfig(num_clients=int(token))
        cell.horizon_s = scale.trace_duration_s * CLOSED_HORIZON_FACTOR + scale.drain_timeout_s


def _population_change(name: str, presets):
    def apply(cell, value: str) -> None:
        if cell.frontend != OPEN_LOOP:
            cell.frontend = dataclasses.replace(cell.frontend, **{name: presets[value]})

    return apply


def _open_loop_takes(value: str):
    return lambda values: value if values["clients"] == OPEN_LOOP else None


GRID = Grid(
    name="serve",
    document="SERVE_results.json",
    description="Sweep scenarios across the online client-behaviour grid "
    "(open- vs. closed-loop, retry policy, backpressure) and write SERVE_results.json.",
    scales=sweep_scales("serve", full_drain_s=60.0),
    axes=(
        dataclasses.replace(SCENARIOS, default=("spike-train",)),
        POLICIES,
        Axis(
            "clients", "clients", apply=_use_clients, parse=normalize_clients,
            default=(OPEN_LOOP, "64"), metavar="N|open",
            help="client axis: 'open' and/or counts",
        ),
        Axis(
            "retries", "retry", apply=_population_change("max_attempts", RETRY_POLICIES),
            known=list_retry_policies, default=("none", "backoff"),
            pinned=_open_loop_takes("none"), metavar="POLICY", help="retry policies",
        ),
        Axis(
            "backpressure", "backpressure",
            apply=_population_change("backpressure", BACKPRESSURE_MODES),
            known=list_backpressure_modes, default=("off", "on"),
            pinned=_open_loop_takes("off"), metavar="MODE", help="backpressure modes",
        ),
    ),
    fixed=(
        Setting("router", "least_loaded", fleet_change("router")),
        Setting("autoscaler", "fixed", fleet_change("autoscaler")),
    ),
    base=lambda cell: cell.tune_fleet(admission=SERVE_ADMISSION),
    probes=("metrics_out", "trace", "trace_out", "alerts"),
    # The last cell: with the default axes a closed-loop one, so the
    # replayed stream includes the client series.
    replay=-1,
    entry_fields=(
        "scenario",                 # registry name, e.g. "spike-train"
        "policy",                   # overload-policy key, e.g. "vllm"
        "policy_name",              # display name, e.g. "vLLM (DP)"
        "mode",                     # "open" | "closed"
        "clients",                  # "open" or the client count, e.g. "16"
        "retry",                    # retry-policy name ("none", "backoff")
        "backpressure",             # backpressure mode ("off", "on")
        "router",                   # fleet router
        "autoscaler",               # autoscaler preset
        "workload",                 # materialised workload name
        "horizon_s",                # run_online() horizon of this cell
        "offered",                  # logical intents (= trace requests)
        "issued",                   # intents whose first attempt submitted
        "submitted",                # engine submissions (issued + retries)
        "finished",                 # attempts finished before the horizon
        "shed",                     # attempts rejected by admission
        "retries",                  # retry attempts actually submitted
        "retry_pending",            # retries scheduled, unsubmitted at end
        "gave_up",                  # intents abandoned (attempts exhausted)
        "incomplete",               # submitted - finished - shed (in flight)
        "client_incomplete",        # offered - finished - gave_up
                                    # (unissued / awaiting retry / in flight)
        "completion_ratio",         # finished / submitted
        "goodput_per_submitted",    # finished / submitted: the open- vs.
                                    # closed-loop acceptance metric
        "client_ttft_p50",          # client-perceived TTFT percentiles (first
        "client_ttft_p90",          # submission -> first token, retry and
        "client_ttft_p99",          # backoff delay included), null if none
        "client_e2e_p50",           # first submission -> finish
        *SUMMARY_KEYS,
        "admitted",                 # attempts dispatched to a serving group
        "queue_peak",               # admission-queue peak depth
        *SLO_KEYS,
        "wall_s",                   # host wall-clock of this cell
    ),
    listings=(
        ("--list-retries", "retry policies", list_retry_policies),
        ("--list-backpressure", "backpressure modes", list_backpressure_modes),
    ),
    columns=(
        ("scenario", "scenario", "<16"), ("clients", "clients", "<7"),
        ("retry", "retry", "<8"), ("backpressure", "bp", "<3"),
        ("offered", "offer", ">5d"), ("submitted", "subm", ">5d"),
        ("finished", "fin", ">5d"), ("shed", "shed", ">5d"),
        ("retries", "rtry", ">5d"), ("gave_up", "gvup", ">5d"),
        ("goodput_per_submitted", "goodput", ">8.3f"),
        ("client_ttft_p50", "c_ttft50", ">9.3f"), ("slo_attainment", "slo_att", ">8.2f"),
    ),
)
