"""Online serving frontend: live arrival ingestion + closed-loop clients.

Everything below this package pre-schedules a complete
:class:`~repro.workloads.trace.Workload` before the event loop starts.
``repro.serve`` puts a *frontend* in front of the stack instead:

* :class:`~repro.serve.gateway.OnlineGateway` — replays an arrival
  stream (any iterator, e.g. :func:`~repro.serve.sources.workload_arrivals`)
  into the shared event loop **incrementally**, holding exactly one
  arrival of lookahead, so the system provably never sees the future;
* :class:`~repro.serve.clients.ClosedLoopPopulation` — N closed-loop
  clients with seeded think times, multi-turn sessions, a bounded
  retry-with-backoff policy keyed off the admission controller's shed
  callbacks, and a backpressure channel that throttles issue rates
  while the fleet is overloaded;
* a cached client-behaviour grid (:mod:`repro.serve.grid`,
  ``python -m repro.serve``) writing ``SERVE_results.json`` with
  *client-observed* metrics: goodput, retries, give-ups, and
  client-perceived TTFT including retry delay.
"""

from repro.serve.clients import ClosedLoopPopulation
from repro.serve.config import (
    BACKPRESSURE_MODES,
    RETRY_POLICIES,
    ClientPopulationConfig,
    list_backpressure_modes,
    list_retry_policies,
)
from repro.serve.gateway import OnlineGateway
from repro.serve.sources import workload_arrivals

__all__ = [
    "BACKPRESSURE_MODES",
    "ClientPopulationConfig",
    "ClosedLoopPopulation",
    "OnlineGateway",
    "RETRY_POLICIES",
    "list_backpressure_modes",
    "list_retry_policies",
    "workload_arrivals",
]
