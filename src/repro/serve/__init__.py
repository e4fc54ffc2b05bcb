"""Online serving frontend: live arrival ingestion + closed-loop clients.

Everything below this package pre-schedules a complete
:class:`~repro.workloads.trace.Workload` before the event loop starts.
``repro.serve`` puts a *frontend* in front of the stack instead:

* :class:`~repro.serve.gateway.OnlineGateway` — replays an arrival
  stream (generator handle, JSONL file tail, rate-shaped synthetic
  source) into the shared event loop **incrementally**, holding exactly
  one arrival of lookahead, so the system provably never sees the
  future;
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
from repro.serve.sources import (
    jsonl_arrivals,
    synthetic_arrivals,
    workload_arrivals,
    write_jsonl_trace,
)

__all__ = [
    "BACKPRESSURE_MODES",
    "ClientPopulationConfig",
    "ClosedLoopPopulation",
    "OnlineGateway",
    "RETRY_POLICIES",
    "jsonl_arrivals",
    "list_backpressure_modes",
    "list_retry_policies",
    "synthetic_arrivals",
    "workload_arrivals",
    "write_jsonl_trace",
]
