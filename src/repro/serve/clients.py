"""Closed-loop client population with retry, give-up and backpressure.

Open-loop replay submits arrivals on a fixed schedule no matter how the
system is doing; real clients are *closed-loop*: each waits for its
previous request to resolve, thinks, then issues the next one — and when
the admission layer sheds them, they back off and retry instead of
silently vanishing.  This module models that population on the shared
deterministic event loop.

Vocabulary (shared with ``SERVE_results.json`` and
``tests/invariants.py``): an **intent** is one logical request (one
session turn); an **attempt** is one engine submission of an intent.
The accounting identities every run satisfies exactly:

* ``submitted_attempts == issued + retries``
* ``sheds_observed == retries + retry_pending + gave_up``
* ``offered == finished + gave_up + client_incomplete`` where
  ``client_incomplete`` counts intents still unissued, awaiting a
  pending retry, or in flight when the horizon ends.

Sessions: requests sharing a ``session_id`` are one multi-turn
conversation — all its turns belong to one client, issued strictly in
order.  Sessions are assigned to clients round-robin in first-arrival
order, so the partition is deterministic and independent of client
count randomness.

Client-perceived latency: TTFT is measured from the intent's *first*
submission, so retry delay (backoff included) is part of it — exactly
what a user staring at a spinner experiences.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.engine.request import Request
from repro.serve.config import ClientPopulationConfig
from repro.simulation.rng import SeededRNG
from repro.workloads.trace import Workload

#: Mean of the exponential think time between a client's resolved
#: (finished or abandoned) intent and its next issue, seconds.
THINK_TIME_MEAN_S = 0.5
#: Clients stagger their first issue uniformly over this window, so the
#: population does not arrive as one synchronized burst at t = 0.
STARTUP_WINDOW_S = 1.0
#: Retry backoff (:func:`backoff_delay_s`): base delay, growth factor per
#: retry, cap, and the half-width of the multiplicative jitter.
BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 8.0
JITTER_FRACTION = 0.25
#: Backpressure: while the fleet backlog is at least
#: ``BACKLOG_THRESHOLD`` requests, or a shed was seen within the last
#: ``SHED_WINDOW_S`` seconds, every client-side delay (think time, retry
#: backoff) is stretched by ``THROTTLE_FACTOR``.
BACKLOG_THRESHOLD = 16
SHED_WINDOW_S = 5.0
THROTTLE_FACTOR = 4.0


def backoff_delay_s(retry_index: int, rng) -> float:
    """Backoff before the ``retry_index``-th retry (1-based), jittered::

        min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (k - 1))

    scaled by a seeded factor uniform in ``[1 - JITTER_FRACTION,
    1 + JITTER_FRACTION]``.
    """
    if retry_index < 1:
        raise ValueError("retry_index is 1-based")
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (retry_index - 1))
    jitter = 1.0 + JITTER_FRACTION * (2.0 * rng.uniform() - 1.0)
    return base * jitter


@dataclasses.dataclass(frozen=True)
class Intent:
    """One logical request a client wants served."""

    prompt_tokens: int
    output_tokens: int
    slo_class: str
    session_id: Optional[str]


class _Client:
    """State machine of one closed-loop client."""

    __slots__ = ("client_id", "intents", "rng", "intent_index", "attempts",
                 "first_submit_time", "done")

    def __init__(self, client_id: int, intents: List[Intent], rng: SeededRNG) -> None:
        self.client_id = client_id
        self.intents = intents
        self.rng = rng
        self.intent_index = 0
        #: submissions of the current intent so far.
        self.attempts = 0
        #: when the current intent was first submitted (client-perceived t=0).
        self.first_submit_time: Optional[float] = None
        self.done = not intents

    @property
    def current_intent(self) -> Intent:
        return self.intents[self.intent_index]


def partition_intents(workload: Workload, num_clients: int) -> List[List[Intent]]:
    """Split a workload's requests into per-client intent scripts.

    Session-aware: turns sharing a ``session_id`` stay together, in
    arrival order, on one client; sessions (and session-less singletons)
    are dealt round-robin in first-arrival order.
    """
    sessions: Dict[str, List[Intent]] = {}
    order: List[str] = []
    for index, request in enumerate(workload.requests):
        key = request.session_id if request.session_id is not None else f"~{index}"
        if key not in sessions:
            sessions[key] = []
            order.append(key)
        sessions[key].append(
            Intent(
                prompt_tokens=request.prompt_tokens,
                output_tokens=request.output_tokens,
                slo_class=request.slo_class,
                session_id=request.session_id,
            )
        )
    scripts: List[List[Intent]] = [[] for _ in range(num_clients)]
    for position, key in enumerate(order):
        scripts[position % num_clients].extend(sessions[key])
    return scripts


class ClosedLoopPopulation:
    """N closed-loop clients driving one serving system.

    Pass to :meth:`~repro.serving.system.ClusterServingSystem.run_online`
    as a frontend.  Completion callbacks come from the system's group
    fan-out; shed callbacks from the fleet admission controller — so a
    fleet config is required whenever retries or backpressure are on
    (without admission nothing is ever shed and both would be dead code).
    """

    def __init__(
        self,
        system,
        workload: Workload,
        config: ClientPopulationConfig,
        *,
        seed: int = 42,
        name: str = "clients",
    ) -> None:
        self.system = system
        self.config = config
        self.name = name
        root = SeededRNG(seed, f"serve/{name}")
        scripts = partition_intents(workload, config.num_clients)
        self.clients = [
            _Client(i, intents, root.child(f"client-{i}"))
            for i, intents in enumerate(scripts)
        ]

        #: total intents across all clients (the demand).
        self.offered = sum(len(c.intents) for c in self.clients)
        #: intents whose first attempt was submitted.
        self.issued = 0
        #: retry attempts actually submitted.
        self.retries = 0
        #: retries scheduled but not yet submitted (pending backoff).
        self.retry_pending = 0
        #: intents completed (exactly one finishing attempt each).
        self.finished = 0
        #: intents abandoned after exhausting the attempt budget.
        self.gave_up = 0
        #: shed callbacks received for this population's attempts.
        self.sheds_observed = 0
        #: clients that still have intents to run.
        self.active_clients = sum(1 for c in self.clients if not c.done)

        self._inflight: Dict[int, _Client] = {}
        self._last_shed_time = float("-inf")
        self._client_latencies: List[Tuple[float, Optional[float]]] = []
        self._client_e2es: List[float] = []

        if config.max_attempts > 1 or config.backpressure:
            # add_shed_listener raises without a fleet; surface the why.
            if system.fleet is None:
                raise ValueError(
                    "closed-loop retry/backpressure need an admission layer: "
                    "set ServingConfig.fleet"
                )
        system.add_completion_listener(self._on_finished)
        if system.fleet is not None:
            system.add_shed_listener(self._on_shed)

    # ------------------------------------------------------------------
    # Frontend protocol
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Stagger every client's first issue over the startup window."""
        for client in self.clients:
            if client.done:
                continue
            delay = float(client.rng.uniform(0.0, STARTUP_WINDOW_S))
            self._schedule_issue(client, delay)

    @property
    def done(self) -> bool:
        """True once every client ran out of intents (finished or gave up)."""
        return all(client.done for client in self.clients)

    @property
    def submitted_attempts(self) -> int:
        return self.issued + self.retries

    @property
    def in_flight(self) -> int:
        """Attempts submitted but neither finished nor shed yet."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def client_latency_pairs(self) -> Tuple[Tuple[Optional[float], Optional[float]], ...]:
        """One ``(client_ttft, mean_tpot)`` pair per *intent*.

        Finished intents carry their client-perceived TTFT (retry delay
        included); abandoned and incomplete intents contribute
        ``(None, None)`` so SLO attainment charges them as violations —
        a give-up is the worst possible latency, not a missing sample.
        """
        pairs: List[Tuple[Optional[float], Optional[float]]] = list(
            self._client_latencies
        )
        pairs.extend([(None, None)] * (self.offered - self.finished))
        return tuple(pairs)

    def client_e2e_latencies(self) -> Tuple[float, ...]:
        """First-submission -> finish latency of every completed intent."""
        return tuple(self._client_e2es)

    def stats(self) -> Dict[str, int]:
        """Counters for the ``SERVE_results.json`` entry of this run."""
        return {
            "clients": self.config.num_clients,
            "offered": self.offered,
            "issued": self.issued,
            "submitted_attempts": self.submitted_attempts,
            "finished": self.finished,
            "gave_up": self.gave_up,
            "retries": self.retries,
            "retry_pending": self.retry_pending,
            "sheds_observed": self.sheds_observed,
            "in_flight": self.in_flight,
            "client_incomplete": self.offered - self.finished - self.gave_up,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule_issue(self, client: _Client, delay: float) -> None:
        self.system.loop.schedule(
            delay, lambda c=client: self._issue(c), name=f"{self.name}-issue"
        )

    def _issue(self, client: _Client) -> None:
        intent = client.current_intent
        now = self.system.loop.now
        if client.attempts == 0:
            client.first_submit_time = now
            self.issued += 1
        else:
            self.retries += 1
            self.retry_pending -= 1
        client.attempts += 1
        request = Request(
            arrival_time=now,
            prompt_tokens=intent.prompt_tokens,
            max_output_tokens=intent.output_tokens,
            slo_class=intent.slo_class,
            session_id=intent.session_id,
        )
        # Register before submitting: a full queue sheds synchronously,
        # re-entering _on_shed while submit() is still on the stack.
        self._inflight[request.request_id] = client
        self.system.submit(request)

    def _on_finished(self, request: Request) -> None:
        client = self._inflight.pop(request.request_id, None)
        if client is None:
            return  # someone else's request (e.g. a gateway's)
        self.finished += 1
        first_submit = client.first_submit_time
        if request.first_token_time is not None and first_submit is not None:
            self._client_latencies.append(
                (request.first_token_time - first_submit, request.mean_tpot)
            )
        if request.finish_time is not None and first_submit is not None:
            self._client_e2es.append(request.finish_time - first_submit)
        self._advance(client)

    def _on_shed(self, request: Request) -> None:
        client = self._inflight.pop(request.request_id, None)
        if client is None:
            return
        self.sheds_observed += 1
        self._last_shed_time = self.system.loop.now
        if client.attempts < self.config.max_attempts:
            delay = backoff_delay_s(client.attempts, client.rng) * self._pressure_factor()
            if self.system.tracer is not None:
                self.system.tracer.on_retry_backoff(request, delay)
            self.retry_pending += 1
            self._schedule_issue(client, delay)
        else:
            self.gave_up += 1
            self._advance(client)

    def _advance(self, client: _Client) -> None:
        """Move a client past its current intent (finished or abandoned)."""
        client.intent_index += 1
        client.attempts = 0
        client.first_submit_time = None
        if client.intent_index >= len(client.intents):
            client.done = True
            self.active_clients -= 1
            return
        self._schedule_issue(client, self._think_delay(client))

    def _think_delay(self, client: _Client) -> float:
        return float(client.rng.exponential(THINK_TIME_MEAN_S)) * self._pressure_factor()

    def _pressure_factor(self) -> float:
        """How much to stretch client-side delays right now."""
        if not self.config.backpressure:
            return 1.0
        now = self.system.loop.now
        pressured = (now - self._last_shed_time) <= SHED_WINDOW_S
        if not pressured and self.system.fleet is not None:
            pressured = self.system.fleet.backlog() >= BACKLOG_THRESHOLD
        return THROTTLE_FACTOR if pressured else 1.0
