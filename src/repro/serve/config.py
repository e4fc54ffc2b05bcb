"""Client-behaviour configuration for the online serving frontend.

Import-light on purpose (mirrors :mod:`repro.fleet.config`): the
population config travels inside sweep-task cache keys, so it must stay
frozen, JSON-able and free of heavy imports.

Retry accounting vocabulary (used consistently by
:mod:`repro.serve.clients`, the ``SERVE_results.json`` schema and
``tests/invariants.py``):

* an **intent** is one logical request a client wants served (one turn
  of a session);
* an **attempt** is one engine submission of that intent — the first
  attempt plus up to ``max_attempts - 1`` retries;
* a client **gives up** on an intent when a shed exhausts its attempt
  budget; it then moves on to its next intent after a think pause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


#: Named retry policies the sweep grid accepts (``--retries``), each the
#: number of submissions a client makes per intent: ``1`` means no
#: retries.  The backoff between attempts is
#: :func:`repro.serve.clients.backoff_delay_s`.
RETRY_POLICIES: Dict[str, int] = {"none": 1, "backoff": 4}

#: Named backpressure modes the sweep grid accepts (``--backpressure``),
#: each whether clients throttle on shed and queue-depth signals (see
#: :mod:`repro.serve.clients`).
BACKPRESSURE_MODES: Dict[str, bool] = {"off": False, "on": True}


@dataclass(frozen=True)
class ClientPopulationConfig:
    """One closed-loop client population: size, retry budget, backpressure.

    Attributes:
        num_clients: clients in the population.
        max_attempts: submissions per intent, the first included (a
            :data:`RETRY_POLICIES` value).
        backpressure: whether client-side delays stretch under pressure
            (a :data:`BACKPRESSURE_MODES` value).
    """

    num_clients: int = 8
    max_attempts: int = 1
    backpressure: bool = False

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (1 means no retries)")


def list_retry_policies() -> List[str]:
    """Registered retry-policy names in registration order."""
    return list(RETRY_POLICIES)


def list_backpressure_modes() -> List[str]:
    """Registered backpressure-mode names in registration order."""
    return list(BACKPRESSURE_MODES)
