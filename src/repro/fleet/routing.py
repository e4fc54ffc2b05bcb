"""Request routers behind a registry.

The router decides which serving group receives an arriving request.  The
paper fixes this layer to Llumnix-style least-loaded dispatch for every
evaluated system; this module makes it a first-class axis: each strategy
is a class keyed by its ``name``, instantiated with :func:`make_router`,
and the fleet controller resolves them from the registry (the plain
dispatcher is always least-loaded).

Every router is deterministic for a fixed seed: the only stochastic
strategy (power-of-two-choices) samples from a :class:`SeededRNG` stream
derived from the system seed.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Dict, List, Sequence, Type

from repro.engine.group import ServingGroup
from repro.engine.request import Request
from repro.simulation.rng import SeededRNG


def session_key(request: Request) -> str:
    """A request's session: its ``session_id``, or a coarse shape bucket
    (SLO class + log2 prompt length) when it has none."""
    if request.session_id is not None:
        return request.session_id
    return f"{request.slo_class}:{request.prompt_tokens.bit_length()}"


def session_slot(request: Request, slots: int) -> int:
    """Stable hash of the request's session onto ``range(slots)``.

    The session-affinity router picks a group with it and the
    multicluster tier a home cluster, so the tier's locality accounting
    agrees with any affinity routing inside it.
    """
    digest = hashlib.sha256(session_key(request).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % slots


def load_key(group: ServingGroup):
    """Llumnix-style load: memory demand/capacity, ties by queue then id."""
    capacity = group.kv_capacity_bytes()
    demand = group.kv_demand_bytes()
    ratio = demand / capacity if capacity > 0 else float("inf")
    return (ratio, group.scheduler.num_waiting, group.group_id)


def headroom_key(group: ServingGroup):
    """Free-KV-bytes view of load: most absolute headroom wins."""
    headroom = group.kv_capacity_bytes() - group.kv_demand_bytes()
    return (-headroom, group.scheduler.num_waiting, group.group_id)


class Router(abc.ABC):
    """Chooses a serving group for each request.

    ``route`` receives the routable candidates (active, non-draining,
    never empty) and must return one of them.  Routers may keep state
    (cursors, RNG streams) but must be deterministic for a fixed seed and
    call sequence.
    """

    #: registry name; each strategy sets its own.
    name: str = "base"

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    @abc.abstractmethod
    def route(self, request: Request, groups: Sequence[ServingGroup]) -> ServingGroup:
        """Pick a group from ``groups`` (non-empty) for ``request``."""


class LeastLoadedRouter(Router):
    """The paper's default: lowest memory-demand-to-capacity ratio."""

    name = "least_loaded"

    def route(self, request: Request, groups: Sequence[ServingGroup]) -> ServingGroup:
        return min(groups, key=load_key)


class RoundRobinRouter(Router):
    """Cycle through the groups in list order (controlled experiments)."""

    name = "round_robin"

    def __init__(self, *, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._cursor = 0

    def route(self, request: Request, groups: Sequence[ServingGroup]) -> ServingGroup:
        group = groups[self._cursor % len(groups)]
        self._cursor += 1
        return group


class PowerOfTwoChoicesRouter(Router):
    """Sample two random groups, send to the less loaded of the pair.

    The classic load-balancing result: two random choices gets most of the
    benefit of global least-loaded while only probing two queues.
    """

    name = "power_of_two_choices"

    def __init__(self, *, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._rng = SeededRNG(seed, "router/power-of-two")

    def route(self, request: Request, groups: Sequence[ServingGroup]) -> ServingGroup:
        if len(groups) <= 2:
            return min(groups, key=load_key)
        first = int(self._rng.integers(0, len(groups)))
        second = int(self._rng.integers(0, len(groups) - 1))
        if second >= first:
            second += 1
        return min((groups[first], groups[second]), key=load_key)


class MemoryHeadroomRouter(Router):
    """Send to the group with the most free KV bytes (absolute headroom).

    Differs from least-loaded on heterogeneous fleets (e.g. after a
    KunServe merge enlarged one group's cache): ratios normalise capacity
    away, headroom prefers the group that can absorb the longest context.
    """

    name = "memory_headroom"

    def route(self, request: Request, groups: Sequence[ServingGroup]) -> ServingGroup:
        return min(groups, key=headroom_key)


class SessionAffinityRouter(Router):
    """Stable-hash sessions onto groups (prefix-cache-affinity proxy).

    Requests carrying a ``session_id`` always map to the same group while
    the group set is stable, which is what makes KV prefix reuse possible
    in real serving stacks.  Requests without a session id fall back to a
    coarse key (SLO class + log2 prompt-length bucket), so requests of
    similar shape still co-locate.  When the mapped group is
    memory-blocked the router falls back to least-loaded — affinity is a
    preference, not a pin.
    """

    name = "session_affinity"

    def route(self, request: Request, groups: Sequence[ServingGroup]) -> ServingGroup:
        ordered = sorted(groups, key=lambda g: g.group_id)
        preferred = ordered[session_slot(request, len(ordered))]
        if preferred.scheduler.memory_blocked:
            return min(groups, key=load_key)
        return preferred


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_ROUTERS: Dict[str, Type[Router]] = {
    router.name: router
    for router in (
        LeastLoadedRouter,
        RoundRobinRouter,
        PowerOfTwoChoicesRouter,
        MemoryHeadroomRouter,
        SessionAffinityRouter,
    )
}


def make_router(name: str, *, seed: int = 0) -> Router:
    """Instantiate a registered router by name."""
    if name not in _ROUTERS:
        known = ", ".join(list_routers())
        raise KeyError(f"unknown router {name!r}; known routers: {known}")
    return _ROUTERS[name](seed=seed)


def list_routers() -> List[str]:
    """Registered router names in registry order."""
    return list(_ROUTERS)
