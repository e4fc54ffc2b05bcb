"""Global request dispatcher.

Routes each arriving request to a serving group with the Llumnix-style
load balancing the paper adopts for *all* evaluated systems: pick the
group with the lowest memory-demand-to-capacity ratio, breaking ties by
queue length (:class:`~repro.fleet.routing.LeastLoadedRouter`).  Fleet
runs replace the dispatcher wholesale with the admission-controlled
:class:`~repro.fleet.controller.FleetController`, whose router is a
configurable axis.
"""

from __future__ import annotations

from typing import List

from repro.engine.group import ServingGroup
from repro.engine.request import Request
from repro.fleet.routing import LeastLoadedRouter


class Dispatcher:
    """Routes requests to the least-loaded active serving group."""

    def __init__(self) -> None:
        self._router = LeastLoadedRouter()

    def dispatch(self, request: Request, groups: List[ServingGroup]) -> ServingGroup:
        """Choose a group for ``request`` and enqueue it there."""
        active = [g for g in groups if g.active]
        if not active:
            raise RuntimeError("no active serving groups to dispatch to")
        group = self._router.route(request, active)
        group.enqueue(request)
        return group
