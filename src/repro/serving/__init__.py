"""Cluster-level serving system.

Ties the substrates together into the architecture of Figure 4: a global
dispatcher routes requests to serving instances (Llumnix-style load
balancing), a global monitor collects per-group load and invokes the
configured overload policy, and the :class:`ClusterServingSystem` replays a
workload trace end-to-end and returns the collected metrics.
"""

from repro.serving.config import ServingConfig
from repro.serving.dispatcher import Dispatcher
from repro.serving.monitor import GlobalMonitor
from repro.serving.system import ClusterServingSystem, SimulationResult

__all__ = [
    "ServingConfig",
    "Dispatcher",
    "GlobalMonitor",
    "ClusterServingSystem",
    "SimulationResult",
]
