"""Unified incremental sweep engine.

One execution path for the five sweep commands (``repro.scenarios``,
``repro.fleet``, ``repro.multicluster``, ``repro.chaos``,
``repro.serve``), whose grids :mod:`repro.sweeps.grid` turns into
:class:`~repro.sweeps.task.SweepTask` cells.
:func:`~repro.sweeps.executor.run_tasks` serves unchanged cells from the
content-addressed on-disk cache
(:class:`~repro.sweeps.cache.ResultCache`, ``.repro_cache/``) and fans
the rest out over a shared warm worker pool that pre-imports the
simulator once per worker.  The grid engine is not imported here: it
pulls in the simulator, which the cache and the executor do not need.
See ``ARCHITECTURE.md`` (``repro.sweeps``) for the cache-key contract.
"""

from repro.sweeps.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    default_cache_dir,
)
from repro.sweeps.executor import (
    DEFAULT_PRELOAD,
    SweepOutcome,
    effective_worker_count,
    execute_task,
    run_tasks,
)
from repro.sweeps.task import (
    CACHE_FORMAT_VERSION,
    SweepTask,
    canonical_json,
    source_fingerprint,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_PRELOAD",
    "ResultCache",
    "SweepOutcome",
    "SweepTask",
    "canonical_json",
    "default_cache_dir",
    "effective_worker_count",
    "execute_task",
    "run_tasks",
    "source_fingerprint",
]
