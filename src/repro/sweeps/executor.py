"""Generic sweep executor: cache lookup + shared warm worker pool.

:func:`run_tasks` is the single execution path the five grid commands
funnel through (via :mod:`repro.sweeps.grid`):

1. Every task's content hash is checked against the
   :class:`~repro.sweeps.cache.ResultCache` (when one is supplied); hits
   are returned without touching a worker.
2. Misses with equal content hashes run once, and every such task gets
   the payload.  Misses run either inline (``max_workers=1``) or on the
   *shared warm pool*: one process-wide ``ProcessPoolExecutor`` that is
   created once, pre-imports the heavy simulator modules in every worker
   (so each worker pays the import cost once rather than once per sweep),
   and is reused by subsequent sweeps in the same process.
3. Fresh results are normalised through a JSON round-trip before they are
   cached *and* before they are returned, so a document assembled from
   fresh results is byte-identical to one assembled from cache hits.

Worker sizing respects the CPUs this process may actually use —
scheduler affinity and cgroup CPU quotas included — via
:func:`effective_worker_count`, so CI containers are not oversubscribed.
"""

from __future__ import annotations

import atexit
import importlib
import json
import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sweeps.cache import ResultCache
from repro.sweeps.task import SweepTask

#: Modules every warm worker imports up front: the grid engine, whose cell
#: runner pulls in the single-cluster simulator, plus the tier and online
#: systems it runs cells on.
DEFAULT_PRELOAD: Tuple[str, ...] = (
    "repro.sweeps.grid",
    "repro.multicluster.system",
    "repro.serve.clients",
    "repro.serve.gateway",
)


# ----------------------------------------------------------------------
# Worker sizing
# ----------------------------------------------------------------------
def _cgroup_cpu_quota() -> Optional[int]:
    """CPU limit imposed by the cgroup (v2 then v1), rounded up; None if none."""
    try:  # cgroup v2: "max 100000" or "<quota> <period>"
        text = _read_sys_file("/sys/fs/cgroup/cpu.max")
        if text is not None:
            quota_s, period_s = (text.split() + ["100000"])[:2]
            if quota_s != "max":
                quota, period = int(quota_s), int(period_s)
                if quota > 0 and period > 0:
                    return max(1, math.ceil(quota / period))
    except (ValueError, OSError):
        pass
    try:  # cgroup v1
        quota_text = _read_sys_file("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period_text = _read_sys_file("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        if quota_text is not None and period_text is not None:
            quota, period = int(quota_text), int(period_text)
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
    except (ValueError, OSError):
        pass
    return None


def _read_sys_file(path: str) -> Optional[str]:
    """Read a proc/sys file, returning None when it does not exist."""
    try:
        with open(path, "r") as handle:
            return handle.read().strip()
    except OSError:
        return None


def effective_worker_count() -> int:
    """CPUs this process may actually use for worker processes.

    ``os.process_cpu_count()`` (Python 3.13+) already accounts for
    scheduler affinity; older interpreters fall back to
    ``sched_getaffinity`` and then ``cpu_count``.  The result is further
    clamped by the cgroup CPU quota, which CI containers set while still
    exposing every host CPU to ``cpu_count`` — the oversubscription this
    helper exists to avoid.
    """
    process_count = getattr(os, "process_cpu_count", None)
    if process_count is not None:
        cpus = process_count() or 1
    else:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


# ----------------------------------------------------------------------
# Shared warm pool
# ----------------------------------------------------------------------
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_workers: int = 0


def _warm_worker(module_names: Sequence[str]) -> None:
    """Worker initializer: import the heavy modules once per process."""
    for name in module_names:
        try:
            importlib.import_module(name)
        except ImportError:  # pragma: no cover - preload is best-effort
            pass


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide warm worker pool, (re)sized to at least ``workers``.

    The pool persists across sweeps: a process that runs a scenario sweep
    and then a fleet sweep reuses the same warm workers instead of paying
    pool spin-up plus simulator imports twice.  Asking
    for more workers than the current pool holds recreates it larger;
    asking for fewer reuses the existing (idle workers are cheap, warm
    imports are not).
    """
    global _shared_pool, _shared_pool_workers
    workers = max(1, workers)
    if _shared_pool is not None and workers <= _shared_pool_workers:
        return _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=True)
    _shared_pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_warm_worker,
        initargs=(DEFAULT_PRELOAD,),
    )
    _shared_pool_workers = workers
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Tear down the warm pool (atexit hook; also used by tests)."""
    global _shared_pool, _shared_pool_workers
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=True)
        _shared_pool = None
        _shared_pool_workers = 0


atexit.register(shutdown_shared_pool)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_task(task: SweepTask) -> Dict[str, Any]:
    """Resolve and run one task's runner (this is what workers execute).

    The run is wrapped in a :class:`~repro.obs.profile.TaskProfiler` and
    the measurement attached as a ``profile`` block on the payload: part
    of the cached *value*, never the cache key, because it measures the
    host, not the simulation.  A runner that already returns a
    ``profile`` key, or a non-dict payload, is left untouched.
    """
    from repro.obs.profile import TaskProfiler

    module_name, _, func_name = task.runner.partition(":")
    module = importlib.import_module(module_name)
    runner = getattr(module, func_name)
    with TaskProfiler() as profiler:
        payload = runner(task.params, task.seed)
    if isinstance(payload, dict) and "profile" not in payload:
        payload["profile"] = profiler.block()
    return payload


def _normalize(payload: Dict[str, Any]) -> Dict[str, Any]:
    """JSON round-trip so fresh and cached results are indistinguishable."""
    return json.loads(json.dumps(payload))


def _map_bounded(
    pool: ProcessPoolExecutor, tasks: Sequence[SweepTask], limit: int
) -> List[Dict[str, Any]]:
    """Map ``execute_task`` over ``tasks`` with at most ``limit`` in flight.

    The shared pool may hold more workers than this call is allowed to use
    (it is sized for the largest sweep seen so far); bounding the window
    here keeps the caller's ``max_workers`` contract honest without
    tearing down and rebuilding the warm pool.
    """
    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    inflight: Dict[Any, int] = {}
    next_index = 0
    while next_index < len(tasks) or inflight:
        while next_index < len(tasks) and len(inflight) < limit:
            inflight[pool.submit(execute_task, tasks[next_index])] = next_index
            next_index += 1
        done, _ = wait(inflight, return_when=FIRST_COMPLETED)
        for future in done:
            results[inflight.pop(future)] = future.result()
    return results


@dataclass
class SweepOutcome:
    """Results of one :func:`run_tasks` call, in task order."""

    results: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0


def run_tasks(
    tasks: Sequence[SweepTask],
    *,
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> SweepOutcome:
    """Execute ``tasks``, serving cache hits and fanning misses out.

    Each task is hashed once.  Tasks with equal hashes run once and share
    the payload (each gets its own copy); hits and misses are still
    counted per task.

    Args:
        tasks: the grid, in the order results should come back.
        max_workers: ``1`` runs every miss inline in this process (no
            pool); ``None`` sizes the pool to
            ``min(distinct misses, effective_worker_count())``.
        cache: result cache consulted before and populated after
            execution; ``None`` disables caching entirely.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    outcome = SweepOutcome(results=[None] * len(tasks))
    # content hash -> the indices of the tasks the cache did not hold
    misses: Dict[str, List[int]] = {}
    for index, task in enumerate(tasks):
        digest = task.content_hash()
        payload = cache.load(task, digest) if cache is not None else None
        if payload is not None:
            outcome.results[index] = payload
            outcome.cache_hits += 1
        else:
            misses.setdefault(digest, []).append(index)
    outcome.cache_misses = sum(len(indices) for indices in misses.values())
    if not misses:
        return outcome

    runs = [tasks[indices[0]] for indices in misses.values()]
    workers = min(
        max_workers if max_workers is not None else effective_worker_count(),
        len(runs),
    )
    if workers <= 1:
        payloads = [execute_task(task) for task in runs]
    else:
        try:
            payloads = _map_bounded(shared_pool(workers), runs, workers)
        except BrokenProcessPool:
            # A dead worker poisons a ProcessPoolExecutor permanently;
            # discard the broken pool and retry once on a fresh one so a
            # transient kill (OOM, signal) doesn't fail every later sweep
            # in this process.
            shutdown_shared_pool()
            payloads = _map_bounded(shared_pool(workers), runs, workers)
    for (digest, indices), payload in zip(misses.items(), payloads):
        for index in indices:
            outcome.results[index] = _normalize(payload)
        if cache is not None:
            cache.store(tasks[indices[0]], outcome.results[indices[0]], digest)
    return outcome
