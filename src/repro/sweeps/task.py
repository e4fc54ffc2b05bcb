"""Sweep tasks: the unit of work the sweep engine executes and caches.

A :class:`SweepTask` pairs a *runner* (a ``"module:function"`` reference the
worker process resolves by import, so tasks survive any multiprocessing
start method) with two views of its inputs:

* ``params`` — the picklable keyword payload handed to the runner.  It may
  contain rich objects (``ScenarioSpec``, ``ExperimentScale``) as long as
  they pickle.
* ``key`` — a JSON-able *content fingerprint* of the same inputs.  The
  task's identity for caching purposes is derived from it, never from
  ``params``.

The content hash is the cache-key contract (see ``ARCHITECTURE.md``): a
SHA-256 over the canonical JSON of ``(runner, source fingerprint, key,
seed, repro version, cache format version)``.  Any config change, seed
change, edit to any ``*.py`` file of the ``repro`` package, ``repro``
version bump, or cache-format bump therefore produces a different hash
and invalidates prior results — and nothing else does.  Runners must be
pure functions of ``(params, seed)`` modulo host wall-clock fields.

The source fingerprint (:func:`source_fingerprint`) covers the whole
package, not only the runner's module, because a cell's result depends
on everything the runner calls into.  A cached result can therefore
never come from older code; the price is that any edit, comments
included, turns the next sweep into a cold one.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping

import repro.version as _version

#: Version of the cache entry format; bump to invalidate every prior entry.
CACHE_FORMAT_VERSION = 1

#: Signature of a task runner: ``(params, seed) -> JSON-able payload``.
TaskRunner = Callable[[Mapping[str, Any], int], Dict[str, Any]]

#: The ``repro`` package directory whose sources every task hash covers.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``*.py``
    file of the ``repro`` package; computed once per process.

    Paths are taken relative to the package directory, so a copy of the
    package at another location fingerprints the same.
    """
    digest = hashlib.sha256()
    files = {
        path.relative_to(PACKAGE_ROOT).as_posix(): path
        for path in PACKAGE_ROOT.rglob("*.py")
    }
    for relative in sorted(files):
        data = files[relative].read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()[:16]


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN rejected.

    Raises ``TypeError`` for non-JSON-able values, which is the fail-fast
    guard that keeps task keys honest — a key that cannot be canonically
    serialised cannot be content-addressed.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class SweepTask:
    """One cacheable cell of a sweep grid.

    Attributes:
        runner: ``"package.module:function"`` executed in the worker.
        params: picklable keyword payload passed to the runner.
        key: JSON-able content fingerprint of the cell's configuration
            (everything that influences the result except the seed).
        seed: the cell's seed; hashed separately so seed sweeps are
            naturally distinct cache entries.
        label: optional display name for logs; never hashed.
    """

    runner: str
    params: Mapping[str, Any]
    key: Mapping[str, Any]
    seed: int = 42
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if ":" not in self.runner:
            raise ValueError(
                f"runner must be a 'module:function' reference, got {self.runner!r}"
            )

    def hash_material(self) -> Dict[str, Any]:
        """The exact dict the content hash is computed over."""
        return {
            "runner": self.runner,
            "source": source_fingerprint(),
            "key": dict(self.key),
            "seed": self.seed,
            "repro_version": _version.__version__,
            "cache_format_version": CACHE_FORMAT_VERSION,
        }

    def content_hash(self) -> str:
        """Stable content address of this task (hex, 24 chars)."""
        material = canonical_json(self.hash_material())
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]
