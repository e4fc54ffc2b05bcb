"""On-disk, content-addressed result cache for sweep tasks.

Entries live under ``.repro_cache/`` at the repository root (override with
the ``REPRO_CACHE_DIR`` environment variable or an explicit ``root``), one
JSON file per task hash, named after the package source fingerprint too::

    .repro_cache/<source fingerprint>-<hash>.json
    {
      "cache_format_version": 1,
      "task": {...hash material, for debugging...},
      "result": {...the runner's JSON payload...}
    }

Because a task hash covers the runner, the full cell configuration, the
seed, a fingerprint of every ``*.py`` file in the ``repro`` package, the
package version and the cache format version
(:meth:`~repro.sweeps.task.SweepTask.hash_material`), a hit is always
safe to substitute for a fresh run of a deterministic runner, even after
a code edit.  An entry written under another source fingerprint can
therefore never hit again: a cache's first store deletes every such entry
(so two checkouts of different code sharing one root prune each other's
entries).  Corrupted or unreadable entries are deleted and treated as
misses, so a damaged cache degrades to recompute, never to failure.
Writes are atomic (temp file + ``os.replace``) so concurrent sweeps
sharing a cache directory cannot observe torn entries.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.sweeps.task import CACHE_FORMAT_VERSION, SweepTask, source_fingerprint

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache location: ``<repo root>/.repro_cache`` (gitignored).
DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".repro_cache"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro_cache/`` in the repo."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else DEFAULT_CACHE_DIR


class ResultCache:
    """Content-addressed store of sweep-task result payloads."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._pruned = False

    def path_for(self, task: SweepTask) -> Path:
        return self.root / f"{source_fingerprint()}-{task.content_hash()}.json"

    def load(self, task: SweepTask) -> Optional[Dict[str, Any]]:
        """The cached payload for ``task``, or ``None`` on a miss.

        Any unreadable, unparsable or wrong-format entry is deleted and
        reported as a miss (corruption recovery: fall back to recompute).
        """
        path = self.path_for(task)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, UnicodeDecodeError):
            # Unreadable or not valid UTF-8: corrupt, drop it.
            self._discard(path)
            self.misses += 1
            return None
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            self._discard(path)
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("cache_format_version") != CACHE_FORMAT_VERSION
            or not isinstance(entry.get("result"), dict)
        ):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def store(self, task: SweepTask, payload: Dict[str, Any]) -> Optional[Path]:
        """Persist ``payload`` for ``task`` atomically; returns the path.

        An unwritable cache (read-only checkout, full disk, bad
        ``REPRO_CACHE_DIR``) is not an error: the result was already
        computed, so storing degrades to a no-op (``None``) and the sweep
        carries on — matching ``load``'s degrade-to-recompute contract.
        """
        path = self.path_for(task)
        entry = {
            "cache_format_version": CACHE_FORMAT_VERSION,
            "task": task.hash_material(),
            "result": payload,
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry, indent=1) + "\n")
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)
            return None
        self.stores += 1
        if not self._pruned:
            self._pruned = True
            self._prune()
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _prune(self) -> None:
        """Delete the entries written under another source fingerprint."""
        current = f"{source_fingerprint()}-"
        for path in self.root.glob("*.json"):
            if not path.name.startswith(current):
                self._discard(path)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
