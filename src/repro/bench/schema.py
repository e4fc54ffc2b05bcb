"""Stable schema of ``BENCH_results.json``.

The benchmark harness emits one JSON document per run so successive PRs can
track the performance trajectory of the simulator.  The schema below is a
compatibility contract: keys may be *added* in later schema versions, but
the keys listed here are never renamed or removed, and
``tests/test_bench.py`` pins them.

Top-level document::

    {
      "schema_version": 1,        # int, bumped on any breaking change
      "repro_version": "0.1.0",   # repro package version that produced it
      "scale": {                  # canonical scenario the run used
        "name": str,
        "num_instances": int,
        "trace_duration_s": float,
        "drain_timeout_s": float
      },
      "entries": [BenchEntry, ...]
    }

Each entry (one benchmark measurement)::

    {
      "experiment": str,          # stable id, e.g. "policy:kunserve" or
                                  # "figure12" — see ids below
      "kind": "policy" | "experiment",
      "policy": str | null,       # policy name for kind == "policy"
      "wall_s": float,            # host wall-clock seconds
      "sim_s": float,             # simulated seconds covered (0 when n/a)
      "events": int,              # discrete events executed
      "events_per_s": float,      # events / wall_s (0 when no events ran)
      "finished_requests": int    # requests completed (0 when n/a)
    }

Experiment ids are ``policy:<name>`` for the per-policy benchmarks (vllm,
vllm-pp, infercept, llumnix, kunserve), the module name (``figure2``,
``figure5``, ``figure12``..``figure17``, ``table1``) for the figure/table
experiments, ``scenarios`` / ``fleet`` / ``multicluster`` for the sweep
timing rows (small grids run inline so their cost is tracked),
``sweep_cache`` for the incremental-sweep row, and ``event_core`` for the
pure event-loop dispatch microbenchmark (its ``events_per_s`` is gated by
``scripts/bench_compare.py``).  Entries may carry *additive* fields
beyond ``ENTRY_KEYS``; the ``sweep_cache`` row adds ``cold_wall_s`` /
``warm_wall_s`` / ``cache_speedup`` / ``cold_cache_hits`` /
``warm_cache_hits``, the cold-vs-warm wall-clock of the same
scenario+fleet sweep run twice through the ``.repro_cache/`` result
cache.
Every entry additionally carries a ``profile`` block — the task-level
resource profile (``wall_s`` / ``cpu_s`` / ``peak_rss_kb`` / ``events``
/ ``events_per_s`` / ``sim_s``) recorded by the sweep executor (see
:mod:`repro.obs.profile`); ``scripts/bench_compare.py`` reports (but
never gates on) its peak-RSS deltas.
"""

from __future__ import annotations

from typing import Dict, List

#: Current schema version; bump only on breaking changes.
SCHEMA_VERSION = 1

#: Keys every top-level document must carry.
DOCUMENT_KEYS = ("schema_version", "repro_version", "scale", "entries")

#: Keys every entry must carry (the stable contract).
ENTRY_KEYS = (
    "experiment",
    "kind",
    "policy",
    "wall_s",
    "sim_s",
    "events",
    "events_per_s",
    "finished_requests",
)

#: Keys of the scale block.
SCALE_KEYS = ("name", "num_instances", "trace_duration_s", "drain_timeout_s")


def validate_document(document: Dict) -> List[str]:
    """Return a list of schema violations (empty when the document is valid)."""
    problems: List[str] = []
    for key in DOCUMENT_KEYS:
        if key not in document:
            problems.append(f"missing top-level key {key!r}")
    if document.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {document.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    for key in SCALE_KEYS:
        if key not in document.get("scale", {}):
            problems.append(f"missing scale key {key!r}")
    entries = document.get("entries", [])
    if not isinstance(entries, list):
        problems.append("entries must be a list")
        entries = []
    for index, entry in enumerate(entries):
        for key in ENTRY_KEYS:
            if key not in entry:
                problems.append(f"entry {index} ({entry.get('experiment')!r}) missing {key!r}")
        if entry.get("kind") not in ("policy", "experiment"):
            problems.append(f"entry {index} has invalid kind {entry.get('kind')!r}")
    return problems
