"""Stable schemas of the ``alerts`` and ``profile`` blocks.

Like the sweep documents (:mod:`repro.sweeps.grid`), keys may be *added*
in later schema versions but the keys listed here are never renamed or
removed, and ``tests/test_obs.py`` pins them.

The **alerts block** is attached to sweep entries when the sweep runs
with ``--alerts`` (an opt-in axis — it enters the cell cache key, so
cells without it stay bit-identical)::

    "alerts": {
      "alerts_schema_version": 1,
      "rules": [str, ...],          # rule names evaluated, sorted
      "events": [AlertEvent, ...],  # the timeline, sorted by
                                    # (t_s, rule, series, state)
      "firing": int,                # timeline transitions into firing
      "resolved": int,              # timeline transitions out of firing
      "active_at_end": ["rule|series", ...]  # never-resolved alerts
    }

Each timeline event::

    {
      "rule": str,                  # rule name, e.g. "recovery_transient"
      "severity": str,              # "warning" | "page"
      "series": str,                # metric (with labels) that transitioned
      "state": str,                 # "firing" | "resolved"
      "t_s": float,                 # simulation time of the transition
      "value": float,               # the offending value (threshold rules:
                                    # the sample; burn/rate rules: the rate)
      "since_s": float              # (firing only) when the breach began
    }

The **profile block** is attached to every freshly executed task payload
by :func:`repro.sweeps.executor.execute_task` — part of the cached
value, never the cache key, and never part of the result-document
contracts (document assemblers select explicit fields)::

    "profile": {
      "wall_s": float,              # host wall-clock of the runner call
      "cpu_s": float,               # process CPU time (user + system)
      "peak_rss_kb": int,           # process RSS high-watermark at exit
      "events": int,                # simulated events dispatched
      "events_per_s": float,        # events / wall_s
      "sim_s": float                # simulated seconds advanced
    }

Determinism contract: for a fixed cell the alerts block is bit-identical
across reruns and worker counts (values come from the deterministic
simulation's metric stream).  The profile block measures the *host* and
is explicitly non-deterministic — it is what :func:`strip_profiles`
removes before document comparison.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from repro.obs.engine import ALERTS_SCHEMA_VERSION

#: Keys every alerts block must carry.
ALERTS_BLOCK_KEYS = (
    "alerts_schema_version",
    "rules",
    "events",
    "firing",
    "resolved",
    "active_at_end",
)

#: Keys every timeline event must carry (``since_s`` is firing-only).
ALERT_EVENT_KEYS = ("rule", "severity", "series", "state", "t_s", "value")

#: Legal event states.
ALERT_STATES = ("firing", "resolved")

#: Keys every profile block must carry.
PROFILE_BLOCK_KEYS = (
    "wall_s",
    "cpu_s",
    "peak_rss_kb",
    "events",
    "events_per_s",
    "sim_s",
)


def validate_alerts_block(block: Dict) -> List[str]:
    """Schema violations of one ``alerts`` block (empty when valid)."""
    problems: List[str] = []
    if not isinstance(block, dict):
        return ["alerts block must be an object"]
    for key in ALERTS_BLOCK_KEYS:
        if key not in block:
            problems.append(f"missing alerts key {key!r}")
    if block.get("alerts_schema_version") != ALERTS_SCHEMA_VERSION:
        problems.append(
            f"alerts_schema_version is {block.get('alerts_schema_version')!r}, "
            f"expected {ALERTS_SCHEMA_VERSION}"
        )
    events = block.get("events", [])
    if not isinstance(events, list):
        problems.append("events must be a list")
        events = []
    previous = None
    for index, event in enumerate(events):
        for key in ALERT_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {index} missing {key!r}")
        if event.get("state") not in ALERT_STATES:
            problems.append(
                f"event {index} state {event.get('state')!r} not in {ALERT_STATES}"
            )
        if event.get("state") == "firing" and "since_s" not in event:
            problems.append(f"event {index} firing without since_s")
        order = (
            event.get("t_s"),
            event.get("rule"),
            event.get("series"),
            event.get("state"),
        )
        if previous is not None and None not in order and order < previous:
            problems.append(f"event {index} out of timeline order")
        if None not in order:
            previous = order
    firing = sum(1 for e in events if e.get("state") == "firing")
    resolved = sum(1 for e in events if e.get("state") == "resolved")
    if block.get("firing") != firing:
        problems.append(f"firing count {block.get('firing')!r} != {firing} events")
    if block.get("resolved") != resolved:
        problems.append(
            f"resolved count {block.get('resolved')!r} != {resolved} events"
        )
    return problems


def validate_profile_block(block: Dict) -> List[str]:
    """Schema violations of one ``profile`` block (empty when valid)."""
    if not isinstance(block, dict):
        return ["profile block must be an object"]
    problems = [
        f"missing profile key {key!r}" for key in PROFILE_BLOCK_KEYS if key not in block
    ]
    for key in PROFILE_BLOCK_KEYS:
        value = block.get(key)
        if key in block and (not isinstance(value, (int, float)) or value < 0):
            problems.append(f"profile key {key!r} must be a non-negative number")
    return problems


def strip_profiles(document: Dict) -> Dict:
    """A deep copy of ``document`` with every ``profile`` block removed.

    Profiles measure the host; two runs of the same grid must compare
    equal after this (and the sweeps' own ``strip_wall_clock``).
    """
    stripped = copy.deepcopy(document)
    stripped.pop("profile", None)
    for entry in stripped.get("entries", []):
        if isinstance(entry, dict):
            entry.pop("profile", None)
    return stripped
