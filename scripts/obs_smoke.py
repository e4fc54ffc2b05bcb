#!/usr/bin/env python3
"""CI gate for the observability layer (the ``obs-smoke`` step).

Takes a chaos result document produced with ``--alerts`` over the
cluster-outage × {sticky, migrate} grid and asserts the behaviour the
alert engine exists to surface:

* every entry carries a well-formed ``alerts`` block;
* at least one alert both **fires and resolves** within the run — the
  engine tracks state transitions, not just breaches (the WAN burst
  during outage recovery is the expected instance);
* ``recovery_transient`` fires under the ``sticky`` session policy and
  *never* under ``migrate`` — the displaced-work backlog only lingers
  when sessions pin to their dead cluster, so a firing under ``migrate``
  means either the simulator or the rule regressed.

Stdlib-only on purpose, like ``perf_gate.py``: it runs anywhere a
checkout exists without ``PYTHONPATH`` setup.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: alerts-block keys every --alerts entry must carry (mirrors
#: repro.obs.schema.ALERTS_BLOCK_KEYS, restated here so this script
#: stays import-free).
BLOCK_KEYS = (
    "alerts_schema_version",
    "rules",
    "events",
    "firing",
    "resolved",
    "active_at_end",
)


def check(document: dict) -> list:
    """Return a list of failure strings for the alerts document."""
    failures = []
    entries = document.get("entries", [])
    if not entries:
        return ["document has no entries"]

    resolved_pairs = 0
    transient_by_migration = {}
    for entry in entries:
        cell = "{scenario}/{policy}/{faults}/{migration}".format(**entry)
        block = entry.get("alerts")
        if not isinstance(block, dict):
            failures.append(f"{cell}: missing alerts block")
            continue
        missing = [key for key in BLOCK_KEYS if key not in block]
        if missing:
            failures.append(f"{cell}: alerts block missing keys {missing}")
            continue
        # Count (rule, series) pairs that completed a fire->resolve cycle.
        fired = set()
        for event in block["events"]:
            pair = (event["rule"], event["series"])
            if event["state"] == "firing":
                fired.add(pair)
            elif event["state"] == "resolved" and pair in fired:
                resolved_pairs += 1
        transient_by_migration.setdefault(entry["migration"], 0)
        transient_by_migration[entry["migration"]] += sum(
            1
            for event in block["events"]
            if event["rule"] == "recovery_transient" and event["state"] == "firing"
        )

    if resolved_pairs < 1:
        failures.append(
            "no alert completed a fire->resolve cycle anywhere in the grid "
            "(expected at least the outage-window wan_saturation burst)"
        )
    if transient_by_migration.get("sticky", 0) < 1:
        failures.append(
            "recovery_transient never fired under the sticky session policy"
        )
    if transient_by_migration.get("migrate", 0) > 0:
        failures.append(
            "recovery_transient fired under migrate — displaced work should "
            "drain when sessions migrate off the dead cluster"
        )
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: obs_smoke.py CHAOS_alerts_results.json", file=sys.stderr)
        return 2
    try:
        document = json.loads(Path(argv[0]).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    failures = check(document)
    if failures:
        print("obs smoke FAILED:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    cells = len(document.get("entries", []))
    print(f"obs smoke passed: {cells} alert-annotated cells checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
