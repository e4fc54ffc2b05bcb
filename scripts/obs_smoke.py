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

Given a second file — the ``alerts`` block ``python -m repro.obs alerts
STREAM --format json`` replayed from the same command's ``--metrics-out``
stream — it also asserts that the replay equals the in-sweep block of the
cell that stream records, the grid's first cell (sticky).  Sweep cells
evaluate their alerts over the monitor's typed samples, so this checks
that those samples are the ones the text stream carries::

    python scripts/obs_smoke.py CHAOS_alerts_smoke.json [ALERTS_timeline.json]

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


def check_replay(document: dict, replayed: dict) -> list:
    """Failures unless ``replayed`` equals the first entry's alerts block."""
    entries = document.get("entries", [])
    if not entries or not isinstance(entries[0].get("alerts"), dict):
        return ["the first entry has no alerts block to compare the replay with"]
    if not isinstance(replayed, dict):
        return ["the replayed timeline is not an alerts block"]
    entry = entries[0]
    cell = "{scenario}/{policy}/{faults}/{migration}".format(**entry)
    in_sweep = json.dumps(entry["alerts"], sort_keys=True)
    if json.dumps(replayed, sort_keys=True) != in_sweep:
        return [
            f"{cell}: the alerts replayed from the metrics stream differ from the "
            f"in-sweep block ({replayed.get('firing')} vs {entry['alerts']['firing']} "
            f"firing, {len(replayed.get('events', []))} vs "
            f"{len(entry['alerts']['events'])} events)"
        ]
    return []


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(
            "usage: obs_smoke.py CHAOS_alerts_results.json [ALERTS_timeline.json]",
            file=sys.stderr,
        )
        return 2
    try:
        document, *replayed = [json.loads(Path(arg).read_text()) for arg in argv]
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    failures = check(document)
    if replayed:
        failures += check_replay(document, replayed[0])
    if failures:
        print("obs smoke FAILED:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    cells = len(document.get("entries", []))
    print(
        f"obs smoke passed: {cells} alert-annotated cells checked"
        + (", and the replayed timeline equals the first cell's" if replayed else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
