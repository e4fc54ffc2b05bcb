"""Differential doctor: cell-by-cell comparison of two result documents.

``python -m repro.obs diff A.json B.json`` joins the two documents'
``entries`` on their **cell key** — every string-valued entry field
(scenario, policy, migration, router, ...), which together identify the
swept configuration — and compares every other field, after stripping
wall-clock measurement noise (``wall_s``, ``profile`` blocks, cache
counters): those legitimately differ between runs of identical
simulations and must never count as a regression.

A *finding* is a numeric field whose relative change exceeds the
threshold (default 5%), or any change to a field that is not a number on
both sides (``null``, a bool, a list or a block; ``delta`` and ``rel``
are then ``null``).  When **both** sides of a cell carry a
``stage_breakdown`` block (sweeps run with ``--trace``), each finding on
a latency field is augmented with a stage-level attribution via
:func:`repro.trace.attribution.diff_stage_breakdowns` — "serve p99
regressed 18%" becomes "decode mean_s +31%".

Determinism makes the null case exact: a document diffed against itself
reports **zero** findings (the CI smoke and ``tests/test_obs.py`` pin
this), so any finding is a real behaviour change, not noise.  A
regeneration gate (``--fail-on-findings``) also fails on a cell only one
document has and on a changed top-level field (:func:`gate_failures`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.attribution import diff_stage_breakdowns

#: Per-entry fields that measure the *host*, not the simulation; stripped
#: before comparison so wall-clock jitter never reads as a regression.
WALL_CLOCK_FIELDS = frozenset({"wall_s", "profile"})

#: Top-level document fields stripped for the same reason.
WALL_CLOCK_DOC_FIELDS = frozenset(
    {"wall_s_total", "cache_hits", "cache_misses", "entries"}
)

#: Relative change below which a numeric delta is not a finding.
DEFAULT_REL_THRESHOLD = 0.05

#: Absolute change below which a numeric delta is not a finding (guards
#: ratios hovering at zero from producing infinite relative changes).
DEFAULT_ABS_FLOOR = 1e-9

CellKey = Tuple[Tuple[str, str], ...]


def _cell_key(entry: Dict[str, Any]) -> CellKey:
    """The join key: every string-valued field, sorted by name."""
    return tuple(
        (name, value)
        for name, value in sorted(entry.items())
        if isinstance(value, str)
    )


def _index_entries(entries: Sequence[Dict[str, Any]]) -> Dict[CellKey, Dict[str, Any]]:
    """Entries by cell key; duplicate keys are disambiguated by position."""
    indexed: Dict[CellKey, Dict[str, Any]] = {}
    for position, entry in enumerate(entries):
        key = _cell_key(entry)
        if key in indexed:
            key = key + (("__position__", str(position)),)
        indexed[key] = entry
    return indexed


def _cell_label(key: CellKey) -> str:
    return " ".join(f"{name}={value}" for name, value in key) or "<unkeyed>"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: float) -> Optional[float]:
    """``value`` if representable in strict JSON, else ``None``."""
    return value if value == value and abs(value) != float("inf") else None


def diff_documents(
    base: Dict[str, Any],
    current: Dict[str, Any],
    *,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> Dict[str, Any]:
    """Compare two result documents; returns the diff report document.

    ``findings`` lists significant numeric deltas (with stage attribution
    where trace data allows); ``context`` lists top-level document
    mismatches (scale, seed, versions) that explain — rather than
    constitute — differences; ``only_in_base`` / ``only_in_current``
    list unmatched cells.
    """
    context: List[Dict[str, Any]] = []
    for field in sorted(set(base) | set(current)):
        if field in WALL_CLOCK_DOC_FIELDS:
            continue
        old, new = base.get(field), current.get(field)
        if old != new:
            context.append({"field": field, "base": old, "current": new})

    base_cells = _index_entries(base.get("entries") or [])
    current_cells = _index_entries(current.get("entries") or [])
    findings: List[Dict[str, Any]] = []
    compared = 0
    for key in sorted(set(base_cells) & set(current_cells)):
        compared += 1
        findings.extend(
            _diff_cell(
                key,
                base_cells[key],
                current_cells[key],
                rel_threshold=rel_threshold,
                abs_floor=abs_floor,
            )
        )
    findings.sort(
        key=lambda f: (
            -abs(f["rel"]) if f["rel"] is not None else float("-inf"),
            f["cell"],
            f["field"],
        )
    )
    return {
        "cells_compared": compared,
        "only_in_base": sorted(
            _cell_label(key) for key in set(base_cells) - set(current_cells)
        ),
        "only_in_current": sorted(
            _cell_label(key) for key in set(current_cells) - set(base_cells)
        ),
        "context": context,
        "findings": findings,
    }


def _diff_cell(
    key: CellKey,
    base: Dict[str, Any],
    current: Dict[str, Any],
    *,
    rel_threshold: float,
    abs_floor: float,
) -> List[Dict[str, Any]]:
    label = _cell_label(key)
    findings: List[Dict[str, Any]] = []
    base_stages = base.get("stage_breakdown")
    current_stages = current.get("stage_breakdown")
    stage_records: Optional[List[Dict[str, Any]]] = None
    if isinstance(base_stages, dict) and isinstance(current_stages, dict):
        stage_records = [
            {**record, "rel": _finite(record["rel"])}
            for record in diff_stage_breakdowns(
                base_stages, current_stages, rel_threshold=rel_threshold
            )
        ]
    attributed = False
    for field in sorted(set(base) | set(current)):
        if field in WALL_CLOCK_FIELDS or field == "stage_breakdown":
            continue
        old, new = base.get(field), current.get(field)
        if not (_is_number(old) and _is_number(new)):
            if old != new:
                findings.append({
                    "cell": label, "field": field, "base": old, "current": new,
                    "delta": None, "rel": None,
                })
            continue
        delta = float(new) - float(old)
        if abs(delta) <= abs_floor:
            continue
        rel = delta / float(old) if old else float("inf")
        if abs(rel) <= rel_threshold:
            continue
        finding: Dict[str, Any] = {
            "cell": label,
            "field": field,
            "base": old,
            "current": new,
            "delta": delta,
            "rel": _finite(rel),
        }
        if stage_records and _is_latency_field(field) and not attributed:
            # One attribution per cell: the stage story explains every
            # latency field's movement, so repeating it is noise.
            finding["stage_attribution"] = stage_records
            attributed = True
        findings.append(finding)
    return findings


def _is_latency_field(field: str) -> bool:
    """Fields whose movement the stage breakdown can explain."""
    return any(
        field.startswith(prefix)
        for prefix in ("ttft_p", "tpot_p", "e2e_p", "client_ttft_p", "client_e2e_p")
    ) or field in ("slo_attainment", "slo_violation_ratio", "recovery_transient_s")


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """Why ``report`` fails a regeneration gate (empty: it passes): any
    finding, cell on one side only, or changed top-level ``context``."""
    parts = (
        ("findings", "finding(s)"), ("only_in_base", "cell(s) only in base"),
        ("only_in_current", "cell(s) only in current"),
        ("context", "changed top-level field(s)"),
    )
    return [f"{len(report[key])} {what}" for key, what in parts if report[key]]


def load_document(path: Path) -> Dict[str, Any]:
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a result document (expected a JSON object)")
    return document


def format_diff_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_documents` output."""
    lines = [f"{report['cells_compared']} cells compared"]
    for side, cells in (
        ("only in base", report["only_in_base"]),
        ("only in current", report["only_in_current"]),
    ):
        for cell in cells:
            lines.append(f"  {side}: {cell}")
    for item in report["context"]:
        lines.append(
            f"  context: {item['field']} {item['base']!r} -> {item['current']!r}"
        )
    findings = report["findings"]
    if not findings:
        lines.append("no findings: documents agree on every compared field")
        return "\n".join(lines) + "\n"
    lines.append(f"{len(findings)} findings:")
    for finding in findings:
        if finding["delta"] is None:
            lines.append(
                f"  {finding['cell']}: {finding['field']} "
                f"{finding['base']!r} -> {finding['current']!r} (changed)"
            )
            continue
        rel = finding["rel"]
        rel_text = f"{rel:+.1%}" if rel is not None else "new"
        lines.append(
            f"  {finding['cell']}: {finding['field']} "
            f"{finding['base']:g} -> {finding['current']:g} ({rel_text})"
        )
        for record in finding.get("stage_attribution") or []:
            stage_rel = record["rel"]
            stage_rel_text = f"{stage_rel:+.1%}" if stage_rel is not None else "new"
            lines.append(
                f"    stage {record['stage']} {record['metric']} "
                f"{record['base']:.6f}s -> {record['current']:.6f}s "
                f"({stage_rel_text})"
            )
    return "\n".join(lines) + "\n"
