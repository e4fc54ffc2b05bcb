"""Plain-text report helpers shared by the experiment modules."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

#: The committed figures document (``python -m repro.experiments --scale full``).
FIGURES_DOCUMENT = Path(__file__).resolve().parents[3] / "FIGURES_results.json"


def committed_entries() -> List[Dict[str, object]]:
    """The entries of the committed figures document."""
    return json.loads(FIGURES_DOCUMENT.read_text())["entries"]


def format_value(value) -> str:
    """Render a cell: floats get sensible precision, others go through str()."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Format a list of dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if not columns:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([format_value(row.get(column, "")) for column in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(lines)
