#!/usr/bin/env python3
"""Performance gate: compare a change's benchmark runs with its base's.

Usage::

    python scripts/perf_gate.py BASE_TREE HEAD_TREE

Both arguments are checkouts of the repository (the base commit, for
example a ``git worktree``, and the change).  Each tree's own
``perfbench/run.py`` runs its own ``src``; workloads, metrics, bounds and
directions come from the head tree's ``BENCHMARK.json``.  Per workload:

* **time** -- ``PAIRS`` pairs of ``--trace 0`` runs, alternating which
  tree runs first.  An end-to-end metric fails when the head's median is
  worse than the base's by more than the metric's bound, in its ``better``
  direction.  ``setup_s`` is printed but not gated: its run-to-run spread
  is as wide as its bound.
* **work** -- one ``--seconds 0 --trace 1`` run per tree.  The per-layer
  counts (unit ``count`` or ``bytes``) are deterministic for a seed, so
  none may rise unless a line the head's ``CHANGES.md`` adds over the
  base's names both the workload and the metric.

Every run must report ``"correct": true`` with 0 failed.  Prints one row
per (workload, metric): base, head, change and verdict.  Exit status: 0
pass; 1 a regression, an unexplained count rise or a failing head run;
2 a usage error or a failing base run (nothing to compare against).
Stdlib-only, so it runs in any checkout without ``PYTHONPATH`` set up.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PAIRS = 3
SECONDS = 5
SEED = 1
#: End-to-end metrics printed but never gated.
UNGATED = ("setup_s",)
#: Per-layer units that count work, which must repeat exactly for a seed.
WORK_UNITS = ("count", "bytes")
#: A run that takes longer than this has hung.
RUN_TIMEOUT_S = 900

#: ``(workload, metric, base, head, change, verdict)``; ``change`` is the
#: relative change ``(head - base) / base``.
Row = Tuple[str, str, Optional[float], Optional[float], Optional[float], str]


def run_perfbench(tree: Path, workload: str, trace: int, seconds: float) -> Dict:
    """One ``perfbench/run.py`` run of ``tree``; its result JSON.

    A run that exits non-zero, hangs or prints no result comes back as an
    incorrect run carrying the error.
    """
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        error = proc.stderr[-2000:].strip()
        return {"correct": False, "error": f"exit {proc.returncode}: {error}"}
    return result


def run_problem(run: Dict) -> Optional[str]:
    """Why ``run`` does not count as a correct run, or ``None``."""
    if run.get("correct") is True and run.get("failed") == 0:
        return None
    return run.get("error") or f"correct={run.get('correct')} failed={run.get('failed')}"


def value(run: Dict, metric: str) -> Optional[float]:
    entry = run.get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def median(runs: Sequence[Dict], metric: str) -> Optional[float]:
    values = [v for v in (value(run, metric) for run in runs) if v is not None]
    return statistics.median(values) if values else None


def change(base: Optional[float], head: Optional[float]) -> Optional[float]:
    if base is None or head is None or base == 0:
        return None
    return (head - base) / base


def names(line: str, token: str) -> bool:
    """Whether ``line`` names ``token`` as a whole word (``cluster.calls``
    is not named by ``multicluster.calls``)."""
    return re.search(rf"(?<![\w.]){re.escape(token)}(?!\w)", line) is not None


def added_lines(base_tree: Path, head_tree: Path) -> List[str]:
    """Lines of the head's ``CHANGES.md`` that the base's lacks."""

    def lines(tree: Path) -> List[str]:
        path = tree / "CHANGES.md"
        return path.read_text().splitlines() if path.is_file() else []

    before = set(lines(base_tree))
    return [line for line in lines(head_tree) if line not in before]


def time_rows(workload: str, end_to_end: Sequence[Dict], base_runs: Sequence[Dict],
              head_runs: Sequence[Dict]) -> List[Row]:
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        base, head = median(base_runs, name), median(head_runs, name)
        delta = change(base, head)
        if name in UNGATED:
            verdict = "not gated"
        elif head is None:
            verdict = "FAIL (missing)"
        elif base is None:
            verdict = "new"
        else:
            worse = (head - base) if metric["better"] == "lower" else (base - head)
            verdict = "FAIL" if worse > metric["bound"] * abs(base) else "ok"
        rows.append((workload, name, base, head, delta, verdict))
    return rows


def work_rows(workload: str, per_layer: Sequence[Dict], base_run: Dict, head_run: Dict,
              added: Sequence[str]) -> List[Row]:
    rows = []
    for metric in per_layer:
        name = metric["name"]
        if metric["unit"] not in WORK_UNITS:
            continue
        base, head = value(base_run, name), value(head_run, name)
        if head is None:
            verdict = "FAIL (missing)"
        elif base is None:
            verdict = "new"
        elif head <= base:
            verdict = "ok"
        elif any(names(line, workload) and names(line, name) for line in added):
            verdict = "rise named in CHANGES.md"
        else:
            verdict = "FAIL"
        rows.append((workload, name, base, head, change(base, head), verdict))
    return rows


def gate(
    spec: Dict, runs: Dict[str, Dict], added: Sequence[str]
) -> Tuple[List[Row], List[str], int]:
    """Rows, run problems and exit status for the runs of every workload.

    ``runs[workload]`` holds ``base_time`` and ``head_time`` (lists of
    trace-0 runs) and ``base_work`` and ``head_work`` (one trace-1 run each).
    """
    rows: List[Row] = []
    problems: List[str] = []
    base_failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        got = runs[workload]
        sides = ("base", "head")
        checked = [(side, "time", run) for side in sides for run in got[f"{side}_time"]]
        checked += [(side, "work", got[f"{side}_work"]) for side in sides]
        for side, kind, run in checked:
            problem = run_problem(run)
            if problem is not None:
                base_failed |= side == "base"
                problems.append(f"{workload}: {side} {kind} run: {problem}")
        rows += time_rows(workload, spec["end_to_end"], got["base_time"], got["head_time"])
        rows += work_rows(workload, spec["per_layer"], got["base_work"], got["head_work"], added)
    if base_failed:
        status = 2
    elif problems or any(row[5].startswith("FAIL") for row in rows):
        status = 1
    else:
        status = 0
    return rows, problems, status


def format_number(number: Optional[float]) -> str:
    if number is None:
        return "-"
    return f"{number:.0f}" if number.is_integer() else f"{number:.6g}"


def format_rows(rows: Sequence[Row]) -> str:
    lines = [f"{'workload':<16} {'metric':<32} {'base':>12} {'head':>12} {'change':>8}  verdict"]
    for workload, metric, base, head, delta, verdict in rows:
        shown = "-" if delta is None else f"{100 * delta:+.1f}%"
        lines.append(f"{workload:<16} {metric:<32} {format_number(base):>12} "
                     f"{format_number(head):>12} {shown:>8}  {verdict}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print("usage: python scripts/perf_gate.py BASE_TREE HEAD_TREE", file=sys.stderr)
        return 2
    base_tree, head_tree = (Path(arg).resolve() for arg in argv)
    for tree in (base_tree, head_tree):
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((head_tree / "BENCHMARK.json").read_text())
    runs: Dict[str, Dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        got = runs[workload] = {"base_time": [], "head_time": []}
        order = [("base", base_tree), ("head", head_tree)]
        for pair in range(PAIRS):
            for side, tree in order[::-1] if pair % 2 else order:
                print(f"{workload}: {side} time run {pair + 1}/{PAIRS}", file=sys.stderr)
                got[f"{side}_time"].append(run_perfbench(tree, workload, 0, SECONDS))
        for side, tree in order:
            print(f"{workload}: {side} work run", file=sys.stderr)
            got[f"{side}_work"] = run_perfbench(tree, workload, 1, 0)
    rows, problems, status = gate(spec, runs, added_lines(base_tree, head_tree))
    print(format_rows(rows))
    for problem in problems:
        print(f"run failed: {problem}")
    failed = [f"{row[0]} {row[1]}" for row in rows if row[5].startswith("FAIL")]
    if status == 2:
        print("\nbase runs failed: nothing to compare against")
    elif status == 1:
        print(f"\nFAIL: {len(failed)} metric(s), {len(problems)} failed run(s)"
              + "".join(f"\n  {name}" for name in failed))
    else:
        print("\npass: no metric beyond its bound, no unexplained count rise")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
